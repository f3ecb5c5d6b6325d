// Open-addressing hash containers over dense 32-bit ids.
//
// The exploration wavefront keys everything by acsr::TermId (a uint32), and
// the node-based std::unordered_map it used to sit in costs ~48-64 bytes of
// heap per entry plus a pointer chase per probe. These flat tables pack the
// same data into contiguous power-of-two arrays: one u32 slot per key for
// the set, parallel key/value arrays (SoA) for the map, and a (hash tag, id)
// pair per entry for HashIndex, the content-addressed index behind every
// hash-cons table. Linear probing with a strong 64-bit mix keeps clusters
// short at the 0.7 max load factor.
//
// All three reserve 0xFFFFFFFF as the empty-slot sentinel; callers never
// insert it (it is acsr::kInvalidTerm, which is not a state). None supports
// erase — visited sets, parent maps and hash-cons tables only grow, which
// is what makes tombstone-free linear probing safe. None takes a lock:
// each table belongs to one thread (one exploration, one acsr::Context).
#pragma once

#include <cassert>
#include <cstdint>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/hash.hpp"

namespace aadlsched::util {

inline constexpr std::uint32_t kFlatEmptySlot = 0xFFFFFFFFu;

namespace detail {

inline std::size_t flat_capacity_for(std::size_t n) {
  // Smallest power of two that keeps n entries under 0.7 load.
  std::size_t cap = 16;
  while (cap * 7 < n * 10) cap <<= 1;
  return cap;
}

}  // namespace detail

/// Append-only set of 32-bit ids. insert() returns true when the id was
/// newly added — the same contract as unordered_map::emplace().second the
/// explorer relied on.
class FlatIdSet {
 public:
  FlatIdSet() { rehash(16); }

  void reserve(std::size_t n) {
    const std::size_t want = detail::flat_capacity_for(n);
    if (want > slots_.size()) rehash(want);
  }

  bool insert(std::uint32_t key) {
    assert(key != kFlatEmptySlot);
    if ((size_ + 1) * 10 > slots_.size() * 7) rehash(slots_.size() * 2);
    std::size_t i = probe_start(key);
    while (true) {
      const std::uint32_t slot = slots_[i];
      if (slot == key) return false;
      if (slot == kFlatEmptySlot) {
        slots_[i] = key;
        ++size_;
        return true;
      }
      i = (i + 1) & mask_;
    }
  }

  bool contains(std::uint32_t key) const {
    std::size_t i = probe_start(key);
    while (true) {
      const std::uint32_t slot = slots_[i];
      if (slot == key) return true;
      if (slot == kFlatEmptySlot) return false;
      i = (i + 1) & mask_;
    }
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    slots_.assign(slots_.size(), kFlatEmptySlot);
    size_ = 0;
  }

  template <typename F>
  void for_each(F&& f) const {
    for (const std::uint32_t slot : slots_)
      if (slot != kFlatEmptySlot) f(slot);
  }

  /// Actual table footprint: one u32 per slot, no per-entry heap nodes.
  std::size_t approx_bytes() const {
    return slots_.size() * sizeof(std::uint32_t);
  }

 private:
  std::size_t probe_start(std::uint32_t key) const {
    return static_cast<std::size_t>(util::mix64(key)) & mask_;
  }

  void rehash(std::size_t new_cap) {
    std::vector<std::uint32_t> old = std::move(slots_);
    slots_.assign(new_cap, kFlatEmptySlot);
    mask_ = new_cap - 1;
    for (const std::uint32_t key : old) {
      if (key == kFlatEmptySlot) continue;
      std::size_t i = probe_start(key);
      while (slots_[i] != kFlatEmptySlot) i = (i + 1) & mask_;
      slots_[i] = key;
    }
  }

  std::vector<std::uint32_t> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Append-only map from 32-bit id to V, stored as parallel arrays so a
/// probe touches only the key array until it hits.
template <typename V>
class FlatIdMap {
 public:
  FlatIdMap() { rehash(16); }

  void reserve(std::size_t n) {
    const std::size_t want = detail::flat_capacity_for(n);
    if (want > keys_.size()) rehash(want);
  }

  /// Insert (key, value) if the key is absent; returns true on insertion,
  /// false (leaving the existing value untouched) when already present.
  bool emplace(std::uint32_t key, V value) {
    assert(key != kFlatEmptySlot);
    if ((size_ + 1) * 10 > keys_.size() * 7) rehash(keys_.size() * 2);
    std::size_t i = probe_start(key);
    while (true) {
      const std::uint32_t slot = keys_[i];
      if (slot == key) return false;
      if (slot == kFlatEmptySlot) {
        keys_[i] = key;
        values_[i] = std::move(value);
        ++size_;
        return true;
      }
      i = (i + 1) & mask_;
    }
  }

  V* find(std::uint32_t key) {
    std::size_t i = probe_start(key);
    while (true) {
      const std::uint32_t slot = keys_[i];
      if (slot == key) return &values_[i];
      if (slot == kFlatEmptySlot) return nullptr;
      i = (i + 1) & mask_;
    }
  }
  const V* find(std::uint32_t key) const {
    return const_cast<FlatIdMap*>(this)->find(key);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    keys_.assign(keys_.size(), kFlatEmptySlot);
    values_.assign(values_.size(), V{});
    size_ = 0;
  }

  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < keys_.size(); ++i)
      if (keys_[i] != kFlatEmptySlot) f(keys_[i], values_[i]);
  }

  std::size_t approx_bytes() const {
    return keys_.size() * (sizeof(std::uint32_t) + sizeof(V));
  }

 private:
  std::size_t probe_start(std::uint32_t key) const {
    return static_cast<std::size_t>(util::mix64(key)) & mask_;
  }

  void rehash(std::size_t new_cap) {
    std::vector<std::uint32_t> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    keys_.assign(new_cap, kFlatEmptySlot);
    values_.assign(new_cap, V{});
    mask_ = new_cap - 1;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kFlatEmptySlot) continue;
      std::size_t j = probe_start(old_keys[i]);
      while (keys_[j] != kFlatEmptySlot) j = (j + 1) & mask_;
      keys_[j] = old_keys[i];
      values_[j] = std::move(old_values[i]);
    }
  }

  std::vector<std::uint32_t> keys_;
  std::vector<V> values_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Content-addressed index of dense 32-bit ids: the one hash-consing
/// structure of the tool. It stores no content, only (hash tag, id) slots
/// in one open-addressing array; the caller keeps the entries in its own
/// storage and answers equality for them. intern() returns the id of an
/// existing equal entry or lets the caller publish a new one, so ids come
/// out in the caller's append order and the numbering does not depend on
/// the index layout.
class HashIndex {
 public:
  /// The id whose entry `eq(id)` accepts, or kFlatEmptySlot.
  template <typename Eq>
  std::uint32_t find(std::uint64_t hash, Eq&& eq) const {
    if (slots_.empty()) return kFlatEmptySlot;
    return slots_[probe(tag_of(hash), eq)].id;
  }

  /// The id whose entry `eq(id)` accepts; when there is none, `publish()`
  /// appends the entry to the caller's storage and returns its new id.
  template <typename Eq, typename Publish>
  std::uint32_t intern(std::uint64_t hash, Eq&& eq, Publish&& publish) {
    if ((size_ + 1) * 10 > slots_.size() * 7)
      rehash(detail::flat_capacity_for(size_ + 1));
    const std::uint32_t tag = tag_of(hash);
    Slot& slot = slots_[probe(tag, eq)];
    if (slot.id != kFlatEmptySlot) return slot.id;
    const std::uint32_t id = publish();
    assert(id != kFlatEmptySlot);
    slot = Slot{tag, id};
    ++size_;
    return id;
  }

  std::size_t size() const { return size_; }

  /// Actual footprint of the slot array.
  std::size_t approx_bytes() const { return slots_.size() * sizeof(Slot); }

 private:
  struct Slot {
    std::uint32_t tag;  // low bits of the mixed hash; probe starts at
                        // tag & mask
    std::uint32_t id;
  };

  static std::uint32_t tag_of(std::uint64_t hash) {
    return static_cast<std::uint32_t>(util::mix64(hash));
  }

  /// Slot of the entry `eq` accepts, or the empty slot ending its run.
  template <typename Eq>
  std::size_t probe(std::uint32_t tag, const Eq& eq) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = tag & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.id == kFlatEmptySlot || (slot.tag == tag && eq(slot.id)))
        return i;
    }
  }

  void rehash(std::size_t new_cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_cap, Slot{0, kFlatEmptySlot});
    const std::size_t mask = new_cap - 1;
    for (const Slot& slot : old) {
      if (slot.id == kFlatEmptySlot) continue;
      std::size_t i = slot.tag & mask;
      while (slots_[i].id != kFlatEmptySlot) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;  // allocated on the first intern
  std::size_t size_ = 0;
};

}  // namespace aadlsched::util
