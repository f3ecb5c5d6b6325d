// Append-only storage with stable addresses.
//
// The hash-cons tables of the ACSR core are append-only: once an id is
// handed out, the entry behind it is immutable, and the tables promise
// that references into them survive further interning: a term's payload()
// span, a TermNode or action reference, a name from Interner::str(). A
// std::vector backing store would invalidate all of them on every grow.
// ChunkedVector stores elements in fixed-size chunks, so an element's
// address never changes once written; only the spine of chunk pointers
// grows. It is single-threaded like the tables that own it.
//
// Elements are addressed by 32-bit ids whose all-ones value is the
// empty-slot sentinel (util::kFlatEmptySlot, acsr::kInvalidTerm), so an
// append that would hand out index 0xFFFFFFFF throws std::length_error.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace aadlsched::util {

template <typename T, std::size_t ChunkLog = 12>
class ChunkedVector {
 public:
  static constexpr std::size_t kChunkSize = std::size_t{1} << ChunkLog;
  static constexpr std::size_t kChunkMask = kChunkSize - 1;
  /// One past the largest index an append may hand out.
  static constexpr std::size_t kMaxSize = 0xFFFFFFFFu;

  std::size_t size() const { return size_; }

  T& operator[](std::size_t i) {
    return spine_[i >> ChunkLog][i & kChunkMask];
  }
  const T& operator[](std::size_t i) const {
    return spine_[i >> ChunkLog][i & kChunkMask];
  }

  /// Append one element; returns its index.
  std::size_t push_back(T v) {
    const std::size_t i = size_;
    ensure_room(i, 1);
    (*this)[i] = std::move(v);
    size_ = i + 1;
    return i;
  }

  /// Append `xs` contiguously (never straddling a chunk boundary, padding
  /// the current chunk when they do not fit); returns the start index.
  /// Requires xs.size() <= kChunkSize.
  std::size_t append_span(std::span<const T> xs) {
    if (xs.size() > kChunkSize)
      throw std::length_error("ChunkedVector::append_span: span too large");
    std::size_t start = size_;
    if ((start & kChunkMask) + xs.size() > kChunkSize)
      start = (start & ~kChunkMask) + kChunkSize;  // pad to next chunk
    if (!xs.empty()) {
      ensure_room(start, xs.size());
      for (std::size_t k = 0; k < xs.size(); ++k) (*this)[start + k] = xs[k];
      size_ = start + xs.size();
    }
    return start;
  }

  /// View of a contiguous run produced by append_span.
  std::span<const T> view(std::size_t start, std::size_t len) const {
    if (len == 0) return {};
    return {&(*this)[start], len};
  }

 private:
  /// Allocate the chunk that indices [start, start + n) fall in.
  void ensure_room(std::size_t start, std::size_t n) {
    if (start + n > kMaxSize)
      throw std::length_error("ChunkedVector: capacity exhausted");
    while (spine_.size() <= (start >> ChunkLog))
      spine_.push_back(std::make_unique<T[]>(kChunkSize));
  }

  std::vector<std::unique_ptr<T[]>> spine_;
  std::size_t size_ = 0;
};

}  // namespace aadlsched::util
