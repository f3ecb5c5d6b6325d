#include "util/interner.hpp"

#include "util/hash.hpp"

namespace aadlsched::util {

Interner::Interner() { intern(""); }

Symbol Interner::intern(std::string_view s) {
  return index_.intern(
      fnv1a(s), [&](Symbol id) { return storage_[id] == s; },
      [&] { return static_cast<Symbol>(storage_.push_back(std::string(s))); });
}

bool Interner::lookup(std::string_view s, Symbol& out) const {
  const Symbol hit =
      index_.find(fnv1a(s), [&](Symbol id) { return storage_[id] == s; });
  if (hit == kFlatEmptySlot) return false;
  out = hit;
  return true;
}

}  // namespace aadlsched::util
