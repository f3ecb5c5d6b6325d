// Tests for util::HashIndex, the content-addressed index behind every
// hash-cons table, and for the chunked append-only storage the tables keep
// their entries in.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "util/chunked_vector.hpp"
#include "util/flat_set.hpp"
#include "util/hash.hpp"

using namespace aadlsched;

namespace {

/// A minimal hash-cons table over strings: the index plus the caller-side
/// storage it answers equality against, as the ACSR tables use it.
struct StringTable {
  util::ChunkedVector<std::string, 6> storage;
  util::HashIndex index;
  std::uint64_t (*hash)(std::string_view) = [](std::string_view s) {
    return util::fnv1a(s);
  };

  std::uint32_t intern(std::string_view s) {
    return index.intern(
        hash(s), [&](std::uint32_t id) { return storage[id] == s; },
        [&] {
          return static_cast<std::uint32_t>(storage.push_back(std::string(s)));
        });
  }
  std::uint32_t find(std::string_view s) const {
    return index.find(hash(s),
                      [&](std::uint32_t id) { return storage[id] == s; });
  }
};

TEST(HashIndex, IdsFollowPublishOrder) {
  StringTable t;
  EXPECT_EQ(t.intern("a"), 0u);
  EXPECT_EQ(t.intern("b"), 1u);
  EXPECT_EQ(t.intern("a"), 0u);
  EXPECT_EQ(t.intern("c"), 2u);
  EXPECT_EQ(t.find("b"), 1u);
  EXPECT_EQ(t.find("zz"), util::kFlatEmptySlot);
  EXPECT_EQ(t.storage.size(), 3u);  // a hit publishes nothing
}

TEST(HashIndex, EqualityAloneSeparatesCollidingHashes) {
  // Every value hashes alike: same probe start, same tag. Only the caller's
  // equality tells entries apart.
  StringTable t;
  t.hash = [](std::string_view) -> std::uint64_t { return 7; };
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(t.intern("v" + std::to_string(i)), static_cast<std::uint32_t>(i));
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(t.intern("v" + std::to_string(i)), static_cast<std::uint32_t>(i));
    EXPECT_EQ(t.find("v" + std::to_string(i)), static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(t.find("v200"), util::kFlatEmptySlot);
  EXPECT_EQ(t.index.size(), 200u);
}

TEST(HashIndex, GrowsAcrossRehashes) {
  StringTable t;
  EXPECT_EQ(t.index.approx_bytes(), 0u) << "no slots before the first intern";
  // The first intern allocates 16 slots; each doubling keeps the load under
  // 0.7, so 20k entries end in 32,768 slots after 11 doublings.
  constexpr int kN = 20'000;
  std::size_t bytes = 0;
  int growths = 0;
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(t.intern(std::to_string(i)), static_cast<std::uint32_t>(i));
    if (t.index.approx_bytes() != bytes) {
      bytes = t.index.approx_bytes();
      ++growths;
    }
  }
  EXPECT_EQ(growths, 1 + 11);
  EXPECT_EQ(t.index.approx_bytes(), 32'768u * 2 * sizeof(std::uint32_t));
  for (int i = 0; i < kN; ++i)
    ASSERT_EQ(t.find(std::to_string(i)), static_cast<std::uint32_t>(i));
  EXPECT_EQ(t.index.size(), static_cast<std::size_t>(kN));
}

TEST(ChunkedVector, StableAddressesAcrossGrowth) {
  util::ChunkedVector<int, 4> v;  // chunks of 16
  EXPECT_EQ(v.push_back(7), 0u);
  const int* first = &v[0];
  for (int i = 1; i < 1000; ++i)
    EXPECT_EQ(v.push_back(i), static_cast<std::size_t>(i));
  EXPECT_EQ(first, &v[0]) << "growth must not move existing elements";
  EXPECT_EQ(v[0], 7);
  EXPECT_EQ(v[999], 999);
  EXPECT_EQ(v.size(), 1000u);
}

TEST(ChunkedVector, AppendSpanNeverStraddlesChunks) {
  util::ChunkedVector<std::uint32_t, 4> v;  // chunks of 16
  const std::uint32_t a[13] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13};
  const std::size_t s1 = v.append_span(std::span<const std::uint32_t>(a, 13));
  // 13 more do not fit in the 3 remaining slots: must pad to chunk 2.
  const std::size_t s2 = v.append_span(std::span<const std::uint32_t>(a, 13));
  EXPECT_EQ(s1, 0u);
  EXPECT_EQ(s2, 16u);
  const auto view2 = v.view(s2, 13);
  EXPECT_TRUE(std::equal(view2.begin(), view2.end(), a));
  // Empty span: no write, any start is fine, view is empty.
  const std::size_t s3 = v.append_span({});
  EXPECT_TRUE(v.view(s3, 0).empty());
}

}  // namespace
