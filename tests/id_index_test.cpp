// The flat open-addressing id index against std::unordered_map: random
// put/erase/find sequences in lockstep, including erases with a mismatched
// value (which must leave the entry alone) and probe runs that wrap past the
// end of the slot array.
#include "pagecache/id_index.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace pcs::cache {
namespace {

using RefMap = std::unordered_map<std::uint64_t, std::uint32_t>;

void expect_same(const IdIndex& index, const RefMap& ref) {
  ASSERT_EQ(index.size(), ref.size());
  for (const auto& [key, value] : ref) ASSERT_EQ(index.find(key), value) << key;
}

class IdIndexLockstep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IdIndexLockstep, MatchesUnorderedMap) {
  // A key range a few times the live size keeps the table at every load
  // factor it passes through, with long collision runs.
  const std::uint64_t key_range = GetParam();
  util::Rng rng(0x1d1de7u + key_range);
  IdIndex index;
  RefMap ref;
  for (int op = 0; op < 120000; ++op) {
    const std::uint64_t key = rng.uniform_int(0, key_range - 1);
    const auto it = ref.find(key);
    switch (rng.uniform_int(0, 5)) {
      case 0:
      case 1: {
        const auto value = static_cast<std::uint32_t>(rng.uniform_int(0, 1u << 30));
        index.put(key, value);
        ref[key] = value;
        break;
      }
      case 2: {  // erase with the mapped value (when present)
        const std::uint32_t value = it == ref.end() ? 7u : it->second;
        const bool erased = index.erase(key, value);
        ASSERT_EQ(erased, it != ref.end());
        if (it != ref.end()) ref.erase(it);
        break;
      }
      case 3: {  // erase with a mismatched value: a no-op
        const std::uint32_t wrong = it == ref.end() ? 7u : it->second + 1;
        ASSERT_FALSE(index.erase(key, wrong));
        break;
      }
      default: {
        const std::uint32_t want = it == ref.end() ? IdIndex::kNone : it->second;
        ASSERT_EQ(index.find(key), want);
        break;
      }
    }
    ASSERT_EQ(index.size(), ref.size());
    if (op % 4096 == 0) expect_same(index, ref);
  }
  expect_same(index, ref);
  // Drain everything: every key leaves exactly once.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> live(ref.begin(), ref.end());
  for (const auto& [key, value] : live) {
    ASSERT_TRUE(index.erase(key, value));
    ref.erase(key);
    ASSERT_EQ(index.find(key), IdIndex::kNone);
  }
  EXPECT_EQ(index.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(KeyRanges, IdIndexLockstep, ::testing::Values(24u, 300u, 5000u));

/// Home slot of `key` in a table of 2^bits slots (the index's Fibonacci
/// hash).  Used only to pick colliding keys; the test's assertions hold
/// whatever the hash.
std::size_t home(std::uint64_t key, unsigned bits) {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> (64 - bits));
}

TEST(IdIndex, WrapAroundClusterSurvivesErases) {
  // Keys homed on the last slot of the initial 16-slot table, interleaved
  // with keys homed on the first two: one probe run wraps from slot 15 to
  // the front.  Erasing the run's head leaves a hole at slot 15 in front
  // of entries that sit on their own home at the front (they must stay)
  // and entries homed on 15 (they must shift back across the wrap).
  auto keys_homed = [](std::size_t slot, std::size_t n) {
    std::vector<std::uint64_t> out;
    for (std::uint64_t k = 1; out.size() < n; ++k) {
      if (home(k, 4) == slot) out.push_back(k);
    }
    return out;
  };
  const std::vector<std::uint64_t> last = keys_homed(15, 5);
  const std::vector<std::uint64_t> first = keys_homed(0, 3);
  const std::vector<std::uint64_t> second = keys_homed(1, 2);
  const std::vector<std::uint64_t> keys = {last[0],  first[0], last[1],   last[2], second[0],
                                           first[1], last[3],  second[1], first[2], last[4]};
  IdIndex index;
  RefMap ref;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    index.put(keys[i], static_cast<std::uint32_t>(i));
    ref[keys[i]] = static_cast<std::uint32_t>(i);
  }
  expect_same(index, ref);
  for (std::size_t victim : {0u, 2u, 5u, 1u, 9u, 4u}) {
    ASSERT_TRUE(index.erase(keys[victim], static_cast<std::uint32_t>(victim)));
    ref.erase(keys[victim]);
    ASSERT_EQ(index.find(keys[victim]), IdIndex::kNone);
    expect_same(index, ref);
  }
  // Re-inserting into the holes works and overwriting keeps the size.
  index.put(keys[0], 42);
  ref[keys[0]] = 42;
  index.put(keys[3], 43);
  ref[keys[3]] = 43;
  expect_same(index, ref);
}

TEST(IdIndex, EmptyIndexFindsNothing) {
  IdIndex index;
  EXPECT_EQ(index.find(0), IdIndex::kNone);
  EXPECT_EQ(index.find(12345), IdIndex::kNone);
  EXPECT_FALSE(index.erase(1, 1));
  EXPECT_EQ(index.size(), 0u);
}

}  // namespace
}  // namespace pcs::cache
