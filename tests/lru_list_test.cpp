#include "pagecache/lru_list.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace pcs::cache {
namespace {

DataBlock make_block(std::uint64_t id, const std::string& file, double size, double access,
                     bool dirty = false) {
  DataBlock b;
  b.id = id;
  b.file = file;
  b.size = size;
  b.entry_time = access;
  b.last_access = access;
  b.dirty = dirty;
  return b;
}

TEST(LruList, InsertKeepsAccessOrder) {
  LruList list;
  list.insert(make_block(1, "a", 10, 5.0));
  list.insert(make_block(2, "b", 10, 1.0));
  list.insert(make_block(3, "c", 10, 3.0));
  std::vector<std::uint64_t> ids;
  for (const DataBlock& b : list) ids.push_back(b.id);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{2, 3, 1}));
  list.check_invariants();
}

TEST(LruList, EqualAccessTimesKeepFifo) {
  LruList list;
  list.insert(make_block(1, "a", 10, 2.0));
  list.insert(make_block(2, "b", 10, 2.0));
  list.insert(make_block(3, "c", 10, 2.0));
  std::vector<std::uint64_t> ids;
  for (const DataBlock& b : list) ids.push_back(b.id);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(LruList, Accounting) {
  LruList list;
  list.insert(make_block(1, "a", 10, 1.0, /*dirty=*/true));
  list.insert(make_block(2, "a", 20, 2.0));
  list.insert(make_block(3, "b", 5, 3.0, /*dirty=*/true));
  EXPECT_DOUBLE_EQ(list.total(), 35.0);
  EXPECT_DOUBLE_EQ(list.dirty_total(), 15.0);
  EXPECT_DOUBLE_EQ(list.clean_total(), 20.0);
  EXPECT_DOUBLE_EQ(list.file_bytes("a"), 30.0);
  EXPECT_DOUBLE_EQ(list.file_bytes("b"), 5.0);
  EXPECT_DOUBLE_EQ(list.file_bytes("zzz"), 0.0);
  EXPECT_EQ(list.block_count(), 3u);
  list.check_invariants();
}

TEST(LruList, TouchMovesToTail) {
  LruList list;
  list.insert(make_block(1, "a", 10, 1.0));
  list.insert(make_block(2, "b", 10, 2.0));
  list.touch(list.begin(), 9.0);
  EXPECT_EQ(list.begin()->id, 2u);
  EXPECT_EQ(std::next(list.begin())->id, 1u);
  EXPECT_DOUBLE_EQ(std::next(list.begin())->last_access, 9.0);
  list.check_invariants();
}

TEST(LruList, SplitPreservesTotalsAndAttributes) {
  LruList list;
  list.insert(make_block(1, "a", 100, 1.0, /*dirty=*/true));
  auto [head, tail] = list.split(list.begin(), 30.0, 99);
  EXPECT_DOUBLE_EQ(head->size, 30.0);
  EXPECT_DOUBLE_EQ(tail->size, 70.0);
  EXPECT_EQ(head->id, 1u);
  EXPECT_EQ(tail->id, 99u);
  EXPECT_TRUE(head->dirty);
  EXPECT_TRUE(tail->dirty);
  EXPECT_DOUBLE_EQ(head->entry_time, tail->entry_time);
  EXPECT_DOUBLE_EQ(list.total(), 100.0);
  EXPECT_DOUBLE_EQ(list.dirty_total(), 100.0);
  EXPECT_DOUBLE_EQ(list.file_bytes("a"), 100.0);
  EXPECT_EQ(list.block_count(), 2u);
  list.check_invariants();
}

TEST(LruList, SplitRejectsBadSizes) {
  LruList list;
  list.insert(make_block(1, "a", 100, 1.0));
  EXPECT_THROW(list.split(list.begin(), 0.0, 2), std::invalid_argument);
  EXPECT_THROW(list.split(list.begin(), 100.0, 2), std::invalid_argument);
  EXPECT_THROW(list.split(list.begin(), -5.0, 2), std::invalid_argument);
}

TEST(LruList, SetDirtyUpdatesAccounting) {
  LruList list;
  list.insert(make_block(1, "a", 40, 1.0, /*dirty=*/true));
  list.set_dirty(list.begin(), false);
  EXPECT_DOUBLE_EQ(list.dirty_total(), 0.0);
  list.set_dirty(list.begin(), true);
  EXPECT_DOUBLE_EQ(list.dirty_total(), 40.0);
  list.set_dirty(list.begin(), true);  // idempotent
  EXPECT_DOUBLE_EQ(list.dirty_total(), 40.0);
  list.check_invariants();
}

TEST(LruList, ExtractRemovesAndReturns) {
  LruList list;
  list.insert(make_block(1, "a", 10, 1.0));
  list.insert(make_block(2, "b", 20, 2.0, true));
  DataBlock b = list.extract(list.begin());
  EXPECT_EQ(b.id, 1u);
  EXPECT_DOUBLE_EQ(list.total(), 20.0);
  EXPECT_EQ(list.block_count(), 1u);
  EXPECT_DOUBLE_EQ(list.file_bytes("a"), 0.0);
  list.check_invariants();
}

TEST(LruList, LruDirtyAndCleanSelectors) {
  LruList list;
  list.insert(make_block(1, "a", 10, 1.0, /*dirty=*/false));
  list.insert(make_block(2, "b", 10, 2.0, /*dirty=*/true));
  list.insert(make_block(3, "c", 10, 3.0, /*dirty=*/false));
  list.insert(make_block(4, "d", 10, 4.0, /*dirty=*/true));
  EXPECT_EQ(list.lru_dirty()->id, 2u);
  EXPECT_EQ(list.lru_clean()->id, 1u);
  EXPECT_EQ(list.lru_dirty("b")->id, 4u);
  EXPECT_EQ(list.lru_clean("a")->id, 3u);
  LruList empty;
  EXPECT_EQ(empty.lru_dirty(), empty.end());
  EXPECT_EQ(empty.lru_clean(), empty.end());
}

TEST(LruList, CleanExcluding) {
  LruList list;
  list.insert(make_block(1, "a", 10, 1.0, false));
  list.insert(make_block(2, "a", 10, 2.0, true));
  list.insert(make_block(3, "b", 30, 3.0, false));
  EXPECT_DOUBLE_EQ(list.clean_excluding(""), 40.0);
  EXPECT_DOUBLE_EQ(list.clean_excluding("a"), 30.0);
  EXPECT_DOUBLE_EQ(list.clean_excluding("b"), 10.0);
}

TEST(LruList, FindById) {
  LruList list;
  list.insert(make_block(7, "a", 10, 1.0));
  list.insert(make_block(9, "b", 10, 2.0));
  EXPECT_EQ(list.find(9)->file, "b");
  EXPECT_EQ(list.find(42), list.end());
}

TEST(LruList, ResizeAdjustsAccounts) {
  LruList list;
  list.insert(make_block(1, "a", 10, 1.0, true));
  list.resize(list.begin(), 25.0);
  EXPECT_DOUBLE_EQ(list.total(), 25.0);
  EXPECT_DOUBLE_EQ(list.dirty_total(), 25.0);
  EXPECT_DOUBLE_EQ(list.file_bytes("a"), 25.0);
  list.check_invariants();
}

// Property sweep: random op sequences keep accounting exact.
class LruListProperty : public ::testing::TestWithParam<int> {};

TEST_P(LruListProperty, RandomOpsPreserveInvariants) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 3);
  LruList list;
  std::uint64_t next_id = 1;
  double clock = 0.0;
  const std::string files[] = {"f1", "f2", "f3"};
  for (int step = 0; step < 400; ++step) {
    clock += rng.uniform(0.0, 1.0);
    const double roll = rng.next_double();
    if (roll < 0.40 || list.empty()) {
      list.insert(make_block(next_id++, files[rng.uniform_int(0, 2)], rng.uniform(1.0, 100.0),
                             clock, rng.bernoulli(0.4)));
    } else {
      // Pick a random existing block.
      auto it = list.begin();
      std::advance(it, static_cast<long>(rng.uniform_int(0, list.block_count() - 1)));
      if (roll < 0.55) {
        list.touch(it, clock);
      } else if (roll < 0.70) {
        if (it->size > 2.0) list.split(it, it->size / 2.0, next_id++);
      } else if (roll < 0.85) {
        list.set_dirty(it, !it->dirty);
      } else {
        list.erase(it);
      }
    }
    ASSERT_NO_THROW(list.check_invariants()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomOps, LruListProperty, ::testing::Range(0, 8));

// A file's account that drains to a rounding residue must read as absent,
// so a refill reports exactly the new block's bytes (the per-file snapshots
// of Fig 4c are compared byte for byte).
TEST(LruList, DrainedAccountRefillsExactly) {
  for (const bool dirty : {false, true}) {
    LruList list;
    // 0.1 + 0.2 - 0.1 - 0.2 leaves a ~5.6e-17 residue in a running sum.
    list.insert(make_block(1, "f", 0.1, 1.0, dirty));
    list.insert(make_block(2, "f", 0.2, 2.0, dirty));
    list.insert(make_block(3, "g", 5.0, 3.0));
    list.erase(list.find(1));
    list.erase(list.find(2));
    EXPECT_EQ(list.file_bytes("f"), 0.0);
    EXPECT_EQ(list.per_file().count("f"), 0u);
    list.insert(make_block(4, "f", 0.1, 4.0));  // small enough to show the residue
    EXPECT_EQ(list.file_bytes("f"), 0.1);
    EXPECT_EQ(list.per_file().at("f"), 0.1);
    EXPECT_EQ(list.clean_excluding("f"), list.clean_total() - 0.1);
    EXPECT_EQ(list.lru_dirty_of("f"), list.end());
    list.check_invariants();
  }
}

// The flusher's expiry scan walks only the dirty chain; it must name the
// same blocks, in the same (list) order, as filtering the whole list.
TEST(LruList, ExpiryScanMatchesFullListFilter) {
  util::Rng rng(77);
  LruList list;
  std::uint64_t next_id = 1;
  for (int round = 0; round < 400; ++round) {
    DataBlock b = make_block(next_id++, "f" + std::to_string(rng.uniform_int(0, 9)),
                             rng.uniform(1.0, 100.0), rng.uniform(0.0, 100.0),
                             rng.bernoulli(0.5));
    b.entry_time = rng.uniform(0.0, 100.0);
    list.insert(b);
    if (rng.bernoulli(0.3)) {
      auto it = list.find(rng.uniform_int(1, next_id - 1));
      if (it != list.end()) list.set_dirty(it, !it->dirty);
    }
    if (rng.bernoulli(0.2)) list.erase(list.begin());
    const double now = rng.uniform(0.0, 150.0);
    const double expire = rng.uniform(0.0, 60.0);
    std::vector<std::uint64_t> want;
    for (const DataBlock& blk : list) {
      if (blk.expired(now, expire)) want.push_back(blk.id);
    }
    std::vector<std::uint64_t> got;
    list.append_expired(now, expire, got);
    ASSERT_EQ(got, want) << "round " << round;
  }
}

}  // namespace
}  // namespace pcs::cache
