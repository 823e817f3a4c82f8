// The engine's completion heap (simcore/completion_heap.hpp), driven
// directly in randomized lockstep against a std::set<(time, id)> reference:
// inserts, in-place re-keys up and down, removals (explicit and by an
// infinite time) and timestamp-batch pops, with completion times drawn from
// a handful of values so equal times — where only the id tie-break orders
// the pops — are the common case.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "simcore/activity_arena.hpp"
#include "simcore/completion_heap.hpp"

namespace pcs::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using Key = std::pair<double, std::uint64_t>;

void expect_positions_consistent(const ActivityArena& arena, const CompletionHeap& heap) {
  const std::vector<ActivitySlot>& slots = heap.slots();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    ASSERT_EQ(arena.heap_pos[slots[i]], i);
    if (i > 0) {
      const ActivitySlot parent = slots[(i - 1) / 2];
      const Key pk{arena.completion_time[parent], arena.id[parent]};
      const Key ck{arena.completion_time[slots[i]], arena.id[slots[i]]};
      ASSERT_LT(pk, ck) << "heap order violated at position " << i;
    }
  }
}

TEST(CompletionHeap, EqualTimesPopInIdOrder) {
  ActivityArena arena;
  CompletionHeap heap(arena);
  // Insert ids in descending order, all at the same time.
  std::vector<ActivitySlot> slots;
  for (std::uint64_t id = 10; id > 0; --id) {
    const ActivitySlot s = arena.alloc(id, "a", {}, 1.0, 0.0, 0.0);
    arena.completion_time[s] = 5.0;
    heap.update(s);
    slots.push_back(s);
  }
  EXPECT_EQ(heap.size(), 10u);
  for (std::uint64_t id = 1; id <= 10; ++id) {
    ASSERT_FALSE(heap.empty());
    EXPECT_EQ(arena.id[heap.top()], id);
    heap.erase(heap.top());
  }
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.peak(), 10u);
  for (ActivitySlot s : slots) EXPECT_EQ(arena.heap_pos[s], kNoHeapPos);
}

TEST(CompletionHeap, InfiniteTimeRemovesAndEraseIsIdempotent) {
  ActivityArena arena;
  CompletionHeap heap(arena);
  const ActivitySlot a = arena.alloc(1, "a", {}, 1.0, 0.0, 0.0);
  const ActivitySlot b = arena.alloc(2, "b", {}, 1.0, 0.0, 0.0);
  heap.update(a);  // completion_time starts infinite: not inserted
  EXPECT_TRUE(heap.empty());
  arena.completion_time[a] = 3.0;
  arena.completion_time[b] = 1.0;
  heap.update(a);
  heap.update(b);
  EXPECT_EQ(heap.top(), b);
  arena.completion_time[b] = kInf;
  heap.update(b);
  EXPECT_EQ(heap.size(), 1u);
  EXPECT_EQ(arena.heap_pos[b], kNoHeapPos);
  heap.erase(b);  // not a member: no-op
  EXPECT_EQ(heap.top(), a);
  heap.erase(a);
  heap.erase(a);
  EXPECT_TRUE(heap.empty());
}

TEST(CompletionHeap, RandomizedLockstepAgainstAnOrderedSet) {
  std::mt19937 rng(20261019);
  ActivityArena arena;
  CompletionHeap heap(arena);
  std::set<Key> model;
  std::vector<ActivitySlot> members;  // slots currently in the model
  std::vector<ActivitySlot> idle;     // allocated slots outside the heap
  std::uint64_t next_id = 1;
  std::size_t batches = 0;
  std::size_t popped = 0;
  std::size_t ties = 0;
  std::size_t model_peak = 0;

  // Few distinct times: most batches hold several equal keys.
  auto draw_time = [&rng]() {
    std::uniform_int_distribution<int> d(0, 6);
    const int v = d(rng);
    return v == 6 ? kInf : static_cast<double>(v);
  };
  auto drop_member = [&members](ActivitySlot s) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (members[i] == s) {
        members[i] = members.back();
        members.pop_back();
        return;
      }
    }
  };
  auto pick = [&rng](const std::vector<ActivitySlot>& v) {
    std::uniform_int_distribution<std::size_t> d(0, v.size() - 1);
    return v[d(rng)];
  };
  auto rekey = [&](ActivitySlot s, double t) {
    if (arena.heap_pos[s] != kNoHeapPos) {
      model.erase(Key{arena.completion_time[s], arena.id[s]});
      drop_member(s);
    }
    arena.completion_time[s] = t;
    heap.update(s);
    if (t < kInf) {
      model.insert(Key{t, arena.id[s]});
      members.push_back(s);
    } else {
      idle.push_back(s);
    }
    model_peak = std::max(model_peak, model.size());
  };

  for (int step = 0; step < 50000; ++step) {
    std::uniform_int_distribution<int> d(0, 99);
    const int op = d(rng);
    if (op < 40) {  // insert a fresh activity
      const ActivitySlot s = arena.alloc(next_id++, "x", {}, 1.0, 0.0, 0.0);
      rekey(s, draw_time());
    } else if (op < 75 && !members.empty()) {  // re-key in place (or to inf)
      rekey(pick(members), draw_time());
    } else if (op < 80 && !idle.empty()) {  // an idle slot gets a time again
      const ActivitySlot s = pick(idle);
      for (std::size_t i = 0; i < idle.size(); ++i) {
        if (idle[i] == s) {
          idle[i] = idle.back();
          idle.pop_back();
          break;
        }
      }
      rekey(s, draw_time());
    } else if (op < 90 && !members.empty()) {  // cancel: remove and retire
      const ActivitySlot s = pick(members);
      model.erase(Key{arena.completion_time[s], arena.id[s]});
      drop_member(s);
      heap.erase(s);
      ASSERT_EQ(arena.heap_pos[s], kNoHeapPos);
      arena.done[s] = 1;
      arena.release(s);
    } else {  // pop the batch at the earliest time, as Engine::step does
      ASSERT_EQ(heap.empty(), model.empty());
      if (model.empty()) continue;
      const double t_next = arena.completion_time[heap.top()];
      ASSERT_EQ(t_next, model.begin()->first);
      std::vector<std::uint64_t> got;
      while (!heap.empty() && arena.completion_time[heap.top()] <= t_next) {
        const ActivitySlot s = heap.top();
        got.push_back(arena.id[s]);
        heap.erase(s);
        drop_member(s);
        arena.done[s] = 1;
        arena.release(s);
      }
      std::vector<std::uint64_t> want;
      while (!model.empty() && model.begin()->first <= t_next) {
        want.push_back(model.begin()->second);
        model.erase(model.begin());
      }
      ASSERT_EQ(got, want) << "pop order diverged at batch " << batches;
      ++batches;
      popped += got.size();
      if (got.size() > 1) ++ties;
    }
    ASSERT_EQ(heap.size(), model.size());
    if (step % 97 == 0) expect_positions_consistent(arena, heap);
  }
  expect_positions_consistent(arena, heap);
  EXPECT_EQ(heap.peak(), model_peak);
  // The run exercised what it claims: many batches, a large share of them
  // holding several equal times.
  EXPECT_GT(batches, 1000u);
  EXPECT_GT(popped, batches * 3 / 2);
  EXPECT_GT(ties, batches / 3);
}

}  // namespace
}  // namespace pcs::sim
