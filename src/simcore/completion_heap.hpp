// The engine's completion order: an indexed binary min-heap of running
// activity slots keyed by (completion_time, id).
//
// Every running activity with a finite projected completion time holds
// exactly one entry, and the arena's `heap_pos[slot]` records where it sits
// (kNoHeapPos when it holds none).  A re-solve that moves an activity's
// completion time sifts its entry in place, so the heap never holds stale
// entries: its size is bounded by the running activities, and the root is
// always the next real completion.  The id tie-break makes the order total,
// so equal completion times pop in submission order on every platform.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "simcore/activity_arena.hpp"

namespace pcs::sim {

class CompletionHeap {
 public:
  explicit CompletionHeap(ActivityArena& arena) : arena_(arena) {}

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  /// Largest size the heap ever reached.
  [[nodiscard]] std::size_t peak() const { return peak_; }
  /// The slots in heap order (root first); read-only, for invariant checks.
  [[nodiscard]] const std::vector<ActivitySlot>& slots() const { return heap_; }

  /// The slot completing first; the heap must not be empty.
  [[nodiscard]] ActivitySlot top() const {
    assert(!heap_.empty());
    return heap_.front();
  }

  /// Re-key `slot` after its arena completion_time changed: insert it, sift
  /// it in place, or remove it when the time is no longer finite.
  void update(ActivitySlot slot) {
    const std::uint32_t pos = arena_.heap_pos[slot];
    if (!(arena_.completion_time[slot] < kInf)) {
      if (pos != kNoHeapPos) erase(slot);
    } else if (pos == kNoHeapPos) {
      heap_.push_back(slot);
      if (heap_.size() > peak_) peak_ = heap_.size();
      sift_up(heap_.size() - 1);
    } else {
      fix(pos);
    }
  }

  /// Remove `slot`'s entry; a no-op when it holds none.
  void erase(ActivitySlot slot) {
    const std::uint32_t pos = arena_.heap_pos[slot];
    if (pos == kNoHeapPos) return;
    arena_.heap_pos[slot] = kNoHeapPos;
    const ActivitySlot last = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size()) return;
    place(pos, last);
    fix(pos);
  }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  [[nodiscard]] bool before(ActivitySlot x, ActivitySlot y) const {
    const double tx = arena_.completion_time[x];
    const double ty = arena_.completion_time[y];
    if (tx != ty) return tx < ty;
    return arena_.id[x] < arena_.id[y];
  }

  void place(std::size_t pos, ActivitySlot slot) {
    heap_[pos] = slot;
    arena_.heap_pos[slot] = static_cast<std::uint32_t>(pos);
  }

  void fix(std::size_t pos) {
    if (pos > 0 && before(heap_[pos], heap_[(pos - 1) / 2])) {
      sift_up(pos);
    } else {
      sift_down(pos);
    }
  }

  void sift_up(std::size_t pos) {
    const ActivitySlot slot = heap_[pos];
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 2;
      if (!before(slot, heap_[parent])) break;
      place(pos, heap_[parent]);
      pos = parent;
    }
    place(pos, slot);
  }

  void sift_down(std::size_t pos) {
    const ActivitySlot slot = heap_[pos];
    const std::size_t n = heap_.size();
    while (true) {
      std::size_t child = 2 * pos + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], slot)) break;
      place(pos, heap_[child]);
      pos = child;
    }
    place(pos, slot);
  }

  ActivityArena& arena_;
  std::vector<ActivitySlot> heap_;
  std::size_t peak_ = 0;
};

}  // namespace pcs::sim
