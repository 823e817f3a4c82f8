// A flat open-addressing map from block id (uint64) to slab slot (uint32).
//
// Replaces a node-based std::unordered_map in LruList: one contiguous
// power-of-two slot array, linear probing from a Fibonacci hash of the key,
// and backward-shift deletion (the entries after a removed one slide back
// toward their home slot), so there are no tombstones and no per-entry heap
// node.  The load factor stays at or below 3/4; the array only grows.
//
// The value kNone marks an empty slot and cannot be stored.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pcs::cache {

class IdIndex {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// The value mapped to `key`, or kNone.
  [[nodiscard]] std::uint32_t find(std::uint64_t key) const {
    if (size_ == 0) return kNone;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.value == kNone) return kNone;
      if (s.key == key) return s.value;
    }
  }

  /// Map `key` to `value`, overwriting an existing mapping.
  void put(std::uint64_t key, std::uint32_t value) {
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.value == kNone) {
        s = {key, value};
        ++size_;
        return;
      }
      if (s.key == key) {
        s.value = value;
        return;
      }
    }
  }

  /// Remove `key` only if it maps to `value`; returns whether it did.
  bool erase(std::uint64_t key, std::uint32_t value) {
    if (size_ == 0) return false;
    std::size_t i = home(key);
    while (true) {
      const Slot& s = slots_[i];
      if (s.value == kNone) return false;
      if (s.key == key) break;
      i = (i + 1) & mask_;
    }
    if (slots_[i].value != value) return false;
    // Backward shift: pull each later entry of the probe run into the hole
    // unless its home lies cyclically in (hole, entry].
    for (std::size_t j = (i + 1) & mask_;; j = (j + 1) & mask_) {
      const Slot& s = slots_[j];
      if (s.value == kNone) break;
      const std::size_t h = home(s.key);
      const bool stays = i <= j ? (i < h && h <= j) : (i < h || h <= j);
      if (stays) continue;
      slots_[i] = s;
      i = j;
    }
    slots_[i].value = kNone;
    --size_;
    return true;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t value = kNone;
  };

  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t cap = old.empty() ? 16 : old.size() * 2;
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
    size_ = 0;
    for (const Slot& s : old) {
      if (s.value != kNone) put(s.key, s.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace pcs::cache
