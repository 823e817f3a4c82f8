// Direct layer drivers: seeded operation streams straight into one layer,
// bypassing the engine and the workflow layers, so a change to that layer
// shows up undiluted.  Every rate is measured live in the run that reports
// it; nothing is compared against a stored figure.
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfbench {

struct DriverRate {
  std::uint64_t ops = 0;
  double seconds = 0.0;
  double sink = 0.0;  ///< folded results, so the stream cannot be optimized away

  [[nodiscard]] double per_s() const { return seconds > 0.0 ? static_cast<double>(ops) / seconds : 0.0; }
};

/// cache::LruList: a mixed insert / touch / split / erase stream over a
/// list held at `blocks` blocks.
DriverRate drive_lru(std::size_t blocks, std::uint64_t ops, std::uint64_t seed);

/// cache::MemoryManager read path: `touch_cached` over a cache populated
/// with `blocks` chunk-sized blocks of a shared file set.
DriverRate drive_mm_reads(std::size_t blocks, std::uint64_t ops, std::uint64_t seed);

/// cache::MemoryManager write path: `add_to_cache` fills with `evict`
/// keeping the cache at `blocks` blocks.
DriverRate drive_mm_writes(std::size_t blocks, std::uint64_t ops, std::uint64_t seed);

/// ref::PageCacheKernel: insert_clean / insert_dirty / touch / reclaim /
/// alloc_anon stream over a kernel holding about `extents` extents.
DriverRate drive_ref_kernel(std::size_t extents, std::uint64_t ops, std::uint64_t seed);

}  // namespace perfbench
