#include "drivers.hpp"

#include <string>
#include <vector>

#include "pagecache/backing_store.hpp"
#include "pagecache/lru_list.hpp"
#include "pagecache/memory_manager.hpp"
#include "refmodel/page_model.hpp"
#include "simcore/engine.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace pcs;

constexpr int kFiles = 8;
constexpr double kChunk = 4.0e6;
constexpr double kHostMem = 250.0e9;

std::string file_name(std::uint64_t k) { return "f" + std::to_string(k); }

/// The drivers never run the engine, so the store is never awaited.
class NullStore : public cache::BackingStore {
 public:
  sim::Task<> read(const std::string&, double) override { co_return; }
  sim::Task<> write(const std::string&, double) override { co_return; }
};

/// A MemoryManager over a bare engine, pre-filled with `blocks` clean
/// chunk-sized blocks spread round-robin over `files` files.
struct MmRig {
  sim::Engine engine;
  NullStore store;
  cache::MemoryManager mm{engine, cache::CacheParams{}, kHostMem,
                          engine.new_resource("mem:rd", 4.812e9),
                          engine.new_resource("mem:wr", 4.812e9), store};

  MmRig(std::size_t blocks, std::uint64_t files) {
    for (std::size_t b = 0; b < blocks; ++b) (void)mm.add_to_cache(file_name(b % files), kChunk);
  }
};

}  // namespace

DriverRate drive_lru(std::size_t blocks, std::uint64_t ops, std::uint64_t seed) {
  cache::LruList list;
  util::Rng rng(seed);
  std::uint64_t next_id = 0;
  double now = 0.0;
  auto insert_new = [&] {
    cache::DataBlock b;
    b.id = next_id++;
    b.file = file_name(rng.uniform_int(0, 63));
    b.size = kChunk;
    b.entry_time = now;
    b.last_access = now;
    b.dirty = rng.bernoulli(0.3);
    list.insert(std::move(b));
    now += 1.0;
  };
  for (std::size_t i = 0; i < blocks; ++i) insert_new();
  // Random ids are drawn from a window over recent ids; ids that were
  // erased miss, as the flusher's revalidating lookups do.
  auto random_block = [&] {
    const std::uint64_t lo = next_id > 2 * blocks ? next_id - 2 * blocks : 0;
    return list.find(rng.uniform_int(lo, next_id - 1));
  };

  DriverRate r;
  const double t0 = now_s();
  for (std::uint64_t op = 0; op < ops; ++op) {
    switch (rng.uniform_int(0, 3)) {
      case 0:  // a fresh block at the MRU end; the LRU block leaves
        insert_new();
        list.erase(list.begin());
        break;
      case 1: {
        auto it = random_block();
        if (it != list.end()) list.touch(it, now);
        now += 1.0;
        break;
      }
      case 2: {  // partial access: split, keep the head, drop the tail
        auto it = random_block();
        if (it != list.end() && it->size > 2.0) {
          auto parts = list.split(it, it->size / 2.0, next_id++);
          list.erase(parts.second);
          r.sink += parts.first->size;
        }
        break;
      }
      default: {
        auto it = random_block();
        if (it != list.end()) {
          list.erase(it);
          insert_new();
        }
        break;
      }
    }
  }
  r.seconds = now_s() - t0;
  r.ops = ops;
  r.sink += list.total();
  return r;
}

DriverRate drive_mm_reads(std::size_t blocks, std::uint64_t ops, std::uint64_t seed) {
  // 64 interleaved files: a read scans past the other files' blocks to
  // find its own, the cost the list walk in touch_cached pays.
  constexpr std::uint64_t kReadFiles = 64;
  MmRig rig(blocks, kReadFiles);
  util::Rng rng(seed);
  const double cap = static_cast<double>(blocks) * kChunk;
  DriverRate r;
  const double t0 = now_s();
  for (std::uint64_t op = 0; op < ops; ++op) {
    const std::string file = file_name(rng.uniform_int(0, kReadFiles - 1));
    if (rng.bernoulli(0.8)) {
      r.sink += rig.mm.touch_cached(file, kChunk);
    } else {  // a miss fill keeps the inactive list populated
      r.sink += rig.mm.add_to_cache(file, kChunk);
      if (rig.mm.cached() > cap) rig.mm.evict(kChunk);
    }
  }
  r.seconds = now_s() - t0;
  r.ops = ops;
  return r;
}

DriverRate drive_mm_writes(std::size_t blocks, std::uint64_t ops, std::uint64_t seed) {
  MmRig rig(blocks, kFiles);
  util::Rng rng(seed);
  const double cap = static_cast<double>(blocks) * kChunk;
  DriverRate r;
  const double t0 = now_s();
  for (std::uint64_t op = 0; op < ops; ++op) {
    r.sink += rig.mm.add_to_cache(file_name(rng.uniform_int(0, 4 * kFiles - 1)), kChunk);
    if (rig.mm.cached() > cap) rig.mm.evict(kChunk);
  }
  r.seconds = now_s() - t0;
  r.ops = ops;
  return r;
}

DriverRate drive_ref_kernel(std::size_t extents, std::uint64_t ops, std::uint64_t seed) {
  ref::PageCacheKernel kernel(ref::RefParams{}, kHostMem);
  util::Rng rng(seed);
  double now = 0.0;
  for (std::size_t e = 0; e < extents; ++e) {
    kernel.insert_clean(file_name(e % kFiles), kChunk, now);
    now += 0.01;
  }
  const double cap = static_cast<double>(extents) * kChunk;
  DriverRate r;
  const double t0 = now_s();
  for (std::uint64_t op = 0; op < ops; ++op) {
    const std::string file = file_name(rng.uniform_int(0, kFiles - 1));
    now += 0.01;
    switch (rng.uniform_int(0, 4)) {
      case 0:
        kernel.insert_clean(file, kChunk, now);
        break;
      case 1:
        kernel.insert_dirty(file, kChunk, now);
        if (kernel.dirty() > kernel.dirty_bg_limit()) {
          for (const auto& [f, bytes] : kernel.take_writeback_batch(16 * kChunk, now, false)) {
            r.sink += bytes;
          }
        }
        break;
      case 2:
        r.sink += kernel.touch(file, kChunk, now);
        break;
      case 3:
        r.sink += kernel.reclaim(kChunk);
        break;
      default:
        kernel.alloc_anon(kChunk);
        kernel.release_anon(kChunk);
        break;
    }
    if (kernel.cached() > cap) r.sink += kernel.reclaim(kChunk);
  }
  r.seconds = now_s() - t0;
  r.ops = ops;
  return r;
}

}  // namespace perfbench
