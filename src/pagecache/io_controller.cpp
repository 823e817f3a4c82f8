#include "pagecache/io_controller.hpp"

#include <algorithm>
#include <cmath>

#include "util/log.hpp"

namespace pcs::cache {

namespace {
constexpr double kEps = 1e-3;
// Backoff for the Algorithm 3 loop when a writer transiently cannot make
// progress (all memory claimed by concurrent actors); real writers block in
// balance_dirty_pages for similar periods.
constexpr double kWriterBackoff = 1e-3;
constexpr int kMaxStalledIterations = 100000;
}  // namespace

IOController::IOController(sim::Engine& engine, CacheMode mode, MemoryManager* mm,
                           BackingStore& store)
    : engine_(engine), mode_(mode), mm_(mm), store_(store) {
  if (mode != CacheMode::None && mm == nullptr) {
    throw CacheError("IOController: cached modes require a MemoryManager");
  }
}

sim::Task<> IOController::read_file(FileName file, double file_size, double chunk_size) {
  if (file_size <= 0.0) co_return;
  if (chunk_size <= 0.0) chunk_size = file_size;
  if (mode_ == CacheMode::None) {
    // Cacheless baseline: every byte at raw disk bandwidth, no memory model.
    double remaining = file_size;
    while (remaining > kEps) {
      double cs = std::min(chunk_size, remaining);
      co_await store_.read(file.str(), cs);
      remaining -= cs;
    }
    co_return;
  }
  double remaining = file_size;
  while (remaining > kEps) {
    double cs = std::min(chunk_size, remaining);
    co_await read_chunk(file, file_size, cs);
    remaining -= cs;
  }
}

sim::Task<> IOController::read_chunk(FileName file, double file_size, double cs) {
  // Algorithm 2.  Round-robin access order means uncached data is consumed
  // before cached data, so the uncached remainder of the file is what disk
  // reads draw from.
  double disk_read = std::min(cs, std::max(0.0, file_size - mm_->cached(file)));
  double cache_read = cs - disk_read;
  double required_mem = cs + disk_read;  // chunk copy in anon + copy in cache

  // Make room: flush enough that free + evictable covers the requirement,
  // then evict to actually free the memory.  Both skip the file being read.
  co_await mm_->flush(required_mem - mm_->free_mem() - mm_->evictable(file), file);
  mm_->evict(required_mem - mm_->free_mem(), file);

  if (disk_read > kEps) {
    co_await store_.read(file.str(), disk_read);
    mm_->add_to_cache(file, disk_read);
  }
  if (cache_read > kEps) {
    double served = co_await mm_->read_from_cache(file, cache_read);
    double shortfall = cache_read - served;
    if (shortfall > kEps) {
      // A concurrent application evicted part of this file between planning
      // and reading; fault the remainder in from disk.
      co_await store_.read(file.str(), shortfall);
      mm_->add_to_cache(file, shortfall);
    }
  }
  // Direct reclaim for the application's copy if concurrent actors consumed
  // the headroom, excluding the file being read (evicting it here would
  // force later chunks of this very read back to disk).
  if (mm_->free_mem() < cs - kEps) {
    co_await mm_->flush(cs - mm_->free_mem() - mm_->evictable(file), file);
    mm_->evict(cs - mm_->free_mem(), file);
  }
  mm_->allocate_anonymous(cs);
}

sim::Task<> IOController::write_file(FileName file, double size, double chunk_size) {
  if (size <= 0.0) co_return;
  if (chunk_size <= 0.0) chunk_size = size;
  double remaining = size;
  while (remaining > kEps) {
    double cs = std::min(chunk_size, remaining);
    switch (mode_) {
      case CacheMode::None:
      case CacheMode::ReadCache: co_await store_.write(file.str(), cs); break;
      case CacheMode::Writeback: co_await write_chunk_writeback(file, cs); break;
      case CacheMode::Writethrough: co_await write_chunk_writethrough(file, cs); break;
    }
    remaining -= cs;
  }
}

sim::Task<> IOController::write_chunk_writeback(FileName file, double cs) {
  // Algorithm 3.
  double mem_amt = 0.0;
  double remain_dirty = mm_->dirty_limit() - mm_->dirty();
  if (remain_dirty > 0.0) {  // below the dirty threshold: write to memory
    mm_->evict(std::min(cs, remain_dirty) - mm_->free_mem());
    mem_amt = std::min(cs, mm_->free_mem());
    co_await mm_->write_to_cache(file, mem_amt);
  }
  double remaining = cs - mem_amt;
  int stalled = 0;
  while (remaining > kEps) {  // dirty threshold reached: flush, then write
    co_await mm_->flush(cs - mem_amt);
    mm_->evict(cs - mem_amt - mm_->free_mem());
    double to_cache = std::min(remaining, mm_->free_mem());
    if (to_cache > kEps) {
      co_await mm_->write_to_cache(file, to_cache);
      remaining -= to_cache;
      stalled = 0;
      continue;
    }
    // No progress: either concurrent writers hold all reclaimable memory
    // for an instant, or memory is genuinely exhausted by anonymous pages.
    if (mm_->dirty() <= kEps && mm_->evictable() <= kEps && mm_->free_mem() <= kEps) {
      throw CacheError("write to '" + file.str() + "': out of memory (" +
                       std::to_string(mm_->anonymous()) + " bytes anonymous, nothing to flush" +
                       " or evict)");
    }
    if (++stalled > kMaxStalledIterations) {
      throw CacheError("write to '" + file.str() + "': writer stalled (livelock)");
    }
    co_await engine_.sleep(kWriterBackoff);
  }
}

sim::Task<> IOController::write_chunk_writethrough(FileName file, double cs) {
  // Writethrough: the disk write is synchronous; the written data then
  // populates the cache (clean — it is already persistent) so later reads
  // can hit (paper Section III.B, last paragraph).
  co_await store_.write(file.str(), cs);
  mm_->evict(cs - mm_->free_mem());
  mm_->add_to_cache(file, cs, /*dirty=*/false);
}

}  // namespace pcs::cache
