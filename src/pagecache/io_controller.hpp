// The I/O Controller (paper Section III.B).
//
// Applications send chunk-by-chunk file read/write requests here; the
// controller orchestrates flushing, eviction, cache accesses and disk
// transfers with the Memory Manager:
//   * reads follow Algorithm 2 (uncached data first, then cached data,
//     anonymous memory charged per chunk),
//   * writeback writes follow Algorithm 3 (dirty-ratio gate, then a
//     flush/evict/write loop),
//   * writethrough writes go synchronously to disk, then populate the
//     cache,
//   * CacheMode::None bypasses memory entirely — the original-WRENCH
//     cacheless baseline the paper compares against.
#pragma once

#include <string>

#include "pagecache/backing_store.hpp"
#include "pagecache/kernel_params.hpp"
#include "pagecache/memory_manager.hpp"
#include "simcore/engine.hpp"
#include "simcore/task.hpp"

namespace pcs::cache {

class IOController {
 public:
  /// `mm` may be null only for CacheMode::None.
  IOController(sim::Engine& engine, CacheMode mode, MemoryManager* mm, BackingStore& store);

  [[nodiscard]] CacheMode mode() const { return mode_; }
  [[nodiscard]] MemoryManager* memory_manager() const { return mm_; }

  /// Read a whole file of `file_size` bytes in chunks of `chunk_size`
  /// (the paper's round-robin chunk accesses).  Charges `file_size` of
  /// anonymous memory in cached modes (the application's copy of the data).
  /// The name is interned once here and the id passed down the chunk loop.
  [[nodiscard]] sim::Task<> read_file(FileName file, double file_size, double chunk_size);

  /// Write `size` new bytes to `file` in chunks of `chunk_size`.  The
  /// written data is assumed uncached (paper Section III.A.2).
  [[nodiscard]] sim::Task<> write_file(FileName file, double size, double chunk_size);

 private:
  [[nodiscard]] sim::Task<> read_chunk(FileName file, double file_size, double cs);
  [[nodiscard]] sim::Task<> write_chunk_writeback(FileName file, double cs);
  [[nodiscard]] sim::Task<> write_chunk_writethrough(FileName file, double cs);

  sim::Engine& engine_;
  CacheMode mode_;
  MemoryManager* mm_;
  BackingStore& store_;
};

}  // namespace pcs::cache
