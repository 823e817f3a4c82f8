// Data blocks: the unit of cached data in the paper's model (Section III.A.1).
//
// "A data block is a subset of file pages stored in page cache that were
// accessed in the same I/O operation.  A data block stores the file name,
// block size, last access time, a dirty flag ... and an entry (creation)
// time.  Blocks can have different sizes and a given file can have multiple
// data blocks in page cache.  In addition, a data block can be split into an
// arbitrary number of smaller blocks."
#pragma once

#include <cstdint>

#include "pagecache/file_name.hpp"

namespace pcs::cache {

struct DataBlock {
  std::uint64_t id = 0;       ///< Unique identity, stable across list moves.
  double size = 0.0;          ///< Bytes.
  double entry_time = 0.0;    ///< Creation time; drives dirty expiration.
  double last_access = 0.0;   ///< Drives LRU ordering.
  FileName file;              ///< Owning file (interned name).
  bool dirty = false;         ///< True until flushed to the backing store.

  /// A dirty block is expired once it has been dirty in cache longer than
  /// the configured expiration time (periodical flushing, Algorithm 1).
  [[nodiscard]] bool expired(double now, double expire_after) const {
    return dirty && (now - entry_time) > expire_after;
  }
};

}  // namespace pcs::cache
