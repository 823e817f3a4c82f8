// Interned file names for the page-cache bookkeeping.
//
// A FileName is a 4-byte id into a thread-local intern table: the first
// time a name is seen it gets the next id, and every later FileName built
// from the same characters gets the same id.  Blocks, per-file accounts and
// exclusion tests then compare and index by integer instead of hashing,
// copying and comparing std::strings.
//
// Id 0 is "no file" and is what the empty string interns to, so the
// historical `exclude_file = ""` default reads as a default-constructed
// FileName.
//
// The table is thread-local, like the coroutine frame pool: one engine runs
// per thread, and an id is meaningful only on the thread that interned it.
// Never hand a FileName (or a DataBlock holding one) to another thread; pass
// the name string instead.  Interned names are never released, so str()
// references stay valid for the thread's lifetime.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace pcs::cache {

class FileName {
 public:
  /// "No file" (id 0).
  FileName() = default;
  FileName(const std::string& name) : FileName(std::string_view(name)) {}  // NOLINT
  FileName(const char* name) : FileName(std::string_view(name)) {}         // NOLINT
  explicit FileName(std::string_view name);

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] bool empty() const { return id_ == 0; }
  /// The interned name; "" for id 0.
  [[nodiscard]] const std::string& str() const;

  friend bool operator==(FileName a, FileName b) { return a.id_ == b.id_; }
  friend bool operator!=(FileName a, FileName b) { return a.id_ != b.id_; }
  friend std::ostream& operator<<(std::ostream& os, FileName f);

 private:
  std::uint32_t id_ = 0;
};

}  // namespace pcs::cache
