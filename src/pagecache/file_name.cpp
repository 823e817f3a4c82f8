#include "pagecache/file_name.hpp"

#include <deque>
#include <ostream>
#include <unordered_map>

namespace pcs::cache {

namespace {

struct NameTable {
  /// id -> name.  A deque never moves its elements, so the string_view keys
  /// of `ids` and the references str() hands out stay valid.
  std::deque<std::string> names{std::string()};
  std::unordered_map<std::string_view, std::uint32_t> ids;

  static NameTable& instance() {
    thread_local NameTable table;
    return table;
  }
};

}  // namespace

FileName::FileName(std::string_view name) {
  if (name.empty()) return;
  NameTable& t = NameTable::instance();
  auto it = t.ids.find(name);
  if (it != t.ids.end()) {
    id_ = it->second;
    return;
  }
  id_ = static_cast<std::uint32_t>(t.names.size());
  t.ids.emplace(t.names.emplace_back(name), id_);
}

const std::string& FileName::str() const { return NameTable::instance().names[id_]; }

std::ostream& operator<<(std::ostream& os, FileName f) { return os << f.str(); }

}  // namespace pcs::cache
