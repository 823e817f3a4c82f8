#include "pagecache/lru_list.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

namespace pcs::cache {

namespace {
// Byte accounting tolerance: amounts are doubles and accumulate rounding
// noise over many split/merge cycles; anything under a milli-byte is zero.
constexpr double kEps = 1e-3;
// Spacing between order keys after a renumber/append, leaving room for ~50
// fractional insertions between any adjacent pair before renumbering.
constexpr double kKeyGap = 1.0;
}  // namespace

std::uint32_t LruList::alloc_node(const DataBlock& block) {
  std::uint32_t idx;
  if (free_head_ != kNil) {
    idx = free_head_;
    free_head_ = slab_[idx].next;
    static_cast<DataBlock&>(slab_[idx]) = block;
  } else {
    idx = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back(block);
  }
  Node& n = slab_[idx];
  n.order_key = 0.0;
  n.prev = n.next = kNil;
  n.cat_prev = n.cat_next = kNil;
  n.file_prev = n.file_next = kNil;
  return idx;
}

void LruList::release_node(std::uint32_t idx) {
  slab_[idx].next = free_head_;
  free_head_ = idx;
}

void LruList::main_link_before(std::uint32_t idx, std::uint32_t pos) {
  Node& n = slab_[idx];
  const std::uint32_t before = pos == kNil ? tail_ : slab_[pos].prev;
  n.prev = before;
  n.next = pos;
  if (before == kNil) {
    head_ = idx;
  } else {
    slab_[before].next = idx;
  }
  if (pos == kNil) {
    tail_ = idx;
  } else {
    slab_[pos].prev = idx;
  }
  ++count_;
}

void LruList::main_unlink(std::uint32_t idx) {
  Node& n = slab_[idx];
  if (n.prev == kNil) {
    head_ = n.next;
  } else {
    slab_[n.prev].next = n.next;
  }
  if (n.next == kNil) {
    tail_ = n.prev;
  } else {
    slab_[n.next].prev = n.prev;
  }
  n.prev = n.next = kNil;
  --count_;
}

std::uint32_t LruList::find_insert_pos(double access) const {
  // First node strictly newer than `access` (FIFO among equal times).
  // Last-access times are non-decreasing along the chain, so walking
  // backward from the tail and forward from the head in lockstep finds the
  // position in O(min(distance from either end)) — O(1) for the dominant
  // append-at-tail case and for head-side demotions alike.
  std::uint32_t b = tail_;
  std::uint32_t f = head_;
  while (true) {
    if (b == kNil || slab_[b].last_access <= access) {
      return b == kNil ? head_ : slab_[b].next;
    }
    if (f == kNil || slab_[f].last_access > access) return f;
    b = slab_[b].prev;
    f = slab_[f].next;
  }
}

template <std::uint32_t LruList::Node::*Prev, std::uint32_t LruList::Node::*Next>
void LruList::chain_insert_ordered(std::uint32_t& chain_head, std::uint32_t& chain_tail,
                                   std::uint32_t idx) {
  // Order keys are unique, so the position is the first chain node with a
  // larger key; same two-ended walk as find_insert_pos.
  const double key = slab_[idx].order_key;
  std::uint32_t b = chain_tail;
  std::uint32_t f = chain_head;
  std::uint32_t pos;
  while (true) {
    if (b == kNil || slab_[b].order_key < key) {
      pos = b == kNil ? chain_head : slab_[b].*Next;
      break;
    }
    if (f == kNil || slab_[f].order_key > key) {
      pos = f;
      break;
    }
    b = slab_[b].*Prev;
    f = slab_[f].*Next;
  }
  Node& n = slab_[idx];
  const std::uint32_t before = pos == kNil ? chain_tail : slab_[pos].*Prev;
  n.*Prev = before;
  n.*Next = pos;
  if (before == kNil) {
    chain_head = idx;
  } else {
    slab_[before].*Next = idx;
  }
  if (pos == kNil) {
    chain_tail = idx;
  } else {
    slab_[pos].*Prev = idx;
  }
}

template <std::uint32_t LruList::Node::*Prev, std::uint32_t LruList::Node::*Next>
void LruList::chain_remove(std::uint32_t& chain_head, std::uint32_t& chain_tail,
                           std::uint32_t idx) {
  Node& n = slab_[idx];
  if (n.*Prev == kNil) {
    chain_head = n.*Next;
  } else {
    slab_[n.*Prev].*Next = n.*Next;
  }
  if (n.*Next == kNil) {
    chain_tail = n.*Prev;
  } else {
    slab_[n.*Next].*Prev = n.*Prev;
  }
  n.*Prev = n.*Next = kNil;
}

LruList::FileAccount& LruList::account(FileName file) {
  if (file.id() >= files_.size()) files_.resize(file.id() + 1);
  FileAccount& acct = files_[file.id()];
  acct.file = file;
  return acct;
}

const LruList::FileAccount* LruList::find_account(FileName file) const {
  return file.id() < files_.size() ? &files_[file.id()] : nullptr;
}

void LruList::release_if_drained(FileAccount& acct) {
  // Reset, never keep the sub-kEps residue: a refill must start from 0.0
  // exactly as a freshly created account does.
  if (acct.bytes <= kEps && acct.dirty_count == 0) acct = FileAccount{};
}

void LruList::account_add(const DataBlock& b) {
  total_ += b.size;
  FileAccount& acct = account(b.file);
  acct.bytes += b.size;
  if (b.dirty) {
    dirty_ += b.size;
    acct.dirty_bytes += b.size;
  }
}

void LruList::account_remove(const DataBlock& b) {
  total_ -= b.size;
  if (b.dirty) dirty_ -= b.size;
  if (b.file.id() < files_.size()) {
    FileAccount& acct = files_[b.file.id()];
    acct.bytes -= b.size;
    if (b.dirty) acct.dirty_bytes -= b.size;
    if (acct.dirty_bytes < kEps) acct.dirty_bytes = 0.0;
    release_if_drained(acct);
  }
  if (total_ < kEps) total_ = 0.0;
  if (dirty_ < kEps) dirty_ = 0.0;
}

void LruList::index_add(std::uint32_t idx) {
  Node& n = slab_[idx];
  by_id_.put(n.id, idx);
  if (n.dirty) {
    chain_insert_ordered<&Node::cat_prev, &Node::cat_next>(dirty_head_, dirty_tail_, idx);
    FileAccount& acct = account(n.file);
    chain_insert_ordered<&Node::file_prev, &Node::file_next>(acct.dirty_head, acct.dirty_tail,
                                                             idx);
    ++acct.dirty_count;
  } else {
    chain_insert_ordered<&Node::cat_prev, &Node::cat_next>(clean_head_, clean_tail_, idx);
  }
}

void LruList::index_remove(std::uint32_t idx) {
  Node& n = slab_[idx];
  by_id_.erase(n.id, idx);
  if (n.dirty) {
    chain_remove<&Node::cat_prev, &Node::cat_next>(dirty_head_, dirty_tail_, idx);
    if (n.file.id() < files_.size()) {
      FileAccount& acct = files_[n.file.id()];
      chain_remove<&Node::file_prev, &Node::file_next>(acct.dirty_head, acct.dirty_tail, idx);
      --acct.dirty_count;
      release_if_drained(acct);
    }
  } else {
    chain_remove<&Node::cat_prev, &Node::cat_next>(clean_head_, clean_tail_, idx);
  }
}

void LruList::assign_order_key(std::uint32_t idx) {
  Node& n = slab_[idx];
  const bool has_prev = n.prev != kNil;
  const bool has_next = n.next != kNil;
  const double prev_key = has_prev ? slab_[n.prev].order_key : 0.0;
  const double next_key = has_next ? slab_[n.next].order_key : 0.0;
  if (!has_prev && !has_next) {
    n.order_key = 0.0;
    return;
  }
  if (!has_next) {
    n.order_key = prev_key + kKeyGap;
    return;
  }
  if (!has_prev) {
    n.order_key = next_key - kKeyGap;
    return;
  }
  const double mid = prev_key + (next_key - prev_key) / 2.0;
  if (mid > prev_key && mid < next_key) {
    n.order_key = mid;
    return;
  }
  // Fractional precision exhausted between these neighbours: renumber the
  // whole list (relative order of every node is unchanged, so the chains
  // remain valid) and land exactly between the fresh keys.
  renumber_keys();
  n.order_key = slab_[n.prev].order_key + kKeyGap / 2.0;
}

void LruList::renumber_keys() {
  double key = 0.0;
  for (std::uint32_t i = head_; i != kNil; i = slab_[i].next) {
    slab_[i].order_key = key;
    key += kKeyGap;
  }
}

std::uint32_t LruList::emplace_node(std::uint32_t pos, const DataBlock& block) {
  const std::uint32_t idx = alloc_node(block);
  main_link_before(idx, pos);
  assign_order_key(idx);
  index_add(idx);
  return idx;
}

LruList::iterator LruList::insert(DataBlock block) {
  account_add(block);
  const std::uint32_t pos = find_insert_pos(block.last_access);
  return {this, emplace_node(pos, block)};
}

DataBlock LruList::extract(iterator it) {
  const std::uint32_t idx = it.idx_;
  account_remove(slab_[idx]);
  index_remove(idx);
  main_unlink(idx);
  DataBlock block = slab_[idx];
  release_node(idx);
  return block;
}

void LruList::erase(iterator it) {
  const std::uint32_t idx = it.idx_;
  account_remove(slab_[idx]);
  index_remove(idx);
  main_unlink(idx);
  release_node(idx);
}

void LruList::touch(iterator it, double now) {
  Node& n = *it;
  if (now == n.last_access) return;  // stable-position fast path: no-op
  const bool prev_ok = n.prev == kNil || slab_[n.prev].last_access <= now;
  const bool next_ok = n.next == kNil || slab_[n.next].last_access > now;
  if (prev_ok && next_ok) {
    // Position stays valid: update in place.  The chains order by
    // order_key, which is untouched, and access-time probes stay monotone.
    n.last_access = now;
    return;
  }
  DataBlock block = extract(it);
  block.last_access = now;
  insert(block);
}

std::pair<LruList::iterator, LruList::iterator> LruList::split(iterator it, double first_size,
                                                               std::uint64_t second_id) {
  const std::uint32_t idx = it.idx_;
  if (!(first_size > 0.0) || !(first_size < slab_[idx].size)) {
    throw std::invalid_argument("LruList::split: first_size out of (0, size)");
  }
  DataBlock second = slab_[idx];
  second.id = second_id;
  second.size = slab_[idx].size - first_size;
  // In-place shrink of the first part keeps accounting exact.
  resize(it, first_size);
  account_add(second);
  const std::uint32_t second_idx = emplace_node(slab_[idx].next, second);
  return {iterator{this, idx}, iterator{this, second_idx}};
}

void LruList::set_dirty(iterator it, bool dirty) {
  if (it->dirty == dirty) return;
  const std::uint32_t idx = it.idx_;
  Node& n = slab_[idx];
  FileAccount& acct = account(n.file);
  if (n.dirty) {
    dirty_ -= n.size;
    acct.dirty_bytes -= n.size;
    if (dirty_ < kEps) dirty_ = 0.0;
    if (acct.dirty_bytes < kEps) acct.dirty_bytes = 0.0;
    chain_remove<&Node::cat_prev, &Node::cat_next>(dirty_head_, dirty_tail_, idx);
    chain_remove<&Node::file_prev, &Node::file_next>(acct.dirty_head, acct.dirty_tail, idx);
    --acct.dirty_count;
    n.dirty = false;
    chain_insert_ordered<&Node::cat_prev, &Node::cat_next>(clean_head_, clean_tail_, idx);
  } else {
    dirty_ += n.size;
    acct.dirty_bytes += n.size;
    chain_remove<&Node::cat_prev, &Node::cat_next>(clean_head_, clean_tail_, idx);
    n.dirty = true;
    chain_insert_ordered<&Node::cat_prev, &Node::cat_next>(dirty_head_, dirty_tail_, idx);
    chain_insert_ordered<&Node::file_prev, &Node::file_next>(acct.dirty_head, acct.dirty_tail,
                                                             idx);
    ++acct.dirty_count;
  }
}

void LruList::resize(iterator it, double new_size) {
  Node& n = *it;
  double delta = new_size - n.size;
  total_ += delta;
  FileAccount& acct = account(n.file);
  acct.bytes += delta;
  if (n.dirty) {
    dirty_ += delta;
    acct.dirty_bytes += delta;
    if (acct.dirty_bytes < kEps) acct.dirty_bytes = 0.0;
  }
  n.size = new_size;
  if (total_ < kEps) total_ = 0.0;
  if (dirty_ < kEps) dirty_ = 0.0;
}

double LruList::file_bytes(FileName file) const {
  const FileAccount* acct = find_account(file);
  return acct == nullptr ? 0.0 : acct->bytes;
}

std::map<std::string, double> LruList::per_file() const {
  std::map<std::string, double> out;
  for (const FileAccount& acct : files_) {
    if (acct.bytes > 0.0) out[acct.file.str()] = acct.bytes;
  }
  return out;
}

double LruList::clean_excluding(FileName exclude_file) const {
  double clean = clean_total();
  if (exclude_file.empty()) return clean;
  const FileAccount* acct = find_account(exclude_file);
  if (acct == nullptr) return clean;
  return clean - (acct->bytes - acct->dirty_bytes);
}

LruList::iterator LruList::lru_dirty(FileName exclude_file) {
  for (std::uint32_t i = dirty_head_; i != kNil; i = slab_[i].cat_next) {
    if (exclude_file.empty() || slab_[i].file != exclude_file) return {this, i};
  }
  return end();
}

LruList::iterator LruList::lru_clean(FileName exclude_file) {
  for (std::uint32_t i = clean_head_; i != kNil; i = slab_[i].cat_next) {
    if (exclude_file.empty() || slab_[i].file != exclude_file) return {this, i};
  }
  return end();
}

LruList::iterator LruList::lru_dirty_of(FileName file) {
  const FileAccount* acct = find_account(file);
  if (acct == nullptr || acct->dirty_head == kNil) return end();
  return {this, acct->dirty_head};
}

void LruList::append_expired(double now, double expire_after,
                             std::vector<std::uint64_t>& out) const {
  for (std::uint32_t i = dirty_head_; i != kNil; i = slab_[i].cat_next) {
    if (slab_[i].expired(now, expire_after)) out.push_back(slab_[i].id);
  }
}

LruList::iterator LruList::find(std::uint64_t id) {
  const std::uint32_t idx = by_id_.find(id);
  return idx == IdIndex::kNone ? end() : iterator{this, idx};
}

void LruList::check_invariants() const {
  double total = 0.0;
  double dirty = 0.0;
  std::map<std::uint32_t, double> per_file_bytes;  ///< keyed by FileName id
  std::map<std::uint32_t, double> per_file_dirty;
  std::map<std::uint32_t, std::size_t> per_file_dirty_count;
  std::size_t dirty_count = 0;
  std::size_t walked = 0;
  std::unordered_set<std::uint32_t> live;
  double prev_access = -std::numeric_limits<double>::infinity();
  double prev_key = -std::numeric_limits<double>::infinity();
  std::uint32_t expect_prev = kNil;
  for (std::uint32_t i = head_; i != kNil; i = slab_[i].next) {
    const Node& b = slab_[i];
    if (b.prev != expect_prev) throw std::logic_error("LruList: main-chain prev link drift");
    expect_prev = i;
    if (!live.insert(i).second) throw std::logic_error("LruList: main-chain cycle");
    if (++walked > count_) throw std::logic_error("LruList: main chain longer than count");
    if (b.size <= 0.0) throw std::logic_error("LruList: non-positive block size");
    if (b.last_access < prev_access - 1e-12) {
      throw std::logic_error("LruList: blocks not ordered by last access");
    }
    if (b.order_key <= prev_key) {
      throw std::logic_error("LruList: order keys not strictly increasing");
    }
    prev_access = b.last_access;
    prev_key = b.order_key;
    total += b.size;
    if (b.dirty) {
      dirty += b.size;
      per_file_dirty[b.file.id()] += b.size;
      per_file_dirty_count[b.file.id()] += 1;
      ++dirty_count;
    }
    per_file_bytes[b.file.id()] += b.size;

    if (by_id_.find(b.id) != i) throw std::logic_error("LruList: id index drift");
  }
  if (walked != count_ || tail_ != expect_prev) {
    throw std::logic_error("LruList: main-chain length/tail drift");
  }
  if (by_id_.size() != count_) throw std::logic_error("LruList: id index cardinality drift");

  // Category chains: every member live, correct flag, ascending keys, and
  // cardinality matching the main-chain census (=> exact membership).
  auto walk_chain = [&](std::uint32_t chain_head, bool want_dirty, const FileName* want_file,
                        bool file_links) {
    std::size_t n = 0;
    double key = -std::numeric_limits<double>::infinity();
    std::unordered_set<std::uint32_t> seen;
    for (std::uint32_t i = chain_head; i != kNil;
         i = file_links ? slab_[i].file_next : slab_[i].cat_next) {
      if (!live.count(i)) throw std::logic_error("LruList: chain references dead slot");
      if (!seen.insert(i).second) throw std::logic_error("LruList: chain cycle");
      const Node& b = slab_[i];
      if (b.dirty != want_dirty) throw std::logic_error("LruList: chain dirty-flag drift");
      if (want_file != nullptr && b.file != *want_file) {
        throw std::logic_error("LruList: per-file chain file drift");
      }
      if (b.order_key <= key) throw std::logic_error("LruList: chain not in list order");
      key = b.order_key;
      ++n;
    }
    return n;
  };
  if (walk_chain(dirty_head_, true, nullptr, false) != dirty_count) {
    throw std::logic_error("LruList: dirty chain cardinality drift");
  }
  if (walk_chain(clean_head_, false, nullptr, false) != count_ - dirty_count) {
    throw std::logic_error("LruList: clean chain cardinality drift");
  }
  for (std::uint32_t id = 0; id < files_.size(); ++id) {
    const FileAccount& acct = files_[id];
    std::size_t expect = 0;
    auto cnt_it = per_file_dirty_count.find(id);
    if (cnt_it != per_file_dirty_count.end()) expect = cnt_it->second;
    if (expect > 0 && acct.file.id() != id) {
      throw std::logic_error("LruList: per-file account owner drift");
    }
    if (acct.dirty_count != expect ||
        walk_chain(acct.dirty_head, true, &acct.file, true) != expect) {
      throw std::logic_error("LruList: per-file dirty chain drift for " + acct.file.str());
    }
  }

  // Freelist: disjoint from the live set, and together they cover the slab.
  std::size_t free_count = 0;
  for (std::uint32_t i = free_head_; i != kNil; i = slab_[i].next) {
    if (live.count(i)) throw std::logic_error("LruList: freelist references live slot");
    if (++free_count > slab_.size()) throw std::logic_error("LruList: freelist cycle");
  }
  if (free_count + count_ != slab_.size()) {
    throw std::logic_error("LruList: slab slot census drift");
  }

  auto close = [](double a, double b) { return std::fabs(a - b) <= 1e-3 + 1e-9 * std::fabs(a); };
  if (!close(total, total_)) {
    std::ostringstream oss;
    oss << "LruList: total account drift (" << total_ << " vs " << total << ")";
    throw std::logic_error(oss.str());
  }
  if (!close(dirty, dirty_)) throw std::logic_error("LruList: dirty account drift");
  for (const auto& [id, bytes] : per_file_bytes) {
    const double have = id < files_.size() ? files_[id].bytes : 0.0;
    if (!close(bytes, have)) {
      throw std::logic_error("LruList: per-file account drift for file id " +
                             std::to_string(id));
    }
  }
  for (std::uint32_t id = 0; id < files_.size(); ++id) {
    const FileAccount& acct = files_[id];
    double expect_dirty = 0.0;
    auto dirty_it = per_file_dirty.find(id);
    if (dirty_it != per_file_dirty.end()) expect_dirty = dirty_it->second;
    if (!close(expect_dirty, acct.dirty_bytes)) {
      throw std::logic_error("LruList: per-file dirty account drift for " + acct.file.str());
    }
  }
}

}  // namespace pcs::cache
