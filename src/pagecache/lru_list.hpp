// A page-cache LRU list of data blocks, ordered by last access time
// (earliest — least recently used — first), with O(1) byte accounting and
// indexed lookups.
//
// Two instances (inactive + active) form the kernel's two-list strategy in
// the MemoryManager.  Beyond the ordered block list itself, the list
// maintains:
//   * an id -> slot index, making find() O(1) (the periodic flusher
//     revalidates candidates by id across simulated awaits).  It is a flat
//     open-addressing table (IdIndex), so inserting or erasing a block
//     allocates nothing;
//   * dirty and clean chains ordered by list position, so lru_dirty()
//     and lru_clean() are O(1) head reads — and when an exclude_file is
//     given they skip only that file's blocks instead of scanning the list;
//   * per-file accounting with a dirty/clean byte split and a per-file
//     dirty chain, so file_bytes(), clean_excluding() and lru_dirty_of()
//     no longer scan (the round-robin read model of Figure 3 and fsync ask
//     these constantly).  Blocks name their file by interned FileName id,
//     and the accounts are a dense vector indexed by that id: no string is
//     hashed, copied or compared on any list operation.
//
// Storage is a freelist-backed slab (the atomkv cacher page_pool_ idiom):
// every node lives at a stable uint32 index in one contiguous vector, and
// the main list plus every index "set" is an intrusive doubly-linked chain
// of indices — no per-block heap node, no red-black tree, and erased slots
// recycle without touching the allocator.  Iterators wrap the slot index,
// so they survive slab growth and keep the std::list-era API (bidirectional,
// dereference to a DataBlock-compatible node, end() sentinel).
//
// Chain positions are ordered through a per-node `order_key`, a double that
// strictly increases along the main list.  Keys are assigned fractionally on
// insertion (midpoint of the neighbours); when the midpoint degenerates the
// whole list is renumbered, which preserves the relative order of every
// node and therefore every chain.  Ordered-chain insertion walks the chain
// from both ends at once, so the common cases — a fresh block appending at
// the tail, the flusher cleaning near the head — link in O(1).
#pragma once

#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "pagecache/block.hpp"
#include "pagecache/id_index.hpp"

namespace pcs::cache {

class LruList {
 public:
  /// Sentinel index: no node (the end() position and null chain links).
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// A stored block: the DataBlock payload plus the intrusive chain links.
  /// Public inheritance keeps the historical element API — iterators
  /// dereference to something usable as a DataBlock.
  struct Node : DataBlock {
    explicit Node(const DataBlock& b) : DataBlock(b) {}
    double order_key = 0.0;  ///< strictly increasing along the list
    std::uint32_t prev = kNil;       ///< main chain (also the freelist link)
    std::uint32_t next = kNil;
    std::uint32_t cat_prev = kNil;   ///< dirty- or clean-chain links
    std::uint32_t cat_next = kNil;
    std::uint32_t file_prev = kNil;  ///< per-file dirty-chain links
    std::uint32_t file_next = kNil;
  };

  class const_iterator;

  /// Bidirectional iterator over the main chain, wrapping a slot index.
  /// Stable across slab growth and unrelated insert/erase; invalidated only
  /// by erasing the referenced block (same contract as the std::list era).
  class iterator {
   public:
    using iterator_category = std::bidirectional_iterator_tag;
    using value_type = Node;
    using difference_type = std::ptrdiff_t;
    using pointer = Node*;
    using reference = Node&;

    iterator() = default;
    reference operator*() const { return list_->slab_[idx_]; }
    pointer operator->() const { return &list_->slab_[idx_]; }
    iterator& operator++() {
      idx_ = list_->slab_[idx_].next;
      return *this;
    }
    iterator operator++(int) {
      iterator tmp = *this;
      ++*this;
      return tmp;
    }
    iterator& operator--() {
      idx_ = idx_ == kNil ? list_->tail_ : list_->slab_[idx_].prev;
      return *this;
    }
    iterator operator--(int) {
      iterator tmp = *this;
      --*this;
      return tmp;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.idx_ == b.idx_ && a.list_ == b.list_;
    }
    friend bool operator!=(const iterator& a, const iterator& b) { return !(a == b); }

   private:
    friend class LruList;
    friend class const_iterator;
    iterator(LruList* list, std::uint32_t idx) : list_(list), idx_(idx) {}
    LruList* list_ = nullptr;
    std::uint32_t idx_ = kNil;
  };

  class const_iterator {
   public:
    using iterator_category = std::bidirectional_iterator_tag;
    using value_type = Node;
    using difference_type = std::ptrdiff_t;
    using pointer = const Node*;
    using reference = const Node&;

    const_iterator() = default;
    const_iterator(iterator it) : list_(it.list_), idx_(it.idx_) {}  // NOLINT
    reference operator*() const { return list_->slab_[idx_]; }
    pointer operator->() const { return &list_->slab_[idx_]; }
    const_iterator& operator++() {
      idx_ = list_->slab_[idx_].next;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator tmp = *this;
      ++*this;
      return tmp;
    }
    const_iterator& operator--() {
      idx_ = idx_ == kNil ? list_->tail_ : list_->slab_[idx_].prev;
      return *this;
    }
    const_iterator operator--(int) {
      const_iterator tmp = *this;
      --*this;
      return tmp;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.idx_ == b.idx_ && a.list_ == b.list_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return !(a == b);
    }

   private:
    friend class LruList;
    const_iterator(const LruList* list, std::uint32_t idx) : list_(list), idx_(idx) {}
    const LruList* list_ = nullptr;
    std::uint32_t idx_ = kNil;
  };

  LruList() = default;
  LruList(const LruList&) = delete;
  LruList& operator=(const LruList&) = delete;

  /// Insert keeping last-access order; among equal access times the new
  /// block goes last (FIFO), so same-instant insertions stay stable.
  iterator insert(DataBlock block);

  /// Remove and return a block.
  DataBlock extract(iterator it);

  /// Remove a block, dropping its bytes from the accounting.
  void erase(iterator it);

  /// Update a block's last access time and restore ordering.  A touch that
  /// does not change the access time, or that leaves the block's position
  /// valid (no follower is older than the new time), updates in place;
  /// otherwise the block is re-inserted and `it` is invalidated.
  void touch(iterator it, double now);

  /// Split the block at `it` into a leading part of `first_size` bytes and
  /// the remainder; both inherit all other attributes and keep the original
  /// position (adjacent).  Returns {first, second}.  first_size must be in
  /// (0, size).  The first part keeps the original id; the second gets
  /// `second_id`.
  std::pair<iterator, iterator> split(iterator it, double first_size, std::uint64_t second_id);

  /// Flip the dirty flag, maintaining the dirty-byte account and chains.
  void set_dirty(iterator it, bool dirty);

  /// Grow/shrink a block in place (used when merging reads).
  void resize(iterator it, double new_size);

  [[nodiscard]] iterator begin() { return {this, head_}; }
  [[nodiscard]] iterator end() { return {this, kNil}; }
  [[nodiscard]] const_iterator begin() const { return {this, head_}; }
  [[nodiscard]] const_iterator end() const { return {this, kNil}; }

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t block_count() const { return count_; }
  [[nodiscard]] double total() const { return total_; }
  [[nodiscard]] double dirty_total() const { return dirty_; }
  [[nodiscard]] double clean_total() const { return total_ - dirty_; }
  [[nodiscard]] double file_bytes(FileName file) const;
  /// Per-file byte totals (for cache-content probes, Fig 4c), ordered by
  /// file name so serialized output stays deterministic.
  [[nodiscard]] std::map<std::string, double> per_file() const;
  /// Clean bytes excluding one file (eviction candidates wrt. an
  /// exclusion).  O(1): per-file accounting keeps the dirty/clean split.
  [[nodiscard]] double clean_excluding(FileName exclude_file) const;

  /// Least recently used dirty block, or end().  Blocks of `exclude_file`
  /// are skipped; the default (no file) excludes nothing.
  [[nodiscard]] iterator lru_dirty(FileName exclude_file = {});
  /// Least recently used clean block, or end().
  [[nodiscard]] iterator lru_clean(FileName exclude_file = {});
  /// Least recently used dirty block belonging to `file`, or end() (fsync).
  [[nodiscard]] iterator lru_dirty_of(FileName file);

  /// Append the ids of the dirty blocks expired at `now` (see
  /// DataBlock::expired), in list order.  Walks only the dirty chain.
  void append_expired(double now, double expire_after, std::vector<std::uint64_t>& out) const;

  /// Find by block id (used by the periodic flusher to revalidate
  /// candidates across simulated awaits); end() if gone.  O(1).
  [[nodiscard]] iterator find(std::uint64_t id);

  /// Bytes reserved by the node slab (capacity, not live size — the slab
  /// never shrinks).  Reported by the alloc/* memory gauges.
  [[nodiscard]] std::size_t bytes_reserved() const {
    return slab_.capacity() * sizeof(Node);
  }
  /// Slots currently on the freelist (recycled, awaiting reuse).
  [[nodiscard]] std::size_t free_slots() const { return slab_.size() - count_; }

  /// Verify ordering, accounting, chain and freelist consistency; throws
  /// std::logic_error on violation.  Called explicitly by tests; internal
  /// hot-path self-checks compile in only with PCS_DEBUG_INVARIANTS.
  void check_invariants() const;

 private:
  /// One file's share of the list.  A slot whose bytes drained to at most
  /// kEps with no dirty block left is reset to this zeroed state, which
  /// every query treats as "file absent".
  struct FileAccount {
    double bytes = 0.0;
    double dirty_bytes = 0.0;
    std::uint32_t dirty_head = kNil;  ///< per-file dirty chain, list order
    std::uint32_t dirty_tail = kNil;
    std::uint32_t dirty_count = 0;
    FileName file;  ///< owner of this slot while present
  };

  std::vector<Node> slab_;
  std::uint32_t free_head_ = kNil;  ///< freelist through Node::next
  std::uint32_t head_ = kNil;       ///< main chain, LRU first
  std::uint32_t tail_ = kNil;
  std::uint32_t count_ = 0;
  std::uint32_t dirty_head_ = kNil;  ///< all dirty blocks, list order
  std::uint32_t dirty_tail_ = kNil;
  std::uint32_t clean_head_ = kNil;  ///< all clean blocks, list order
  std::uint32_t clean_tail_ = kNil;
  double total_ = 0.0;
  double dirty_ = 0.0;
  IdIndex by_id_;
  std::vector<FileAccount> files_;  ///< indexed by FileName id

  /// The account of `file`, growing the vector on first sight.
  FileAccount& account(FileName file);
  /// The account of `file`, or null if the vector has never reached it.
  [[nodiscard]] const FileAccount* find_account(FileName file) const;
  /// Reset the account to absent once its bytes drained with no dirty block.
  static void release_if_drained(FileAccount& acct);

  /// Claim a slot (freelist first) and copy `block` into it.
  std::uint32_t alloc_node(const DataBlock& block);
  /// Return a fully unlinked slot to the freelist.
  void release_node(std::uint32_t idx);
  /// Link `idx` into the main chain immediately before `pos` (kNil = tail).
  void main_link_before(std::uint32_t idx, std::uint32_t pos);
  void main_unlink(std::uint32_t idx);
  /// First main-chain node strictly newer than `access` (kNil = append);
  /// walks from both ends at once so either-end insertions are O(1).
  [[nodiscard]] std::uint32_t find_insert_pos(double access) const;
  /// Link `idx` into an order_key-sorted chain (dirty/clean/per-file) using
  /// the Prev/Next link members; two-ended walk like find_insert_pos.
  template <std::uint32_t Node::*Prev, std::uint32_t Node::*Next>
  void chain_insert_ordered(std::uint32_t& chain_head, std::uint32_t& chain_tail,
                            std::uint32_t idx);
  template <std::uint32_t Node::*Prev, std::uint32_t Node::*Next>
  void chain_remove(std::uint32_t& chain_head, std::uint32_t& chain_tail, std::uint32_t idx);

  void account_add(const DataBlock& b);
  void account_remove(const DataBlock& b);
  void index_add(std::uint32_t idx);
  void index_remove(std::uint32_t idx);
  /// Place a new node before `pos`, wiring links, order key and chains
  /// (shared by insert and split; accounting is the caller's job).
  std::uint32_t emplace_node(std::uint32_t pos, const DataBlock& block);
  /// Assign the (already main-linked) node an order key between its
  /// neighbours; renumbers all keys when midpoints degenerate.
  void assign_order_key(std::uint32_t idx);
  void renumber_keys();
};

}  // namespace pcs::cache
