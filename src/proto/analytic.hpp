// Analytic single-threaded prototype — the paper's Python prototype (pysim)
// rebuilt in C++ (Section III.C).
//
// No event engine, no bandwidth sharing: storage is the basic model
// t_r = D/b_r, t_w = D/b_w, and the simulation is a single clock that
// advances as the (single-threaded) application reads, computes and writes.
// The page-cache algorithms are the same as the full model's (two-list LRU
// of data blocks, Algorithms 2 and 3); the background flusher is modelled
// as expired dirty data draining at disk write bandwidth concurrently with
// the application (no sharing, per the prototype's simplification).
//
// It exists for the same reason the authors' prototype did: an independent
// implementation to cross-validate WRENCH-cache against ("the Python
// prototype and WRENCH-cache exhibited nearly identical memory profiles,
// which reinforces the confidence in our implementations").
#pragma once

#include <map>
#include <string>
#include <vector>

#include "pagecache/kernel_params.hpp"
#include "pagecache/lru_list.hpp"
#include "pagecache/memory_manager.hpp"  // cache::CacheSnapshot

namespace pcs::proto {

struct ProtoConfig {
  double total_mem = 0.0;
  double mem_read_bw = 0.0;
  double mem_write_bw = 0.0;
  double disk_read_bw = 0.0;
  double disk_write_bw = 0.0;
  cache::CacheParams cache;
};

class AnalyticSim {
 public:
  explicit AnalyticSim(const ProtoConfig& config);

  // --- application operations (each advances the clock) -------------------
  void stage_file(const std::string& name, double size);
  void read_file(const std::string& name, double chunk_size);
  void write_file(const std::string& name, double size, double chunk_size);
  void compute(double seconds);
  void release_anonymous(double bytes);

  [[nodiscard]] double now() const { return clock_; }
  [[nodiscard]] double file_size(const std::string& name) const;

  // --- state inspection ----------------------------------------------------
  [[nodiscard]] double cached() const { return inactive_.total() + active_.total(); }
  [[nodiscard]] double cached(cache::FileName file) const {
    return inactive_.file_bytes(file) + active_.file_bytes(file);
  }
  [[nodiscard]] double dirty() const {
    return inactive_.dirty_total() + active_.dirty_total();
  }
  [[nodiscard]] double anonymous() const { return anon_; }
  [[nodiscard]] double free_mem() const { return config_.total_mem - cached() - anon_; }
  [[nodiscard]] double dirty_limit() const {
    return config_.cache.dirty_ratio * config_.total_mem;
  }

  [[nodiscard]] cache::CacheSnapshot snapshot() const;
  /// Snapshots taken after every chunk and at compute boundaries.
  [[nodiscard]] const std::vector<cache::CacheSnapshot>& profile() const { return profile_; }

 private:
  void advance(double dt);
  /// Flush expired dirty blocks within the background budget accumulated
  /// since the last call (disk write bandwidth, overlapping the app).
  void background_flush();
  /// Synchronous flush of `amount` dirty bytes; advances the clock.
  /// Blocks of `exclude` are skipped (Algorithm 2 passes the file being
  /// read so its dirty blocks stay untouched).
  void flush_sync(double amount, cache::FileName exclude = {});
  void evict(double amount, cache::FileName exclude = {});
  [[nodiscard]] double evictable(cache::FileName exclude = {}) const {
    return inactive_.clean_excluding(exclude);
  }
  void balance_lists();
  double touch_cached(cache::FileName file, double amount);
  void add_to_cache(cache::FileName file, double amount);
  void read_chunk(cache::FileName file, double file_size, double cs);
  void write_chunk(cache::FileName file, double cs);
  void record() { profile_.push_back(snapshot()); }
  [[nodiscard]] std::uint64_t next_id() { return block_seq_++; }

  ProtoConfig config_;
  double clock_ = 0.0;
  double bg_budget_time_ = 0.0;  ///< clock of the last background catch-up
  double anon_ = 0.0;
  cache::LruList inactive_;
  cache::LruList active_;
  std::map<std::string, double> files_;
  std::vector<cache::CacheSnapshot> profile_;
  std::uint64_t block_seq_ = 1;
};

}  // namespace pcs::proto
