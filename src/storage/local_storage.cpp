#include "storage/local_storage.hpp"

namespace pcs::storage {

LocalStorage::LocalStorage(sim::Engine& engine, plat::Host& host, plat::Disk& disk,
                           cache::CacheMode mode, const cache::CacheParams& params,
                           double mem_for_cache, double fs_capacity)
    : engine_(engine), disk_(disk), fs_(fs_capacity) {
  if (mode != cache::CacheMode::None) {
    // Every cached transfer runs over the memory channels; at zero
    // bandwidth it would never complete.
    if (!(host.spec().mem_read_bw > 0.0) || !(host.spec().mem_write_bw > 0.0)) {
      throw StorageError("page-cached storage on host '" + host.name() +
                         "' needs positive memory read_bw_MBps and write_bw_MBps");
    }
    double mem = mem_for_cache > 0.0 ? mem_for_cache : host.ram();
    mm_ = std::make_unique<cache::MemoryManager>(engine, params, mem, host.mem_read_channel(),
                                                 host.mem_write_channel(), *this);
  }
  io_ = std::make_unique<cache::IOController>(engine, mode, mm_.get(), *this);
}

sim::Task<> LocalStorage::read(const std::string& file, double bytes) {
  if (bytes <= 0.0) co_return;
  if (disk_.latency() > 0.0) co_await engine_.sleep(disk_.latency());
  co_await engine_.submit("disk-read:" + file, sim::one(disk_.read_channel()), bytes);
}

sim::Task<> LocalStorage::write(const std::string& file, double bytes) {
  if (bytes <= 0.0) co_return;
  if (disk_.latency() > 0.0) co_await engine_.sleep(disk_.latency());
  co_await engine_.submit("disk-write:" + file, sim::one(disk_.write_channel()), bytes);
}

sim::Task<> LocalStorage::read_file(const std::string& name, double chunk_size) {
  const double size = fs_.size_of(name);  // throws if absent
  note_app_read(size);
  co_await io_->read_file(name, size, chunk_size);
}

sim::Task<> LocalStorage::write_file(const std::string& name, double size, double chunk_size) {
  // Space is reserved up front; the transfer then proceeds chunk-wise (a
  // failed reservation should fail before any time is simulated).
  fs_.ensure_size(name, size);
  note_app_write(size);
  co_await io_->write_file(name, size, chunk_size);
}

sim::Task<> LocalStorage::sync_file(const std::string& name) {
  (void)fs_.size_of(name);  // throws if absent
  if (mm_) co_await mm_->fsync(name);
}

sim::Task<> LocalStorage::invalidate_file(const std::string& name) {
  (void)fs_.size_of(name);
  if (mm_) {
    co_await mm_->fsync(name);
    mm_->drop_file(name);
  }
}

void LocalStorage::remove_file(const std::string& name) {
  fs_.remove(name);
  if (mm_) mm_->drop_file(name);
}

void LocalStorage::release_anonymous(double bytes) {
  if (mm_) mm_->release_anonymous(bytes);
}

void LocalStorage::start_periodic_flush() {
  if (mm_) mm_->start_periodic_flush("periodic-flush:" + disk_.name());
}

cache::CacheSnapshot LocalStorage::snapshot() const {
  if (!mm_) throw StorageError("snapshot: cacheless storage has no memory state");
  return mm_->snapshot();
}

}  // namespace pcs::storage
