#include "storage/nfs.hpp"

#include <algorithm>

namespace pcs::storage {

namespace {
constexpr double kEps = 1e-3;
}

// --- NfsServer --------------------------------------------------------------

NfsServer::NfsServer(sim::Engine& engine, plat::Host& host, plat::Disk& disk,
                     cache::CacheMode mode, const cache::CacheParams& params,
                     double mem_for_cache, double fs_capacity)
    : engine_(engine),
      host_(host),
      disk_(disk),
      mode_(mode),
      fs_(fs_capacity),
      raw_store_(*this) {
  if (mode != cache::CacheMode::None && mode != cache::CacheMode::Writethrough) {
    throw StorageError("NfsServer: server cache must be None or Writethrough");
  }
  if (mode == cache::CacheMode::Writethrough) {
    double mem = mem_for_cache > 0.0 ? mem_for_cache : host.ram();
    mm_ = std::make_unique<cache::MemoryManager>(engine, params, mem, host.mem_read_channel(),
                                                 host.mem_write_channel(), raw_store_);
  }
}

sim::Task<> NfsServer::RawStore::read(const std::string& file, double bytes) {
  if (bytes <= 0.0) co_return;
  plat::Disk& disk = server_.disk_;
  if (disk.latency() > 0.0) co_await server_.engine_.sleep(disk.latency());
  co_await server_.engine_.submit("nfs-srv-disk-read:" + file, sim::one(disk.read_channel()),
                                  bytes);
}

sim::Task<> NfsServer::RawStore::write(const std::string& file, double bytes) {
  if (bytes <= 0.0) co_return;
  plat::Disk& disk = server_.disk_;
  if (disk.latency() > 0.0) co_await server_.engine_.sleep(disk.latency());
  co_await server_.engine_.submit("nfs-srv-disk-write:" + file, sim::one(disk.write_channel()),
                                  bytes);
}

cache::CacheSnapshot NfsServer::snapshot() const {
  if (!mm_) throw StorageError("NfsServer::snapshot: cacheless server has no memory state");
  return mm_->snapshot();
}

void NfsServer::warm_file(const std::string& name) {
  const double size = fs_.size_of(name);  // throws if absent
  if (!mm_) return;
  const cache::FileName id = name;
  const double already = mm_->cached(id);
  if (size - already <= 0.0) return;
  mm_->evict(size - already - mm_->free_mem());
  mm_->add_to_cache(id, size - already, /*dirty=*/false);
}

// --- NfsMount ----------------------------------------------------------------

NfsMount::NfsMount(sim::Engine& engine, plat::Host& client, NfsServer& server,
                   const plat::Route& route, cache::CacheMode client_mode,
                   const cache::CacheParams& params, double mem_for_cache)
    : engine_(engine), client_(client), server_(server), route_(route) {
  if (client_mode != cache::CacheMode::None) {
    double mem = mem_for_cache > 0.0 ? mem_for_cache : client.ram();
    mm_ = std::make_unique<cache::MemoryManager>(engine, params, mem, client.mem_read_channel(),
                                                 client.mem_write_channel(), *this);
  }
  io_ = std::make_unique<cache::IOController>(engine, client_mode, mm_.get(), *this);
}

std::vector<sim::Claim> NfsMount::route_claims() const {
  std::vector<sim::Claim> claims;
  claims.reserve(route_.links.size());
  for (plat::Link* link : route_.links) claims.push_back({link->channel(), 1.0});
  return claims;
}

std::vector<sim::Claim> NfsMount::with_route(sim::Resource* device) const {
  std::vector<sim::Claim> claims = route_claims();
  claims.push_back({device, 1.0});
  return claims;
}

sim::Task<> NfsMount::read_file(const std::string& name, double chunk_size) {
  const double size = server_.fs().size_of(name);
  note_app_read(size);
  co_await io_->read_file(name, size, chunk_size);
}

sim::Task<> NfsMount::write_file(const std::string& name, double size, double chunk_size) {
  server_.fs().ensure_size(name, size);
  note_app_write(size);
  co_await io_->write_file(name, size, chunk_size);
}

void NfsMount::release_anonymous(double bytes) {
  if (mm_) mm_->release_anonymous(bytes);
}

void NfsMount::start_periodic_flush() {
  if (mm_) mm_->start_periodic_flush("periodic-flush:nfs-client");
}

sim::Task<> NfsMount::sync_file(const std::string& name) {
  (void)server_.fs().size_of(name);  // throws if absent
  if (mm_) co_await mm_->fsync(name);
}

void NfsMount::remove_file(const std::string& name) {
  server_.fs().remove(name);
  const cache::FileName id = name;
  if (mm_) mm_->drop_file(id);
  if (cache::MemoryManager* srv = server_.memory_manager()) srv->drop_file(id);
}

sim::Task<> NfsMount::read(const std::string& file, double bytes) {
  // A client-side miss: fetch `bytes` of `file` from the server.  The
  // server serves from its own page cache first-miss-then-hit in the same
  // round-robin spirit as Algorithm 2.
  if (bytes <= 0.0) co_return;
  if (route_.latency() > 0.0) co_await engine_.sleep(route_.latency());

  cache::MemoryManager* srv_mm = server_.memory_manager();
  if (srv_mm == nullptr) {
    co_await engine_.submit("nfs-read:" + file, with_route(server_.disk().read_channel()), bytes);
    co_return;
  }
  const double file_size = server_.fs().size_of(file);
  const cache::FileName id = file;  // interned once for the server-cache calls
  const double srv_uncached = std::min(bytes, std::max(0.0, file_size - srv_mm->cached(id)));
  double srv_hit = bytes - srv_uncached;

  if (srv_uncached > kEps) {
    // Server reads from its disk while streaming to the client: one flow
    // claiming disk and route, progressing at the bottleneck share.
    co_await engine_.submit("nfs-read-miss:" + file,
                            with_route(server_.disk().read_channel()), srv_uncached);
    srv_mm->evict(srv_uncached - srv_mm->free_mem());
    srv_mm->add_to_cache(id, srv_uncached);
  }
  if (srv_hit > kEps) {
    const double served = srv_mm->touch_cached(id, srv_hit);
    if (served > kEps) {
      co_await engine_.submit("nfs-read-hit:" + file,
                              with_route(server_.host().mem_read_channel()), served);
    }
    const double shortfall = srv_hit - served;
    if (shortfall > kEps) {
      co_await engine_.submit("nfs-read-miss:" + file,
                              with_route(server_.disk().read_channel()), shortfall);
      srv_mm->evict(shortfall - srv_mm->free_mem());
      srv_mm->add_to_cache(id, shortfall);
    }
  }
}

sim::Task<> NfsMount::write(const std::string& file, double bytes) {
  // Client writes reach the server synchronously (writethrough server /
  // sync NFS): one composite flow over the route and the server disk, so
  // the transfer proceeds at disk bandwidth when the network is faster
  // (Exp 3: "all the writes happened at disk bandwidth").
  if (bytes <= 0.0) co_return;
  if (route_.latency() > 0.0) co_await engine_.sleep(route_.latency());
  co_await engine_.submit("nfs-write:" + file, with_route(server_.disk().write_channel()), bytes);

  cache::MemoryManager* srv_mm = server_.memory_manager();
  if (srv_mm != nullptr) {
    // Writethrough: the written (now persistent) data populates the server
    // cache as clean blocks so subsequent reads can hit.
    srv_mm->evict(bytes - srv_mm->free_mem());
    srv_mm->add_to_cache(file, bytes, /*dirty=*/false);
  }
}

}  // namespace pcs::storage
