#include "platform/platform.hpp"

#include <utility>

#include "util/units.hpp"

namespace pcs::plat {

namespace {
// Memory bandwidths are optional, but a given one must be positive: a page
// cache on a zero-bandwidth bus never finishes a cached transfer, and the
// run would spin instead of failing.  The negated form also rejects NaN.
double memory_bandwidth(const util::Json& mem, const std::string& host, const char* field) {
  if (!mem.contains(field)) return 0.0;
  const double mbps = mem.at(field).as_number();
  if (!(mbps > 0.0)) {
    throw PlatformError("host '" + host + "': memory." + field + " must be positive");
  }
  return mbps * util::MB;
}
}  // namespace

Disk::Disk(sim::Engine& engine, Host& host, const DiskSpec& spec)
    : spec_(spec),
      host_(host),
      read_channel_(engine.new_resource(host.name() + ":" + spec.name + ":rd", spec.read_bw)),
      write_channel_(engine.new_resource(host.name() + ":" + spec.name + ":wr", spec.write_bw)) {
  if (spec.read_bw <= 0.0 || spec.write_bw <= 0.0) {
    throw PlatformError("disk '" + spec.name + "': bandwidths must be positive");
  }
}

Host::Host(sim::Engine& engine, const HostSpec& spec)
    : spec_(spec),
      cpu_(engine.new_resource(spec.name + ":cpu", spec.speed * spec.cores)),
      mem_read_(engine.new_resource(spec.name + ":mem:rd", spec.mem_read_bw)),
      mem_write_(engine.new_resource(spec.name + ":mem:wr", spec.mem_write_bw)) {
  if (spec.cores <= 0) throw PlatformError("host '" + spec.name + "': cores must be positive");
  // A zero-speed CPU never finishes a compute activity: the run would spin
  // forever instead of failing.  The negated form also rejects NaN.
  if (!(spec.speed > 0.0)) {
    throw PlatformError("host '" + spec.name + "': speed_gflops must be positive");
  }
  if (spec.ram < 0.0) throw PlatformError("host '" + spec.name + "': negative RAM");
}

Disk* Host::add_disk(sim::Engine& engine, const DiskSpec& spec) {
  for (const auto& d : disks_) {
    if (d->name() == spec.name) {
      throw PlatformError("host '" + name() + "': duplicate disk '" + spec.name + "'");
    }
  }
  disks_.push_back(std::make_unique<Disk>(engine, *this, spec));
  return disks_.back().get();
}

Disk* Host::disk(const std::string& name) const {
  for (const auto& d : disks_) {
    if (d->name() == name) return d.get();
  }
  throw PlatformError("host '" + spec_.name + "': no disk named '" + name + "'");
}

Link::Link(sim::Engine& engine, const LinkSpec& spec)
    : spec_(spec), channel_(engine.new_resource("link:" + spec.name, spec.bandwidth)) {
  if (spec.bandwidth <= 0.0) {
    throw PlatformError("link '" + spec.name + "': bandwidth must be positive");
  }
}

Host* Platform::add_host(const HostSpec& spec) {
  if (hosts_.count(spec.name) != 0) throw PlatformError("duplicate host '" + spec.name + "'");
  auto host = std::make_unique<Host>(engine_, spec);
  Host* raw = host.get();
  hosts_[spec.name] = std::move(host);
  return raw;
}

Link* Platform::add_link(const LinkSpec& spec) {
  if (links_.count(spec.name) != 0) throw PlatformError("duplicate link '" + spec.name + "'");
  auto link = std::make_unique<Link>(engine_, spec);
  Link* raw = link.get();
  links_[spec.name] = std::move(link);
  return raw;
}

void Platform::add_route(const std::string& src, const std::string& dst,
                         const std::vector<std::string>& link_names) {
  (void)host(src);  // validate endpoints exist
  (void)host(dst);
  Route route;
  for (const std::string& name : link_names) route.links.push_back(link(name));
  routes_[{src, dst}] = route;
  // Routes are symmetric (SimGrid's default for declared routes).
  routes_[{dst, src}] = std::move(route);
}

Host* Platform::host(const std::string& name) const {
  auto it = hosts_.find(name);
  if (it == hosts_.end()) throw PlatformError("unknown host '" + name + "'");
  return it->second.get();
}

Link* Platform::link(const std::string& name) const {
  auto it = links_.find(name);
  if (it == links_.end()) throw PlatformError("unknown link '" + name + "'");
  return it->second.get();
}

const Route& Platform::route_between(const std::string& src, const std::string& dst) const {
  auto it = routes_.find({src, dst});
  if (it == routes_.end()) {
    throw PlatformError("no route between '" + src + "' and '" + dst + "'");
  }
  return it->second;
}

bool Platform::has_route(const std::string& src, const std::string& dst) const {
  return routes_.count({src, dst}) != 0;
}

std::unique_ptr<Platform> Platform::from_json(sim::Engine& engine, const util::Json& doc) {
  auto platform = std::make_unique<Platform>(engine);
  platform->load_json(doc);
  return platform;
}

void Platform::load_json(const util::Json& doc) {
  for (const util::Json& h : doc.at("hosts").as_array()) {
    HostSpec spec;
    spec.name = h.at("name").as_string();
    spec.speed = h.number_or("speed_gflops", 1.0) * 1e9;
    spec.cores = static_cast<int>(h.number_or("cores", 1));
    spec.ram = util::bytes_field_or(h, "ram", 0.0);
    if (h.contains("memory")) {
      const util::Json& mem = h.at("memory");
      spec.mem_read_bw = memory_bandwidth(mem, spec.name, "read_bw_MBps");
      spec.mem_write_bw = memory_bandwidth(mem, spec.name, "write_bw_MBps");
    }
    Host* host = add_host(spec);
    if (h.contains("disks")) {
      for (const util::Json& d : h.at("disks").as_array()) {
        DiskSpec disk;
        disk.name = d.at("name").as_string();
        disk.read_bw = d.at("read_bw_MBps").as_number() * util::MB;
        disk.write_bw = d.at("write_bw_MBps").as_number() * util::MB;
        disk.capacity = util::bytes_field_or(d, "capacity", 0.0);
        disk.latency = d.number_or("latency_s", 0.0);
        host->add_disk(engine_, disk);
      }
    }
  }
  if (doc.contains("links")) {
    for (const util::Json& l : doc.at("links").as_array()) {
      LinkSpec spec;
      spec.name = l.at("name").as_string();
      spec.bandwidth = l.at("bw_MBps").as_number() * util::MB;
      spec.latency = l.number_or("latency_s", 0.0);
      add_link(spec);
    }
  }
  if (doc.contains("routes")) {
    for (const util::Json& r : doc.at("routes").as_array()) {
      std::vector<std::string> names;
      for (const util::Json& l : r.at("links").as_array()) names.push_back(l.as_string());
      add_route(r.at("src").as_string(), r.at("dst").as_string(), names);
    }
  }
}

util::Json Platform::to_json() const {
  util::Json doc{util::JsonObject{}};
  util::Json hosts{util::JsonArray{}};
  for (const auto& [host_name, host] : hosts_) {
    const HostSpec& spec = host->spec();
    util::Json h{util::JsonObject{}};
    h.set("name", spec.name);
    h.set("speed_gflops", spec.speed / 1e9);
    h.set("cores", spec.cores);
    if (spec.ram > 0.0) h.set("ram", spec.ram);
    if (spec.mem_read_bw > 0.0 || spec.mem_write_bw > 0.0) {
      util::Json mem{util::JsonObject{}};
      mem.set("read_bw_MBps", spec.mem_read_bw / util::MB);
      mem.set("write_bw_MBps", spec.mem_write_bw / util::MB);
      h.set("memory", std::move(mem));
    }
    if (!host->disks().empty()) {
      util::Json disks{util::JsonArray{}};
      for (const auto& disk : host->disks()) {
        const DiskSpec& ds = disk->spec();
        util::Json d{util::JsonObject{}};
        d.set("name", ds.name);
        d.set("read_bw_MBps", ds.read_bw / util::MB);
        d.set("write_bw_MBps", ds.write_bw / util::MB);
        if (ds.capacity > 0.0) d.set("capacity", ds.capacity);
        if (ds.latency > 0.0) d.set("latency_s", ds.latency);
        disks.push_back(std::move(d));
      }
      h.set("disks", std::move(disks));
    }
    hosts.push_back(std::move(h));
  }
  doc.set("hosts", std::move(hosts));

  if (!links_.empty()) {
    util::Json links{util::JsonArray{}};
    for (const auto& [link_name, link] : links_) {
      util::Json l{util::JsonObject{}};
      l.set("name", link_name);
      l.set("bw_MBps", link->spec().bandwidth / util::MB);
      if (link->latency() > 0.0) l.set("latency_s", link->latency());
      links.push_back(std::move(l));
    }
    doc.set("links", std::move(links));
  }

  if (!routes_.empty()) {
    util::Json routes{util::JsonArray{}};
    for (const auto& [endpoints, route] : routes_) {
      // add_route stores both directions; emit each declared pair once.
      if (endpoints.second < endpoints.first) continue;
      util::Json r{util::JsonObject{}};
      r.set("src", endpoints.first);
      r.set("dst", endpoints.second);
      util::Json names{util::JsonArray{}};
      for (const Link* link : route.links) names.push_back(link->name());
      r.set("links", std::move(names));
      routes.push_back(std::move(r));
    }
    doc.set("routes", std::move(routes));
  }
  return doc;
}

std::unique_ptr<Platform> Platform::from_json_file(sim::Engine& engine, const std::string& path) {
  return from_json(engine, util::Json::parse_file(path));
}

}  // namespace pcs::plat
