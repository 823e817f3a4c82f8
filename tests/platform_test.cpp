#include "platform/platform.hpp"

#include <gtest/gtest.h>

#include <string>

#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pcs::plat {
namespace {

TEST(Platform, AddAndLookupHosts) {
  sim::Engine engine;
  Platform platform(engine);
  Host* h = platform.add_host(test::small_host("node0", 1e9, 1e8));
  EXPECT_EQ(platform.host("node0"), h);
  EXPECT_EQ(platform.host_count(), 1u);
  EXPECT_THROW((void)platform.host("ghost"), PlatformError);
  EXPECT_THROW(platform.add_host(test::small_host("node0", 1e9, 1e8)), PlatformError);
}

TEST(Platform, HostValidation) {
  sim::Engine engine;
  Platform platform(engine);
  HostSpec bad = test::small_host("x", 1e9, 1e8);
  bad.cores = 0;
  EXPECT_THROW(platform.add_host(bad), PlatformError);
  bad = test::small_host("y", 1e9, 1e8);
  bad.ram = -1.0;
  EXPECT_THROW(platform.add_host(bad), PlatformError);
  for (double speed : {0.0, -1e9}) {
    bad = test::small_host("slow", 1e9, 1e8);
    bad.speed = speed;
    try {
      platform.add_host(bad);
      FAIL() << "speed " << speed << " must be rejected";
    } catch (const PlatformError& e) {
      EXPECT_NE(std::string(e.what()).find("host 'slow'"), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find("speed_gflops"), std::string::npos) << e.what();
    }
  }
}

TEST(Platform, HostResourcesMatchSpec) {
  sim::Engine engine;
  Platform platform(engine);
  HostSpec spec = test::small_host("n", 8e9, 1e8);
  spec.speed = 2e9;
  spec.cores = 4;
  Host* h = platform.add_host(spec);
  EXPECT_DOUBLE_EQ(h->cpu()->capacity(), 8e9);  // speed * cores
  EXPECT_DOUBLE_EQ(h->mem_read_channel()->capacity(), 1e8);
  EXPECT_DOUBLE_EQ(h->mem_write_channel()->capacity(), 1e8);
}

TEST(Platform, DiskManagement) {
  sim::Engine engine;
  Platform platform(engine);
  Host* h = platform.add_host(test::small_host("n", 1e9, 1e8));
  DiskSpec spec;
  spec.name = "d0";
  spec.read_bw = 100.0;
  spec.write_bw = 50.0;
  Disk* d = h->add_disk(engine, spec);
  EXPECT_EQ(h->disk("d0"), d);
  EXPECT_DOUBLE_EQ(d->read_channel()->capacity(), 100.0);
  EXPECT_DOUBLE_EQ(d->write_channel()->capacity(), 50.0);
  EXPECT_THROW((void)h->disk("nope"), PlatformError);
  EXPECT_THROW(h->add_disk(engine, spec), PlatformError);  // duplicate
  DiskSpec bad = spec;
  bad.name = "d1";
  bad.read_bw = 0.0;
  EXPECT_THROW(h->add_disk(engine, bad), PlatformError);
}

TEST(Platform, DiskSymmetrization) {
  DiskSpec spec;
  spec.read_bw = 510.0;
  spec.write_bw = 420.0;
  DiskSpec sym = spec.symmetrized();
  EXPECT_DOUBLE_EQ(sym.read_bw, 465.0);
  EXPECT_DOUBLE_EQ(sym.write_bw, 465.0);
  HostSpec host;
  host.mem_read_bw = 6860.0;
  host.mem_write_bw = 2764.0;
  HostSpec msym = host.memory_symmetrized();
  EXPECT_DOUBLE_EQ(msym.mem_read_bw, 4812.0);
  EXPECT_DOUBLE_EQ(msym.mem_write_bw, 4812.0);
}

TEST(Platform, RoutesAreSymmetric) {
  sim::Engine engine;
  Platform platform(engine);
  platform.add_host(test::small_host("a", 1e9, 1e8));
  platform.add_host(test::small_host("b", 1e9, 1e8));
  platform.add_link({"l1", 100.0, 0.01});
  platform.add_link({"l2", 200.0, 0.02});
  platform.add_route("a", "b", {"l1", "l2"});
  EXPECT_TRUE(platform.has_route("a", "b"));
  EXPECT_TRUE(platform.has_route("b", "a"));
  EXPECT_FALSE(platform.has_route("a", "a"));
  const Route& route = platform.route_between("b", "a");
  EXPECT_EQ(route.links.size(), 2u);
  EXPECT_NEAR(route.latency(), 0.03, 1e-12);
  EXPECT_THROW((void)platform.route_between("a", "a"), PlatformError);
}

TEST(Platform, RouteValidation) {
  sim::Engine engine;
  Platform platform(engine);
  platform.add_host(test::small_host("a", 1e9, 1e8));
  EXPECT_THROW(platform.add_route("a", "missing", {}), PlatformError);
  platform.add_host(test::small_host("b", 1e9, 1e8));
  EXPECT_THROW(platform.add_route("a", "b", {"missing-link"}), PlatformError);
  EXPECT_THROW(platform.add_link({"bad", 0.0, 0.0}), PlatformError);
  EXPECT_THROW(platform.add_link({"bad", -5.0, 0.0}), PlatformError);
}

TEST(PlatformJson, FullDocument) {
  const char* doc = R"json({
    "hosts": [
      {"name": "c0", "speed_gflops": 2, "cores": 16, "ram": "128 GB",
       "memory": {"read_bw_MBps": 6860, "write_bw_MBps": 2764},
       "disks": [{"name": "ssd", "read_bw_MBps": 510, "write_bw_MBps": 420,
                  "capacity": "450 GiB", "latency_s": 0.001}]},
      {"name": "s0", "cores": 8, "ram": 64000000000,
       "memory": {"read_bw_MBps": 4812, "write_bw_MBps": 4812}}
    ],
    "links": [{"name": "lan", "bw_MBps": 3000, "latency_s": 0.0001}],
    "routes": [{"src": "c0", "dst": "s0", "links": ["lan"]}]
  })json";
  sim::Engine engine;
  auto platform = Platform::from_json(engine, util::Json::parse(doc));
  Host* c0 = platform->host("c0");
  EXPECT_DOUBLE_EQ(c0->speed(), 2e9);
  EXPECT_EQ(c0->cores(), 16);
  EXPECT_DOUBLE_EQ(c0->ram(), 128e9);
  EXPECT_DOUBLE_EQ(c0->mem_read_channel()->capacity(), 6860e6);
  Disk* ssd = c0->disk("ssd");
  EXPECT_DOUBLE_EQ(ssd->capacity(), 450.0 * util::GiB);
  EXPECT_DOUBLE_EQ(ssd->latency(), 0.001);
  Host* s0 = platform->host("s0");
  EXPECT_DOUBLE_EQ(s0->speed(), 1e9);  // default 1 Gflops
  EXPECT_DOUBLE_EQ(s0->ram(), 64e9);   // numeric bytes accepted
  EXPECT_TRUE(platform->has_route("s0", "c0"));
  EXPECT_DOUBLE_EQ(platform->route_between("c0", "s0").links[0]->channel()->capacity(), 3000e6);
}

TEST(PlatformJson, MalformedDocuments) {
  sim::Engine engine;
  EXPECT_THROW(Platform::from_json(engine, util::Json::parse("{}")), util::JsonError);
  EXPECT_THROW(
      Platform::from_json(engine, util::Json::parse(R"({"hosts":[{"cores":2}]})")),
      util::JsonError);
  EXPECT_THROW(Platform::from_json_file(engine, "/nonexistent.json"), util::JsonError);
  // Route to an undeclared host is a platform error, not a JSON error.
  const char* bad_route = R"json({
    "hosts": [{"name": "a"}],
    "links": [{"name": "l", "bw_MBps": 10}],
    "routes": [{"src": "a", "dst": "zz", "links": ["l"]}]
  })json";
  EXPECT_THROW(Platform::from_json(engine, util::Json::parse(bad_route)), PlatformError);
}

TEST(PlatformJson, ToJsonRoundTripsTheClusterDocument) {
  const char* doc_text = R"json({
    "hosts": [
      {"name": "compute0", "speed_gflops": 1, "cores": 32, "ram": "250 GB",
       "memory": {"read_bw_MBps": 6860, "write_bw_MBps": 2764},
       "disks": [{"name": "ssd0", "read_bw_MBps": 510, "write_bw_MBps": 420,
                  "capacity": "450 GiB", "latency_s": 0.001}]},
      {"name": "storage0", "speed_gflops": 2, "cores": 16,
       "disks": [{"name": "nfs-ssd", "read_bw_MBps": 515, "write_bw_MBps": 375}]}
    ],
    "links": [{"name": "lan", "bw_MBps": 3000, "latency_s": 0.0001}],
    "routes": [{"src": "compute0", "dst": "storage0", "links": ["lan"]}]
  })json";
  sim::Engine engine;
  auto platform = Platform::from_json(engine, util::Json::parse(doc_text));
  util::Json first = platform->to_json();

  sim::Engine engine2;
  auto reloaded = Platform::from_json(engine2, first);
  util::Json second = reloaded->to_json();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.dump(2), second.dump(2));

  // Spot-check that the serialization carries the loader's fields.
  EXPECT_DOUBLE_EQ(reloaded->host("compute0")->spec().mem_read_bw, 6860.0 * util::MB);
  EXPECT_DOUBLE_EQ(reloaded->host("compute0")->disk("ssd0")->spec().latency, 0.001);
  EXPECT_TRUE(reloaded->has_route("storage0", "compute0"));
}

TEST(PlatformJson, RandomizedSaveLoadSaveEquality) {
  util::Rng rng(20260727);
  for (int round = 0; round < 25; ++round) {
    sim::Engine engine;
    Platform platform(engine);
    const int host_count = 1 + static_cast<int>(rng.next_u64() % 4);
    std::vector<std::string> host_names;
    for (int h = 0; h < host_count; ++h) {
      HostSpec spec;
      spec.name = "h" + std::to_string(h);
      spec.speed = static_cast<double>(1 + rng.next_u64() % 8) * 1e9;
      spec.cores = 1 + static_cast<int>(rng.next_u64() % 64);
      spec.ram = static_cast<double>(rng.next_u64() % 512) * util::GiB;
      // Integer-MBps bandwidths, as the schema's fields are MBps-valued.
      spec.mem_read_bw = static_cast<double>(1 + rng.next_u64() % 10000) * util::MB;
      spec.mem_write_bw = static_cast<double>(1 + rng.next_u64() % 10000) * util::MB;
      Host* host = platform.add_host(spec);
      host_names.push_back(spec.name);
      const int disk_count = static_cast<int>(rng.next_u64() % 3);
      for (int d = 0; d < disk_count; ++d) {
        DiskSpec disk;
        disk.name = "d" + std::to_string(d);
        disk.read_bw = static_cast<double>(1 + rng.next_u64() % 2000) * util::MB;
        disk.write_bw = static_cast<double>(1 + rng.next_u64() % 2000) * util::MB;
        disk.capacity = static_cast<double>(rng.next_u64() % 1000) * util::GiB;
        disk.latency = static_cast<double>(rng.next_u64() % 10) * 1e-4;
        host->add_disk(engine, disk);
      }
    }
    const int link_count = static_cast<int>(rng.next_u64() % 3);
    std::vector<std::string> link_names;
    for (int l = 0; l < link_count; ++l) {
      LinkSpec link;
      link.name = "l" + std::to_string(l);
      link.bandwidth = static_cast<double>(1 + rng.next_u64() % 5000) * util::MB;
      link.latency = static_cast<double>(rng.next_u64() % 5) * 1e-5;
      platform.add_link(link);
      link_names.push_back(link.name);
    }
    if (!link_names.empty() && host_names.size() >= 2) {
      platform.add_route(host_names[0], host_names[1], {link_names[0]});
    }

    util::Json saved = platform.to_json();
    sim::Engine engine2;
    auto loaded = Platform::from_json(engine2, saved);
    util::Json saved_again = loaded->to_json();
    EXPECT_EQ(saved, saved_again) << "round " << round << ":\n" << saved.dump(2);
  }
}

TEST(PlatformJson, LoadJsonAddsIntoAnExistingPlatform) {
  sim::Engine engine;
  Platform platform(engine);
  platform.load_json(util::Json::parse(R"json({"hosts": [{"name": "a"}]})json"));
  platform.load_json(util::Json::parse(R"json({"hosts": [{"name": "b"}]})json"));
  EXPECT_EQ(platform.host_count(), 2u);
  // Colliding names still throw.
  EXPECT_THROW(platform.load_json(util::Json::parse(R"json({"hosts": [{"name": "a"}]})json")),
               PlatformError);
}

TEST(PlatformJson, CapacityChangePropagates) {
  sim::Engine engine;
  Platform platform(engine);
  Host* h = platform.add_host(test::small_host("n", 1e9, 1e8));
  DiskSpec spec;
  spec.name = "d";
  spec.read_bw = 100.0;
  spec.write_bw = 100.0;
  Disk* d = h->add_disk(engine, spec);
  d->read_channel()->set_capacity(50.0);
  EXPECT_DOUBLE_EQ(d->read_channel()->capacity(), 50.0);
}

}  // namespace
}  // namespace pcs::plat
