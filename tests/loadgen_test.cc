// Load-generator tests: Zipfian generator sanity, then end-to-end runs
// against real in-process RespServers — standalone under a maxmemory budget
// (the harness must sustain zero protocol errors while the server evicts to
// stay within it) and a two-shard cluster through the slot-routing client.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chaos/process.h"
#include "engine/engine.h"
#include "loadgen/loadgen.h"
#include "net/server.h"

namespace memdb {
namespace {

using chaos::PickFreePort;
using engine::Engine;
using loadgen::KeyDist;
using loadgen::LoadConfig;
using loadgen::LoadGenerator;
using loadgen::LoadReport;
using loadgen::ZipfianGenerator;
using net::RespServer;
using net::ServerConfig;

std::string Ep(uint16_t port) { return "127.0.0.1:" + std::to_string(port); }

TEST(ZipfianGeneratorTest, SkewAndRange) {
  const uint64_t n = 10'000;
  ZipfianGenerator zipf(n, 0.99);
  Rng rng(1234);
  std::map<uint64_t, uint64_t> counts;
  const int draws = 200'000;
  for (int i = 0; i < draws; ++i) {
    const uint64_t k = zipf.Next(rng);
    ASSERT_LT(k, n);
    ++counts[k];
  }
  // Skewed: the single most popular key id takes a few percent of all
  // draws, and a small fraction of distinct ids covers most of the mass.
  uint64_t top = 0;
  std::vector<uint64_t> freq;
  for (const auto& [k, c] : counts) {
    top = std::max(top, c);
    freq.push_back(c);
  }
  EXPECT_GT(top, draws / 50u);  // >2% on one key, impossible for uniform
  EXPECT_LT(counts.size(), n);  // tail never fully touched in 200k draws

  std::sort(freq.begin(), freq.end(), std::greater<uint64_t>());
  uint64_t head_mass = 0;
  const size_t head = std::min<size_t>(freq.size(), 100);
  for (size_t i = 0; i < head; ++i) head_mass += freq[i];
  EXPECT_GT(head_mass, uint64_t(draws) / 2u);  // top-100 ids > 50% of draws
}

TEST(ZipfianGeneratorTest, NearUniformThetaIsFlat) {
  const uint64_t n = 100;
  ZipfianGenerator zipf(n, 0.01);  // near-uniform rank distribution
  Rng rng(99);
  std::map<uint64_t, uint64_t> counts;
  const int draws = 100'000;
  for (int i = 0; i < draws; ++i) ++counts[zipf.Next(rng)];
  // The FNV scramble folds ranks onto ids, so (like YCSB's scrambled
  // generator) some ids collide and others go unhit; flatness shows up as
  // no id dominating, not as full coverage.
  ASSERT_GT(counts.size(), n / 2);
  uint64_t top = 0;
  for (const auto& [k, c] : counts) top = std::max(top, c);
  EXPECT_LT(top, uint64_t(draws) / 10u);  // no Zipf-style hot id
}

struct StandaloneServer {
  explicit StandaloneServer(uint64_t maxmemory_bytes,
                            engine::EvictionPolicy policy) {
    port = PickFreePort();
    engine = std::make_unique<Engine>();
    engine->set_maxmemory(maxmemory_bytes);
    engine->set_eviction_policy(policy);
    ServerConfig config;
    config.port = port;
    config.loop_timeout_ms = 10;
    server = std::make_unique<RespServer>(engine.get(), config);
    const Status s = server->Start();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  ~StandaloneServer() { server->Stop(); }

  uint16_t port = 0;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<RespServer> server;
};

// The acceptance scenario: working set (keys * value size) far exceeds
// maxmemory; the server must stay within budget by evicting while the
// harness sees zero error replies. Fixed-op mode keeps the test
// deterministic on loaded/sanitized runners: ~20k distinct-ish Zipfian
// writes of ~360-byte entries against a budget that fits ~1.5k entries
// forces evictions regardless of wall-clock throughput.
TEST(LoadGeneratorTest, StandaloneEvictsUnderPressureWithZeroErrors) {
  constexpr uint64_t kBudget = 512 * 1024;
  StandaloneServer srv(kBudget, engine::EvictionPolicy::kAllKeysLru);

  LoadConfig cfg;
  cfg.endpoints = {Ep(srv.port)};
  cfg.connections = 8;
  cfg.threads = 2;
  cfg.keyspace = 20'000;
  cfg.dist = KeyDist::kZipfian;
  cfg.write_ratio = 0.5;
  cfg.value_min = cfg.value_max = 256;
  cfg.pipeline = 8;
  cfg.duration_ms = 0;
  cfg.total_ops = 40'000;
  cfg.warmup_ms = 0;
  LoadGenerator gen(cfg);
  const LoadReport report = gen.Run();

  ASSERT_TRUE(report.ok) << report.error_detail;
  EXPECT_EQ(report.errors, 0u) << report.error_detail;
  EXPECT_EQ(report.ops, 40'000u);
  EXPECT_GT(report.throughput, 0);
  EXPECT_GT(report.latency.count(), 0u);
  EXPECT_GE(report.per_second.size(), 1u);

  EXPECT_LE(srv.engine->keyspace().used_memory(), kBudget);
  double evicted = 0;
  ASSERT_TRUE(
      loadgen::ScrapeMetric(Ep(srv.port), "evicted_keys_total", &evicted));
  EXPECT_GT(evicted, 0) << "working set over budget must force evictions";
  double used = 0;
  ASSERT_TRUE(
      loadgen::ScrapeMetric(Ep(srv.port), "used_memory_bytes", &used));
  EXPECT_GT(used, 0);
  EXPECT_LE(used, double(kBudget));
}

TEST(LoadGeneratorTest, FixedOpsRunsExactBudget) {
  StandaloneServer srv(0, engine::EvictionPolicy::kNoEviction);
  LoadConfig cfg;
  cfg.endpoints = {Ep(srv.port)};
  cfg.connections = 4;
  cfg.threads = 2;
  cfg.keyspace = 1000;
  cfg.write_ratio = 1.0;
  cfg.value_min = cfg.value_max = 32;
  cfg.pipeline = 4;
  cfg.duration_ms = 0;  // fixed-op mode
  cfg.total_ops = 5000;
  cfg.warmup_ms = 0;
  LoadGenerator gen(cfg);
  const LoadReport report = gen.Run();
  ASSERT_TRUE(report.ok) << report.error_detail;
  EXPECT_EQ(report.ops, 5000u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_GT(srv.engine->keyspace().Size(), 0u);
}

// Every load connection and the metric scrape accept `localhost`, as the
// cluster client always has.
TEST(LoadGeneratorTest, StandaloneRunAcceptsLocalhostEndpoint) {
  StandaloneServer srv(0, engine::EvictionPolicy::kNoEviction);
  LoadConfig cfg;
  cfg.endpoints = {"localhost:" + std::to_string(srv.port)};
  cfg.connections = 2;
  cfg.threads = 1;
  cfg.keyspace = 100;
  cfg.write_ratio = 0.5;
  cfg.value_min = cfg.value_max = 16;
  cfg.pipeline = 4;
  cfg.duration_ms = 0;
  cfg.total_ops = 1000;
  cfg.warmup_ms = 0;
  LoadGenerator gen(cfg);
  const LoadReport report = gen.Run();
  ASSERT_TRUE(report.ok) << report.error_detail;
  EXPECT_EQ(report.ops, 1000u);
  EXPECT_EQ(report.errors, 0u) << report.error_detail;
  double clients = 0;
  EXPECT_TRUE(loadgen::ScrapeMetric(cfg.endpoints[0], "net_connected_clients",
                                    &clients));
  EXPECT_GE(clients, 1);
}

// With noeviction and a tiny budget the server answers -OOM; the harness
// must classify those as oom_errors, not protocol failures.
TEST(LoadGeneratorTest, NoEvictionSurfacesOomErrors) {
  StandaloneServer srv(64 * 1024, engine::EvictionPolicy::kNoEviction);
  LoadConfig cfg;
  cfg.endpoints = {Ep(srv.port)};
  cfg.connections = 2;
  cfg.threads = 1;
  cfg.keyspace = 10'000;
  cfg.write_ratio = 1.0;
  cfg.value_min = cfg.value_max = 256;
  cfg.pipeline = 4;
  cfg.duration_ms = 0;
  cfg.total_ops = 4000;  // ~1 MiB of writes into a 64 KiB budget
  cfg.warmup_ms = 0;
  LoadGenerator gen(cfg);
  const LoadReport report = gen.Run();
  ASSERT_TRUE(report.ok) << report.error_detail;
  EXPECT_GT(report.errors, 0u);
  EXPECT_EQ(report.oom_errors, report.errors);  // all errors are -OOM
  EXPECT_LE(srv.engine->keyspace().used_memory(), 64 * 1024u);
}

struct ClusterShard {
  ClusterShard(uint16_t port, const std::string& shard_id,
               const std::string& slots,
               const std::vector<ServerConfig::ClusterPeer>& peers) {
    ServerConfig config;
    config.port = port;
    config.loop_timeout_ms = 10;
    config.cluster = true;
    config.shard_id = shard_id;
    config.cluster_slots = slots;
    config.cluster_peers = peers;
    engine = std::make_unique<Engine>();
    server = std::make_unique<RespServer>(engine.get(), config);
    const Status s = server->Start();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  ~ClusterShard() { server->Stop(); }

  std::unique_ptr<Engine> engine;
  std::unique_ptr<RespServer> server;
};

// Cluster mode: the generator routes through client::ClusterClient; with a
// scrambled-Zipfian key stream both shards must receive data, and the run
// must stay error-free.
TEST(LoadGeneratorTest, ClusterModeSpreadsLoadAcrossShards) {
  const uint16_t port1 = PickFreePort();
  const uint16_t port2 = PickFreePort();
  ClusterShard shard1(port1, "s1", "0-8191",
                      {{"s2", Ep(port2), "8192-16383"}});
  ClusterShard shard2(port2, "s2", "8192-16383",
                      {{"s1", Ep(port1), "0-8191"}});

  LoadConfig cfg;
  cfg.endpoints = {Ep(port1), Ep(port2)};
  cfg.cluster = true;
  cfg.connections = 8;  // cluster mode: one routing client per connection
  cfg.keyspace = 2000;
  cfg.write_ratio = 0.5;
  cfg.value_min = cfg.value_max = 64;
  cfg.duration_ms = 0;
  cfg.total_ops = 4000;
  cfg.warmup_ms = 0;
  LoadGenerator gen(cfg);
  const LoadReport report = gen.Run();
  ASSERT_TRUE(report.ok) << report.error_detail;
  EXPECT_EQ(report.ops, 4000u);
  EXPECT_EQ(report.errors, 0u) << report.error_detail;
  EXPECT_GT(shard1.engine->keyspace().Size(), 0u);
  EXPECT_GT(shard2.engine->keyspace().Size(), 0u);
}

}  // namespace
}  // namespace memdb
