// slot_migration_real: client-observed impact of a live fenced slot
// migration (§6 cluster data plane) over the real machinery — two
// gate-backed cluster-mode RespServers, each committing through its own
// in-process single-node txlog group, with a ClusterClient driving a mixed
// GET/SET load pinned to one hash-tagged slot while `CLUSTER SETSLOT
// <slot> MIGRATE` moves that slot between them.
//
// The run is cut into three windows:
//
//   before  — steady state on the source shard;
//   during  — SETSLOT issued until the ownership flip is visible in a
//             fresh CLUSTER SLOTS map (the ASK/TRYAGAIN/MOVED window);
//   after   — steady state on the target shard.
//
// The claim under test: migration is invisible to correctness (every op
// acks with the right value, nothing is lost at the handoff) and costs
// only a bounded latency bump while batches stream and redirects are
// chased — not an availability gap. A full read-back of the keyspace after
// the flip must find zero mismatches.
//
//   slot_migration_real [keys] [migration_batch_keys]
//
// Emits BENCH_cluster.json — the standing real-binary series that
// supersedes the simulation-only ablate_slot_migration numbers.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_support/envelope.h"
#include "chaos/process.h"
#include "client/cluster_client.h"
#include "common/crc.h"
#include "common/histogram.h"
#include "engine/engine.h"
#include "net/server.h"
#include "txlog/service.h"

namespace memdb::bench {
namespace {

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SleepMs(uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// Single-node txlog group: quorum of one, so every append commits at the
// speed of one loopback RPC — the bench measures the migration machinery,
// not replication fan-out (failover_mttr_real covers that axis).
struct Group {
  std::unique_ptr<txlog::LogService> service;
  std::string endpoint;

  bool Start(uint64_t node_id) {
    txlog::LogService::Options opt;
    opt.node_id = node_id;
    opt.listen_port = 0;
    opt.fsync = false;
    opt.heartbeat_ms = 20;
    opt.election_min_ms = 50;
    opt.election_max_ms = 120;
    service = std::make_unique<txlog::LogService>(opt);
    if (!service->Start().ok()) return false;
    endpoint = "127.0.0.1:" + std::to_string(service->port());
    service->SetPeers({{node_id, endpoint}});
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      if (service->IsLeader()) return true;
      SleepMs(5);
    }
    return false;
  }

  void Stop() {
    if (service) service->Stop();
  }
};

struct Shard {
  Group group;
  engine::Engine engine;
  std::unique_ptr<net::RespServer> server;

  bool Start(uint16_t port, uint64_t writer_id, const std::string& shard_id,
             const std::string& slots,
             const std::vector<net::ServerConfig::ClusterPeer>& peers,
             size_t batch_keys) {
    if (!group.Start(writer_id)) return false;
    net::ServerConfig cfg;
    cfg.port = port;
    cfg.loop_timeout_ms = 5;
    cfg.txlog_endpoints = {group.endpoint};
    cfg.txlog_writer_id = writer_id;
    cfg.cluster = true;
    cfg.shard_id = shard_id;
    cfg.cluster_slots = slots;
    cfg.cluster_peers = peers;
    cfg.migration_batch_keys = batch_keys;
    server = std::make_unique<net::RespServer>(&engine, cfg);
    return server->Start().ok();
  }

  void Stop() {
    if (server) server->Stop();
    group.Stop();
  }

  std::string Ep() const {
    return "127.0.0.1:" + std::to_string(server->port());
  }
};

struct Window {
  Histogram lat_us;
  std::atomic<uint64_t> errors{0};
};

const char* kWindowNames[3] = {"before", "during", "after"};

int Run(int argc, char** argv) {
  const int keys = argc > 1 ? std::atoi(argv[1]) : 2000;
  const size_t batch_keys =
      argc > 2 ? static_cast<size_t>(std::atoi(argv[2])) : 64;
  constexpr size_t kValueBytes = 64;
  const std::string tag = "{m1}";  // slot 6916, shard one's range
  const uint16_t slot = KeyHashSlot(Slice(tag));

  // Ports are picked up-front so both shards start with a full, symmetric
  // peer map (each knows the other's endpoint before either is listening).
  const uint16_t p1 = chaos::PickFreePort(), p2 = chaos::PickFreePort();
  const std::string ep1 = "127.0.0.1:" + std::to_string(p1);
  const std::string ep2 = "127.0.0.1:" + std::to_string(p2);
  Shard s1, s2;
  if (!s1.Start(p1, 1, "s1", "0-8191", {{"s2", ep2, "8192-16383"}},
                batch_keys)) {
    std::fprintf(stderr, "shard one failed to start\n");
    return 1;
  }
  if (!s2.Start(p2, 2, "s2", "8192-16383", {{"s1", ep1, "0-8191"}},
                batch_keys)) {
    std::fprintf(stderr, "shard two failed to start\n");
    return 1;
  }

  client::ClusterClient seeder({s1.Ep(), s2.Ep()});
  resp::Value reply;
  for (int i = 0; i < keys; ++i) {
    const std::string key = tag + "k" + std::to_string(i);
    if (!seeder.Execute({"SET", key, std::string(kValueBytes, 'v')}, &reply)
             .ok() ||
        reply.type != resp::Type::kSimpleString) {
      std::fprintf(stderr, "seed write %d failed\n", i);
      return 1;
    }
  }

  // Load thread: mixed 25% SET / 75% GET on the migrating slot through a
  // ClusterClient whose map goes stale mid-run — exactly a production
  // client's view. Window routing is by the phase at op START, so an op
  // straddling the SETSLOT lands in "before" (its latency was almost
  // entirely pre-migration).
  Window windows[3];
  std::atomic<int> phase{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_ops{0};
  client::ClusterClient load({s1.Ep(), s2.Ep()});
  if (!load.RefreshSlotMap().ok()) {
    std::fprintf(stderr, "slot map warmup failed\n");
    return 1;
  }
  std::thread loader([&] {
    uint64_t i = 0;
    resp::Value r;
    while (!stop.load(std::memory_order_relaxed)) {
      const int w = phase.load(std::memory_order_relaxed);
      const std::string key = tag + "k" + std::to_string(i % keys);
      const bool is_set = (i & 3) == 0;
      const uint64_t t0 = NowUs();
      const Status s =
          is_set ? load.Execute({"SET", key, std::string(kValueBytes, 'w')},
                                &r)
                 : load.Execute({"GET", key}, &r);
      const uint64_t dt = NowUs() - t0;
      const bool ok =
          s.ok() && (is_set ? r.type == resp::Type::kSimpleString
                            : r.type == resp::Type::kBulkString);
      if (ok) {
        windows[w].lat_us.Record(dt);
      } else {
        windows[w].errors.fetch_add(1, std::memory_order_relaxed);
      }
      total_ops.fetch_add(1, std::memory_order_relaxed);
      ++i;
    }
  });

  SleepMs(1000);  // "before" window

  phase.store(1);
  const uint64_t t_migrate = NowUs();
  client::ClusterClient admin({s1.Ep()});
  if (!admin
           .Execute({"CLUSTER", "SETSLOT", std::to_string(slot), "MIGRATE",
                     "s2", s2.Ep()},
                    &reply)
           .ok() ||
      reply.str != "OK") {
    std::fprintf(stderr, "SETSLOT MIGRATE refused: %s\n", reply.str.c_str());
    stop.store(true);
    loader.join();
    return 1;
  }

  // The "during" window closes when a fresh map shows the new owner.
  bool flipped = false;
  uint64_t t_flip = t_migrate;
  const uint64_t flip_deadline = NowUs() + 60ull * 1000 * 1000;
  while (!flipped && NowUs() < flip_deadline) {
    client::ClusterClient probe({s1.Ep()});
    flipped = probe.RefreshSlotMap().ok() &&
              probe.EndpointForSlot(slot) == s2.Ep();
    t_flip = NowUs();
    if (!flipped) SleepMs(2);
  }
  phase.store(2);
  if (!flipped) {
    std::fprintf(stderr, "migration never committed\n");
    stop.store(true);
    loader.join();
    return 1;
  }

  SleepMs(1000);  // "after" window
  stop.store(true);
  loader.join();

  // Correctness sweep: every key must read back with a well-formed value
  // from the new owner. Zero mismatches is the acked-write-loss check.
  uint64_t mismatches = 0;
  client::ClusterClient verifier({s2.Ep()});
  for (int i = 0; i < keys; ++i) {
    const std::string key = tag + "k" + std::to_string(i);
    if (!verifier.Execute({"GET", key}, &reply).ok() ||
        reply.type != resp::Type::kBulkString ||
        reply.str.size() != kValueBytes) {
      ++mismatches;
    }
  }

  const double migration_ms =
      static_cast<double>(t_flip - t_migrate) / 1000.0;
  std::printf("slot_migration_real: slot %u, %d keys x %zu B, batch %zu\n",
              slot, keys, kValueBytes, batch_keys);
  std::printf("  migration window: %.1f ms; verify mismatches: %llu/%d\n",
              migration_ms, static_cast<unsigned long long>(mismatches),
              keys);
  std::printf("%8s %9s %9s %9s %9s %8s\n", "window", "ops", "p50_us",
              "p99_us", "max_us", "errors");
  for (int w = 0; w < 3; ++w) {
    std::printf("%8s %9llu %9llu %9llu %9llu %8llu\n", kWindowNames[w],
                static_cast<unsigned long long>(windows[w].lat_us.count()),
                static_cast<unsigned long long>(
                    windows[w].lat_us.Percentile(0.50)),
                static_cast<unsigned long long>(
                    windows[w].lat_us.Percentile(0.99)),
                static_cast<unsigned long long>(windows[w].lat_us.max()),
                static_cast<unsigned long long>(windows[w].errors.load()));
  }
  std::printf("  client redirects: moved=%llu ask=%llu tryagain=%llu\n",
              static_cast<unsigned long long>(load.moved_redirects()),
              static_cast<unsigned long long>(load.ask_redirects()),
              static_cast<unsigned long long>(load.tryagain_retries()));

  std::string json = "{";
  json += BenchEnvelopeJson(
      "slot_migration_real",
      {{"slot", std::to_string(slot)},
       {"keys", std::to_string(keys)},
       {"value_bytes", std::to_string(kValueBytes)},
       {"migration_batch_keys", std::to_string(batch_keys)}});
  json += ",\"migration_ms\":" + std::to_string(migration_ms);
  json += ",\"windows\":{";
  for (int w = 0; w < 3; ++w) {
    if (w > 0) json += ",";
    json += QuoteJson(kWindowNames[w]) + ":{";
    json += "\"ops\":" + std::to_string(windows[w].lat_us.count());
    json += ",\"p50_us\":" +
            std::to_string(windows[w].lat_us.Percentile(0.50));
    json += ",\"p99_us\":" +
            std::to_string(windows[w].lat_us.Percentile(0.99));
    json += ",\"max_us\":" + std::to_string(windows[w].lat_us.max());
    json += ",\"errors\":" + std::to_string(windows[w].errors.load()) + "}";
  }
  json += "}";
  json += ",\"client\":{\"moved_redirects\":" +
          std::to_string(load.moved_redirects());
  json += ",\"ask_redirects\":" + std::to_string(load.ask_redirects());
  json += ",\"tryagain_retries\":" + std::to_string(load.tryagain_retries());
  json += "}";
  json += ",\"verify\":{\"keys\":" + std::to_string(keys);
  json += ",\"mismatches\":" + std::to_string(mismatches) + "}";
  json += "}\n";

  std::FILE* f = std::fopen("BENCH_cluster.json", "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("  wrote BENCH_cluster.json\n");
  }

  s1.Stop();
  s2.Stop();
  return mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace memdb::bench

int main(int argc, char** argv) { return memdb::bench::Run(argc, argv); }
