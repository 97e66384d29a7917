// offbox_real: the off-box snapshot/restore pipeline (§4.2.2) over real
// daemons' machinery — in-process 3-replica txlog group (real loopback
// sockets, fsync off), replication::OffboxRunner cycles against it, and
// peer-less recovery timed against log length:
//
//   1. restore-time vs log length — for each tail length N: append N
//      effect-batch records, time (a) a cold replay from index 1 (no
//      snapshot: what recovery costs without §4.2.2), (b) one off-box
//      snapshot cycle, (c) a restore from that snapshot (what recovery
//      costs with it). The paper's point is (c) stays flat while (a)
//      grows with the log.
//   2. snapshot-while-serving — a RespServer primary serving SET
//      round-trips while an off-box cycle runs; client p50/p99 with and
//      without the concurrent cycle. Off-box means the serving node does
//      no snapshot work, so the two distributions should coincide (§4.2.2
//      vs the BGSave fork stalls of fig6).
//
//   offbox_real [tail_lengths_csv] [serve_seconds]
//
// Emits BENCH_offbox.json.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_support/envelope.h"
#include "chaos/process.h"
#include "client/resp_conn.h"
#include "common/coding.h"
#include "common/histogram.h"
#include "common/metrics.h"
#include "engine/engine.h"
#include "net/server.h"
#include "replication/offbox_runner.h"
#include "replication/recovery.h"
#include "replication/snapshot_store.h"
#include "resp/resp.h"
#include "rpc/loop.h"
#include "storage/fs_object_store.h"
#include "txlog/remote_client.h"
#include "txlog/service.h"

namespace memdb::bench {
namespace {

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Group {
  std::vector<std::unique_ptr<txlog::LogService>> services;
  std::vector<std::string> endpoints;

  bool Start(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      txlog::LogService::Options opt;
      opt.node_id = i + 1;
      opt.listen_port = 0;
      opt.fsync = false;
      opt.heartbeat_ms = 20;
      opt.election_min_ms = 50;
      opt.election_max_ms = 120;
      opt.raft_rpc_timeout_ms = 100;
      services.push_back(std::make_unique<txlog::LogService>(opt));
      if (!services.back()->Start().ok()) return false;
    }
    std::vector<std::pair<uint64_t, std::string>> membership;
    for (size_t i = 0; i < n; ++i) {
      endpoints.push_back("127.0.0.1:" + std::to_string(services[i]->port()));
      membership.emplace_back(i + 1, endpoints.back());
    }
    for (auto& s : services) s->SetPeers(membership);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      for (auto& s : services) {
        if (s->IsLeader()) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  void Stop() {
    for (auto& s : services) s->Stop();
  }
};

// One SET effect batch in the wire format log consumers replay.
std::string EffectBatch(int i) {
  std::string out;
  PutLengthPrefixed(&out, "7.0.7");
  PutVarint64(&out, 3);
  PutLengthPrefixed(&out, "SET");
  PutLengthPrefixed(&out, "key" + std::to_string(i));
  PutLengthPrefixed(&out, std::string(64, 'v'));
  return out;
}

// Pipelined append of `n` effect batches (window of 64) — fills the log
// far faster than sequential AppendSync without changing its contents.
bool FillLog(txlog::RemoteClient* client, int n) {
  std::atomic<int> done{0};
  std::atomic<int> failed{0};
  std::atomic<int> issued{0};
  std::mutex mu;
  std::condition_variable cv;
  std::function<void()> launch = [&] {
    const int id = issued.fetch_add(1);
    if (id >= n) return;
    txlog::LogRecord rec;
    rec.type = txlog::RecordType::kData;
    rec.payload = EffectBatch(id);
    client->Append(txlog::wire::kUnconditional, std::move(rec),
                   [&](const Status& s, uint64_t) {
                     if (!s.ok()) failed.fetch_add(1);
                     launch();
                     done.fetch_add(1);
                     cv.notify_all();
                   });
  };
  for (int i = 0; i < 64 && i < n; ++i) launch();
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done.load() >= n; });
  return failed.load() == 0;
}

struct RestorePoint {
  int tail_length = 0;
  double cold_replay_ms = 0;      // no snapshot: replay the whole log
  double snapshot_cycle_ms = 0;   // one off-box cycle (restore+replay+upload)
  double restore_ms = 0;          // snapshot + (empty) tail
  size_t snapshot_bytes = 0;
};

bool RunRestoreSeries(const std::vector<int>& tails,
                      std::vector<RestorePoint>* out) {
  for (const int n : tails) {
    Group group;
    if (!group.Start(3)) return false;
    chaos::TempDir store_dir;

    MetricsRegistry registry;
    rpc::LoopThread loop;
    if (!loop.Start().ok()) return false;
    txlog::RemoteClient::Options copt;
    copt.writer_id = 1;
    copt.rpc_timeout_ms = 1000;
    auto client = std::make_unique<txlog::RemoteClient>(&loop, group.endpoints,
                                                        copt, &registry);
    if (!FillLog(client.get(), n)) return false;

    RestorePoint pt;
    pt.tail_length = n;

    {
      engine::Engine eng;
      replication::RestoreResult res;
      const uint64_t t0 = NowUs();
      const Status s = ReplayLogTail(client.get(), &eng, &res, 0);
      pt.cold_replay_ms = static_cast<double>(NowUs() - t0) / 1e3;
      if (!s.ok()) {
        std::fprintf(stderr, "cold replay failed: %s\n", s.ToString().c_str());
        return false;
      }
    }

    replication::OffboxRunner::Options opt;
    opt.endpoints = group.endpoints;
    opt.store_dir = store_dir.path;
    opt.fsync = false;
    opt.issue_trim = false;  // keep the log intact for fair timing
    MetricsRegistry offbox_metrics;
    replication::OffboxRunner runner(opt, &offbox_metrics);
    if (!runner.Start().ok()) return false;
    replication::CycleResult cycle;
    {
      const uint64_t t0 = NowUs();
      const Status s = runner.RunCycle(&cycle);
      pt.snapshot_cycle_ms = static_cast<double>(NowUs() - t0) / 1e3;
      if (!s.ok()) {
        std::fprintf(stderr, "cycle failed: %s\n", s.ToString().c_str());
        return false;
      }
    }
    pt.snapshot_bytes = cycle.snapshot_bytes;
    runner.Stop();

    {
      storage::FsObjectStore fs(store_dir.path, {.fsync = false});
      if (!fs.Open().ok()) return false;
      replication::SnapshotStore snaps(&fs, opt.shard_id);
      engine::Engine eng;
      replication::RestoreResult res;
      const uint64_t t0 = NowUs();
      Status s = RestoreFromStore(&snaps, &eng, &res);
      if (s.ok()) s = ReplayLogTail(client.get(), &eng, &res, 0);
      pt.restore_ms = static_cast<double>(NowUs() - t0) / 1e3;
      if (!s.ok()) {
        std::fprintf(stderr, "restore failed: %s\n", s.ToString().c_str());
        return false;
      }
    }

    std::printf("  tail=%-6d cold_replay=%.1fms cycle=%.1fms "
                "restore=%.1fms snapshot=%zuB\n",
                n, pt.cold_replay_ms, pt.snapshot_cycle_ms, pt.restore_ms,
                pt.snapshot_bytes);
    out->push_back(pt);

    client->Shutdown();
    client.reset();
    loop.Stop();
    group.Stop();
  }
  return true;
}

// --- snapshot-while-serving ------------------------------------------------

// SET round-trips against `port` until *stop; each RTT lands in the
// histogram current at completion time (swapped by the caller).
void ServeLoop(uint16_t port, std::atomic<bool>* stop,
               std::atomic<Histogram*>* sink, std::atomic<int>* errors) {
  client::RespConn conn(port, /*deadline_ms=*/0);
  if (!conn.connected()) {
    errors->fetch_add(1);
    return;
  }
  int i = 0;
  while (!stop->load(std::memory_order_relaxed)) {
    const std::string wire = resp::EncodeCommand(
        {"SET", "serve" + std::to_string(i % 1000), std::string(64, 'x')});
    ++i;
    const uint64_t t0 = NowUs();
    resp::Value v;
    if (!conn.Send(wire) || !conn.ReadReply(&v)) {
      errors->fetch_add(1);
      return;
    }
    sink->load(std::memory_order_acquire)->Record(NowUs() - t0);
  }
}

struct ServeResult {
  Histogram baseline;        // cycle idle
  Histogram during_cycle;    // off-box cycle in flight
  double cycle_ms = 0;
  bool ok = false;
};

bool RunServeWhileSnapshotting(int seconds, ServeResult* out) {
  Group group;
  if (!group.Start(3)) return false;
  chaos::TempDir store_dir;

  engine::Engine engine;
  net::ServerConfig cfg;
  cfg.port = 0;
  cfg.loop_timeout_ms = 10;
  cfg.txlog_endpoints = group.endpoints;
  cfg.txlog_checksum_every = 64;
  net::RespServer server(&engine, cfg);
  if (!server.Start().ok()) return false;

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::atomic<Histogram*> sink{&out->baseline};
  std::thread client(ServeLoop, server.port(), &stop, &sink, &errors);

  // Half the window as baseline, then run the off-box cycle mid-traffic.
  std::this_thread::sleep_for(std::chrono::milliseconds(seconds * 500));

  replication::OffboxRunner::Options opt;
  opt.endpoints = group.endpoints;
  opt.store_dir = store_dir.path;
  opt.fsync = false;
  opt.issue_trim = false;
  MetricsRegistry offbox_metrics;
  replication::OffboxRunner runner(opt, &offbox_metrics);
  if (!runner.Start().ok()) {
    stop.store(true);
    client.join();
    return false;
  }
  sink.store(&out->during_cycle, std::memory_order_release);
  replication::CycleResult cycle;
  const uint64_t t0 = NowUs();
  const Status s = runner.RunCycle(&cycle);
  out->cycle_ms = static_cast<double>(NowUs() - t0) / 1e3;
  sink.store(&out->baseline, std::memory_order_release);
  runner.Stop();

  // Let the remaining window drain into the baseline again.
  std::this_thread::sleep_for(std::chrono::milliseconds(seconds * 500));
  stop.store(true);
  client.join();
  server.Stop();
  group.Stop();

  out->ok = s.ok() && errors.load() == 0 &&
            out->during_cycle.count() > 0;
  if (!s.ok()) {
    std::fprintf(stderr, "serve-cycle failed: %s\n", s.ToString().c_str());
  }
  return out->ok;
}

int Run(const std::vector<int>& tails, int serve_seconds) {
  std::printf("offbox_real: restore time vs log length (3-replica group, "
              "fsync off)\n");
  std::vector<RestorePoint> points;
  if (!RunRestoreSeries(tails, &points)) return 1;

  std::printf("offbox_real: SET p99 while an off-box cycle runs (%ds "
              "window)\n", serve_seconds);
  ServeResult serve;
  if (!RunServeWhileSnapshotting(serve_seconds, &serve)) return 1;
  std::printf("  baseline  p50=%lluus p99=%lluus (%llu ops)\n",
              static_cast<unsigned long long>(serve.baseline.Percentile(0.5)),
              static_cast<unsigned long long>(serve.baseline.Percentile(0.99)),
              static_cast<unsigned long long>(serve.baseline.count()));
  std::printf("  in-cycle  p50=%lluus p99=%lluus (%llu ops, cycle=%.1fms)\n",
              static_cast<unsigned long long>(
                  serve.during_cycle.Percentile(0.5)),
              static_cast<unsigned long long>(
                  serve.during_cycle.Percentile(0.99)),
              static_cast<unsigned long long>(serve.during_cycle.count()),
              serve.cycle_ms);

  std::string tails_cfg = "[";
  for (size_t i = 0; i < tails.size(); ++i) {
    if (i > 0) tails_cfg += ",";
    tails_cfg += std::to_string(tails[i]);
  }
  tails_cfg += "]";
  std::string json = "{";
  json += BenchEnvelopeJson(
      "offbox_real", {{"tails", tails_cfg},
                      {"serve_seconds", std::to_string(serve_seconds)}});
  json += ",\"restore_vs_log_length\":[";
  for (size_t i = 0; i < points.size(); ++i) {
    const RestorePoint& p = points[i];
    if (i > 0) json += ",";
    json += "{\"tail_length\":" + std::to_string(p.tail_length);
    json += ",\"cold_replay_ms\":" + std::to_string(p.cold_replay_ms);
    json += ",\"snapshot_cycle_ms\":" + std::to_string(p.snapshot_cycle_ms);
    json += ",\"restore_ms\":" + std::to_string(p.restore_ms);
    json += ",\"snapshot_bytes\":" + std::to_string(p.snapshot_bytes) + "}";
  }
  json += "],\"serve_while_snapshotting\":{";
  json += "\"baseline\":{\"p50_us\":" +
          std::to_string(serve.baseline.Percentile(0.5)) +
          ",\"p99_us\":" + std::to_string(serve.baseline.Percentile(0.99)) +
          ",\"ops\":" + std::to_string(serve.baseline.count()) + "}";
  json += ",\"during_cycle\":{\"p50_us\":" +
          std::to_string(serve.during_cycle.Percentile(0.5)) +
          ",\"p99_us\":" +
          std::to_string(serve.during_cycle.Percentile(0.99)) +
          ",\"ops\":" + std::to_string(serve.during_cycle.count()) + "}";
  json += ",\"cycle_ms\":" + std::to_string(serve.cycle_ms) + "}}\n";

  std::FILE* f = std::fopen("BENCH_offbox.json", "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("  wrote BENCH_offbox.json\n");
  }
  return 0;
}

}  // namespace
}  // namespace memdb::bench

int main(int argc, char** argv) {
  std::vector<int> tails = {500, 2000, 8000};
  if (argc > 1) {
    tails.clear();
    const std::string csv = argv[1];
    size_t start = 0;
    while (start < csv.size()) {
      const size_t comma = csv.find(',', start);
      const std::string tok =
          csv.substr(start, comma == std::string::npos ? std::string::npos
                                                       : comma - start);
      if (!tok.empty()) tails.push_back(std::atoi(tok.c_str()));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    if (tails.empty()) tails = {500, 2000, 8000};
  }
  const int serve_seconds = argc > 2 ? std::atoi(argv[2]) : 4;
  return memdb::bench::Run(tails, serve_seconds);
}
