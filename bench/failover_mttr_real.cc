// failover_mttr_real: automatic-failover MTTR over the real machinery
// (§4.1/§4.2) — in-process 3-replica txlog group on loopback sockets, a
// failover primary RespServer, and a log-fed failover replica; both run
// replication::Election. For each replay-backlog length N:
//
//   1. push N acked writes through the primary — a committed tail of N
//      entries the standby has never seen;
//   2. start the replica cold and immediately stop the primary (renewals
//      cease, the same observable as a crash), so the replica's unreplayed
//      backlog is the full tail;
//   3. measure kill -> first acked write on the replica (client-observed
//      MTTR), then scrape the replica's failover_last_{detect,replay,lease,
//      promote}_ms gauges for the per-stage breakdown: detect = holder last
//      seen alive to the deadline passing, replay = the deadline to caught
//      up, lease = the kLeadership claim's round trip, promote = follower
//      teardown + gate start.
//
// The replica claims only once caught up (the claim is conditioned on its
// applied index), so catch-up overlaps the backoff: MTTR stays pinned near
// the backoff (lease + grace, measured from the last renewal the replica
// applied) until the tail takes longer to replay than that, and then grows
// with the backlog. A renewal the replica applies late pushes its deadline
// out, since it cannot know when the record was written.
//
//   failover_mttr_real [backlogs_csv]
//
// Emits BENCH_failover.json — the standing real-binary series that
// supersedes the simulation-only ablate_failover_durability numbers.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_support/envelope.h"
#include "client/resp_conn.h"
#include "common/metrics.h"
#include "engine/engine.h"
#include "net/server.h"
#include "resp/resp.h"
#include "txlog/service.h"

namespace memdb::bench {
namespace {

uint64_t NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SleepMs(uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
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
      SleepMs(5);
    }
    return false;
  }

  void Stop() {
    for (auto& s : services) s->Stop();
  }
};

// Pipelines `n` SETs (window 64) through one connection; true when all ack.
bool FillWrites(uint16_t port, int base, int n) {
  client::RespConn c(port, 30'000);
  if (!c.connected()) return false;
  int sent = 0, acked = 0;
  while (acked < n) {
    while (sent < n && sent - acked < 64) {
      if (!c.SendCommand({"SET", "bk" + std::to_string(base + sent),
                          std::string(64, 'v')})) {
        return false;
      }
      ++sent;
    }
    resp::Value v;
    if (!c.ReadReply(&v) || v.type != resp::Type::kSimpleString) {
      return false;
    }
    ++acked;
  }
  return true;
}

double Metric(uint16_t port, const std::string& series) {
  client::RespConn c(port, 10'000);
  resp::Value v;
  if (!c.connected() || !c.RoundTrip({"METRICS"}, &v)) return 0;
  double out = 0;
  MetricsRegistry::ParseSeries(v.str, series, &out);
  return out;
}

net::ServerConfig NodeConfig(const std::vector<std::string>& endpoints,
                             bool replica, uint64_t writer_id) {
  net::ServerConfig cfg;
  cfg.port = 0;
  cfg.loop_timeout_ms = 5;
  if (replica) {
    cfg.replica_of_log = endpoints;
    cfg.replica_poll_wait_ms = 20;
  } else {
    cfg.txlog_endpoints = endpoints;
  }
  cfg.txlog_writer_id = writer_id;
  cfg.failover = true;
  cfg.lease_duration_ms = 400;
  cfg.lease_renew_ms = 100;
  cfg.failover_grace_ms = 150;
  return cfg;
}

struct Point {
  int backlog = 0;
  uint64_t mttr_ms = 0;
  double detect_ms = 0;
  double lease_ms = 0;
  double replay_ms = 0;
  double promote_ms = 0;
  double duration_ms = 0;
};

bool RunPoint(int backlog, Point* out) {
  Group group;
  if (!group.Start(3)) return false;

  engine::Engine primary_engine;
  auto primary = std::make_unique<net::RespServer>(
      &primary_engine, NodeConfig(group.endpoints, false, 1));
  if (!primary->Start().ok()) return false;

  // Commit the tail the standby will have to replay. Going through the
  // primary (rather than raw log appends) keeps the entries honest: real
  // effect batches produced by the real write path.
  if (!FillWrites(primary->port(), 0, 50 + backlog)) return false;

  // Cold standby: start the replica and stop the primary immediately, so
  // the replica's unreplayed backlog is (approximately) the whole committed
  // tail. The backoff overlaps the initial catch-up — the same overlap a
  // genuinely lagging replica would see.
  engine::Engine replica_engine;
  net::RespServer replica(&replica_engine,
                          NodeConfig(group.endpoints, true, 2));
  if (!replica.Start().ok()) return false;

  const uint64_t t_kill = NowMs();
  primary->Stop();
  primary.reset();

  // Client-observed MTTR: first acked write against the replica.
  uint64_t t_first = 0;
  const uint64_t deadline = NowMs() + 60000;
  while (t_first == 0) {
    if (NowMs() >= deadline) return false;
    client::RespConn c(replica.port(), 2000);
    resp::Value v;
    if (c.connected() && c.RoundTrip({"SET", "mttr-probe", "x"}, &v) &&
        v.type == resp::Type::kSimpleString) {
      t_first = NowMs();
      break;
    }
    SleepMs(5);
  }

  out->backlog = backlog;
  out->mttr_ms = t_first - t_kill;
  out->detect_ms = Metric(replica.port(), "failover_last_detect_ms");
  out->lease_ms = Metric(replica.port(), "failover_last_lease_ms");
  out->replay_ms = Metric(replica.port(), "failover_last_replay_ms");
  out->promote_ms = Metric(replica.port(), "failover_last_promote_ms");
  out->duration_ms = Metric(replica.port(), "failover_last_duration_ms");

  replica.Stop();
  group.Stop();
  return true;
}

int Run(int argc, char** argv) {
  std::vector<int> backlogs = {0, 500, 2000, 8000, 50000, 200000};
  std::string cfg = "0,500,2000,8000,50000,200000";
  if (argc > 1) {
    backlogs.clear();
    cfg = argv[1];
    std::string cur;
    for (const char ch : cfg + ",") {
      if (ch == ',') {
        if (!cur.empty()) backlogs.push_back(std::atoi(cur.c_str()));
        cur.clear();
      } else {
        cur.push_back(ch);
      }
    }
  }

  std::printf("failover_mttr_real: automatic failover MTTR vs replay "
              "backlog (lease 400ms, renew 100ms, backoff 550ms)\n");
  std::printf("%10s %9s %10s %9s %10s %11s\n", "backlog", "mttr_ms",
              "detect_ms", "lease_ms", "replay_ms", "promote_ms");
  std::vector<Point> points;
  for (const int b : backlogs) {
    Point p;
    if (!RunPoint(b, &p)) {
      std::fprintf(stderr, "  point backlog=%d failed\n", b);
      return 1;
    }
    std::printf("%10d %9llu %10.0f %9.0f %10.0f %11.0f\n", p.backlog,
                static_cast<unsigned long long>(p.mttr_ms), p.detect_ms,
                p.lease_ms, p.replay_ms, p.promote_ms);
    points.push_back(p);
  }

  std::string json = "{";
  json += BenchEnvelopeJson("failover_mttr_real",
                            {{"backlogs", QuoteJson(cfg)},
                             {"lease_duration_ms", "400"},
                             {"backoff_ms", "550"},
                             {"lease_renew_ms", "100"}});
  json += ",\"mttr_vs_backlog\":[";
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    if (i > 0) json += ",";
    json += "{\"backlog\":" + std::to_string(p.backlog);
    json += ",\"mttr_ms\":" + std::to_string(p.mttr_ms);
    json += ",\"detect_ms\":" + std::to_string(p.detect_ms);
    json += ",\"lease_ms\":" + std::to_string(p.lease_ms);
    json += ",\"replay_ms\":" + std::to_string(p.replay_ms);
    json += ",\"promote_ms\":" + std::to_string(p.promote_ms);
    json += ",\"duration_ms\":" + std::to_string(p.duration_ms) + "}";
  }
  json += "]}\n";

  std::FILE* f = std::fopen("BENCH_failover.json", "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("  wrote BENCH_failover.json\n");
  }
  return 0;
}

}  // namespace
}  // namespace memdb::bench

int main(int argc, char** argv) { return memdb::bench::Run(argc, argv); }
