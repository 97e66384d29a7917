// memorydb-stat: one-shot fleet scraper. Pulls the Prometheus exposition
// from every member of a MemoryDB deployment — RESP servers (primary and
// replicas) via the `METRICS` command, txlogd replicas and the snapshotter
// via the rpc `svc.Metrics` endpoint — and renders one table, one row per
// process, so an operator sees the whole write path at a glance.
//
//   memorydb-stat [--server HOST:PORT]... [--rpc HOST:PORT]...
//                 [--series NAME]... [--raw]
//
// Default columns cover the durable write path end to end: client load on
// the server, gate throughput, raft role/commit on each log replica, and
// snapshot progress. --series replaces them (repeatable; fully-qualified
// series names, e.g. 'cmd_latency_us_count{cmd="SET"}'). --raw dumps each
// scrape's exposition text instead of the table.
//
// Exit status: 0 if every target answered, 1 if any scrape failed.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "client/resp_conn.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/sync.h"
#include "resp/resp.h"
#include "rpc/channel.h"
#include "rpc/loop.h"
#include "txlog/rpc_wire.h"

namespace {

struct Target {
  std::string endpoint;  // host:port
  bool rpc = false;      // false = RESP server, true = svc.Metrics
};

// METRICS over one RESP connection (the tool runs one scrape and exits).
bool RespScrape(const std::string& endpoint, std::string* out) {
  memdb::client::RespConn conn;
  memdb::resp::Value v;
  if (!conn.Connect(endpoint, 5000) || !conn.RoundTrip({"METRICS"}, &v) ||
      v.type != memdb::resp::Type::kBulkString) {
    return false;
  }
  *out = std::move(v.str);
  return true;
}

// Synchronous svc.Metrics call over the shared loop thread.
bool RpcScrape(memdb::rpc::LoopThread* loop, const std::string& host,
               uint16_t port, std::string* out) {
  memdb::rpc::Channel channel(loop, host, port);
  memdb::Mutex mu;
  memdb::CondVar cv;
  bool done = false;
  bool ok = false;
  channel.Call(memdb::txlog::rpcwire::kMetrics, std::string(),
               /*timeout_ms=*/3000, /*trace_id=*/0,
               [&](const memdb::Status& s, std::string payload) {
                 memdb::MutexLock lock(&mu);
                 ok = s.ok();
                 if (ok) *out = std::move(payload);
                 done = true;
                 cv.Signal();
               });
  {
    memdb::MutexLock lock(&mu);
    while (!done) cv.Wait(&mu);
  }
  channel.Shutdown();
  return ok;
}

std::string FormatSeries(const std::string& exposition,
                         const std::string& series) {
  double v = 0;
  if (!memdb::MetricsRegistry::ParseSeries(exposition, series, &v)) {
    return "-";
  }
  char buf[32];
  if (v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f", v);
  }
  return buf;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--server HOST:PORT]... [--rpc HOST:PORT]...\n"
               "          [--series NAME]... [--raw]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<Target> targets;
  std::vector<std::string> series;
  bool raw = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--server" && has_value) {
      targets.push_back(Target{argv[++i], false});
    } else if (arg == "--rpc" && has_value) {
      targets.push_back(Target{argv[++i], true});
    } else if (arg == "--series" && has_value) {
      series.push_back(argv[++i]);
    } else if (arg == "--raw") {
      raw = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (targets.empty()) return Usage(argv[0]);
  if (series.empty()) {
    series = {"net_connected_clients", "txlog_gate_appends_total",
              "txlog_gate_records_total",
              "raft_role",             "raft_commit_index",
              "txlog_fsyncs_total",    "offbox_cycles_total",
              "offbox_last_snapshot_position",
              "used_memory_bytes",     "evicted_keys_total",
              "expired_keys_total"};
  }

  memdb::rpc::LoopThread loop;
  if (!loop.Start().ok()) {
    std::fprintf(stderr, "memorydb-stat: cannot start rpc loop\n");
    return 1;
  }

  std::vector<std::string> expositions(targets.size());
  std::vector<bool> scraped(targets.size(), false);
  bool all_ok = true;
  for (size_t i = 0; i < targets.size(); ++i) {
    std::string host;
    uint16_t port = 0;
    if (!memdb::client::RespConn::ParseEndpoint(targets[i].endpoint, &host,
                                                &port)) {
      std::fprintf(stderr, "memorydb-stat: bad endpoint '%s'\n",
                   targets[i].endpoint.c_str());
      all_ok = false;
      continue;
    }
    scraped[i] = targets[i].rpc
                     ? RpcScrape(&loop, host, port, &expositions[i])
                     : RespScrape(targets[i].endpoint, &expositions[i]);
    if (!scraped[i]) {
      std::fprintf(stderr, "memorydb-stat: scrape failed for %s\n",
                   targets[i].endpoint.c_str());
      all_ok = false;
    }
  }
  loop.Stop();

  if (raw) {
    for (size_t i = 0; i < targets.size(); ++i) {
      std::printf("== %s ==\n%s\n", targets[i].endpoint.c_str(),
                  scraped[i] ? expositions[i].c_str() : "(unreachable)");
    }
    return all_ok ? 0 : 1;
  }

  std::printf("%-22s %-6s", "endpoint", "kind");
  for (const std::string& s : series) std::printf(" %*s", 18, s.c_str());
  std::printf("\n");
  for (size_t i = 0; i < targets.size(); ++i) {
    std::printf("%-22s %-6s", targets[i].endpoint.c_str(),
                targets[i].rpc ? "rpc" : "resp");
    for (const std::string& s : series) {
      std::printf(" %*s", 18,
                  scraped[i] ? FormatSeries(expositions[i], s).c_str() : "!");
    }
    std::printf("\n");
  }
  return all_ok ? 0 : 1;
}
