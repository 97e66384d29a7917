// Chaos/linearizability harness over the REAL binaries (the tentpole e2e):
// three memorydb-txlogd processes form the transaction-log group; a
// memorydb-server primary and two replicas run with --failover. Client
// threads drive live RESP traffic while the orchestrator SIGKILLs the
// current primary several times (plus one SIGSTOP/SIGCONT zombie round);
// each time a replica must self-promote — no operator, no --restore — and
// at the end the complete wire history, plus final reads pinning the
// surviving state, must be linearizable: every acked write survived, in
// order.
//
// Binary paths arrive via MEMDB_SERVER_BIN / MEMDB_TXLOGD_BIN (set by
// tests/CMakeLists.txt); the test skips when they are absent. Kill rounds
// default to 3; MEMDB_CHAOS_ROUNDS overrides (scripts/check.sh runs a
// 1-round smoke).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chaos/history.h"
#include "chaos/process.h"
#include "chaos/workload.h"
#include "check/linearizability.h"
#include "client/resp_conn.h"
#include "common/metrics.h"
#include "resp/resp.h"

namespace memdb {
namespace {

using chaos::ChildProcess;
using chaos::EnvOr;
using chaos::HistoryRecorder;
using chaos::TempDir;
using chaos::WireWorkload;

uint64_t SteadyMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SleepMs(uint64_t ms) {
  // lint:allow-blocking — chaos driver thread.
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// One INFO round-trip; true when the reply contains `needle`.
bool InfoContains(uint16_t port, const std::string& needle) {
  client::RespConn s;
  if (!s.Connect(port, 1500)) return false;
  resp::Value v;
  if (!s.RoundTrip({"INFO"}, &v)) return false;
  return v.type == resp::Type::kBulkString &&
         v.str.find(needle) != std::string::npos;
}

// One METRICS series of the server on `port`; -1 when the scrape fails.
double ScrapeMetric(uint16_t port, const std::string& series) {
  client::RespConn s;
  resp::Value v;
  double out = 0;
  if (!s.Connect(port, 1500) || !s.RoundTrip({"METRICS"}, &v) ||
      !MetricsRegistry::ParseSeries(v.str, series, &out)) {
    return -1;
  }
  return out;
}

// A database node under chaos: its fixed port, its process handle, and the
// writer id it was last spawned with (its claims and renewals carry it).
struct Node {
  uint16_t port = 0;
  uint64_t writer = 0;
  ChildProcess proc;
};

class ChaosCluster {
 public:
  ChaosCluster(std::string server_bin, std::string txlogd_bin)
      : server_bin_(std::move(server_bin)),
        txlogd_bin_(std::move(txlogd_bin)) {}

  bool StartLogGroup() {
    for (int i = 0; i < 3; ++i) log_ports_[i] = chaos::PickFreePort();
    log_endpoints_ = "127.0.0.1:" + std::to_string(log_ports_[0]) +
                     ",127.0.0.1:" + std::to_string(log_ports_[1]) +
                     ",127.0.0.1:" + std::to_string(log_ports_[2]);
    for (int i = 0; i < 3; ++i) {
      if (log_dirs_[i].path.empty()) return false;
      if (!txlogd_[i]
               .Spawn({txlogd_bin_, "--node-id", std::to_string(i + 1),
                       "--peers", log_endpoints_, "--data-dir",
                       log_dirs_[i].path,
                       "--no-fsync", "--heartbeat-ms", "20",
                       "--election-min-ms", "50", "--election-max-ms", "120"})
               .ok()) {
        return false;
      }
    }
    for (const uint16_t p : log_ports_) {
      if (!chaos::WaitForPort(p, 10000)) return false;
    }
    return true;
  }

  // Spawns a node on `node.port` (picking one if 0) with a fresh writer id.
  // Every node runs the election; an as_primary node claims the shard at
  // once and accepts no client before it holds it, a replica waits for the
  // holder to go silent.
  bool SpawnNode(Node* node, bool as_primary) {
    if (node->port == 0) node->port = chaos::PickFreePort();
    node->writer = next_writer_++;
    std::vector<std::string> argv = {
        server_bin_,
        "--port", std::to_string(node->port),
        as_primary ? "--txlog-endpoints" : "--replica-of-log", log_endpoints_,
        "--writer-id", std::to_string(node->writer),
        "--failover",
        "--lease-duration-ms", "600",
        "--lease-renew-ms", "150"};
    if (!node->proc.Spawn(std::move(argv)).ok()) return false;
    return chaos::WaitForPort(node->port, as_primary ? 45000 : 15000);
  }

  const std::string& log_endpoints() const { return log_endpoints_; }

 private:
  std::string server_bin_;
  std::string txlogd_bin_;
  TempDir log_dirs_[3];  // outlives the daemons writing into it
  ChildProcess txlogd_[3];
  uint16_t log_ports_[3] = {0, 0, 0};
  std::string log_endpoints_;
  uint64_t next_writer_ = 1;
};

// Index of the node currently reporting role:master, or -1 on timeout.
int FindMaster(std::vector<Node>* nodes, uint64_t timeout_ms,
               int exclude = -1) {
  const uint64_t deadline = SteadyMs() + timeout_ms;
  while (SteadyMs() < deadline) {
    for (size_t i = 0; i < nodes->size(); ++i) {
      if (static_cast<int>(i) == exclude) continue;
      if (!(*nodes)[i].proc.running()) continue;
      if (InfoContains((*nodes)[i].port, "role:master")) {
        return static_cast<int>(i);
      }
    }
    SleepMs(100);
  }
  return -1;
}

// Acked writes must advance by `delta` — proof the cluster is serving.
bool WaitForProgress(const WireWorkload& load, uint64_t delta,
                     uint64_t timeout_ms) {
  const uint64_t base = load.acked_writes();
  const uint64_t deadline = SteadyMs() + timeout_ms;
  while (SteadyMs() < deadline) {
    if (load.acked_writes() >= base + delta) return true;
    SleepMs(50);
  }
  return false;
}

TEST(ChaosE2eTest, RepeatedPrimaryKillsAutoPromoteWithLinearizableHistory) {
  const std::string server_bin = EnvOr("MEMDB_SERVER_BIN");
  const std::string txlogd_bin = EnvOr("MEMDB_TXLOGD_BIN");
  if (server_bin.empty() || txlogd_bin.empty()) {
    GTEST_SKIP() << "MEMDB_SERVER_BIN / MEMDB_TXLOGD_BIN not set; run under "
                    "ctest";
  }
  const std::string rounds_env = EnvOr("MEMDB_CHAOS_ROUNDS");
  const int kill_rounds =
      rounds_env.empty() ? 3 : std::max(1, std::atoi(rounds_env.c_str()));

  ChaosCluster cluster(server_bin, txlogd_bin);
  ASSERT_TRUE(cluster.StartLogGroup()) << "txlogd group failed to start";

  // One primary, two replicas — all with automatic failover.
  std::vector<Node> nodes(3);
  ASSERT_TRUE(cluster.SpawnNode(&nodes[0], /*as_primary=*/true));
  ASSERT_TRUE(cluster.SpawnNode(&nodes[1], /*as_primary=*/false));
  ASSERT_TRUE(cluster.SpawnNode(&nodes[2], /*as_primary=*/false));

  HistoryRecorder recorder;
  WireWorkload::Options wopt;
  for (const Node& n : nodes) wopt.ports.push_back(n.port);
  wopt.clients = 4;
  wopt.keys = 8;
  wopt.op_gap_ms = 5;
  wopt.recv_timeout_ms = 2500;
  WireWorkload load(wopt, &recorder);
  load.Start();
  ASSERT_TRUE(WaitForProgress(load, 20, 20000))
      << "workload never got going against the initial primary";

  // --- kill rounds: SIGKILL the serving primary, every time ---------------
  for (int round = 0; round < kill_rounds; ++round) {
    const int master = FindMaster(&nodes, 20000);
    ASSERT_GE(master, 0) << "round " << round << ": no master to kill";
    std::fprintf(stderr, "[chaos] round %d: SIGKILL primary on port %u\n",
                 round, nodes[static_cast<size_t>(master)].port);
    nodes[static_cast<size_t>(master)].proc.Kill(SIGKILL);

    // A survivor must self-promote and resume acking writes.
    const int next = FindMaster(&nodes, 30000, /*exclude=*/master);
    ASSERT_GE(next, 0) << "round " << round
                       << ": no replica promoted itself";
    EXPECT_NE(next, master);
    ASSERT_TRUE(WaitForProgress(load, 20, 30000))
        << "round " << round << ": writes did not resume after promotion";

    // The killed node rejoins as a log-fed replica (fresh writer id, same
    // port) — future rounds always have a promotion candidate.
    ASSERT_TRUE(cluster.SpawnNode(&nodes[static_cast<size_t>(master)],
                                  /*as_primary=*/false))
        << "round " << round << ": respawn failed";
    load.AddPort(nodes[static_cast<size_t>(master)].port);
  }

  // --- zombie round: freeze the primary instead of killing it -------------
  {
    const int master = FindMaster(&nodes, 20000);
    ASSERT_GE(master, 0) << "zombie round: no master";
    Node& zombie = nodes[static_cast<size_t>(master)];
    std::fprintf(stderr, "[chaos] zombie round: SIGSTOP primary on port %u\n",
                 zombie.port);
    zombie.proc.Pause();

    const int next = FindMaster(&nodes, 30000, /*exclude=*/master);
    ASSERT_GE(next, 0) << "zombie round: no replica promoted itself";
    ASSERT_TRUE(WaitForProgress(load, 20, 30000))
        << "zombie round: writes did not resume";

    // Resume the zombie: it comes back believing it holds the lease. The
    // expired-lease read gate plus the fenced append chain must force it to
    // demote — it may not ack a single write or serve a single stale read.
    zombie.proc.Resume();
    const uint64_t deadline = SteadyMs() + 30000;
    bool fenced = false;
    while (SteadyMs() < deadline && !fenced) {
      fenced = InfoContains(zombie.port, "role:fenced");
      if (!fenced) SleepMs(100);
    }
    EXPECT_TRUE(fenced) << "resumed zombie never demoted to fenced";
  }

  // --- wind down and pin the final state ----------------------------------
  load.Stop();
  int master = FindMaster(&nodes, 20000);
  ASSERT_GE(master, 0) << "no master for final reads";
  bool finals_ok = false;
  for (int attempt = 0; attempt < 3 && !finals_ok; ++attempt) {
    finals_ok =
        load.FinalReads(nodes[static_cast<size_t>(master)].port, &recorder);
    if (!finals_ok) {
      master = FindMaster(&nodes, 20000);
      ASSERT_GE(master, 0);
    }
  }
  ASSERT_TRUE(finals_ok) << "final reads failed against the last master";

  // The promoted master's failover instrumentation observed the chaos.
  EXPECT_TRUE(InfoContains(nodes[static_cast<size_t>(master)].port,
                           "master_failover_state:holding"));
  // No node saw its log diverge from its engine (§7.2.1): every promotion
  // seeded the gate's checksum chain with the replica's.
  for (Node& n : nodes) {
    if (!n.proc.running()) continue;
    EXPECT_EQ(ScrapeMetric(n.port, "repl_checksum_failures_total"), 0)
        << "node on port " << n.port;
  }

  // --- the verdict: the whole wire history must be linearizable -----------
  const std::vector<check::Operation> history = recorder.TakeHistory();
  ASSERT_GT(history.size(), 100u) << "suspiciously thin history";
  std::fprintf(stderr,
               "[chaos] checking %zu operations (%llu acked writes) across "
               "%d kill rounds + 1 zombie round\n",
               history.size(),
               static_cast<unsigned long long>(load.acked_writes()),
               kill_rounds);
  const check::CheckResult verdict = check::CheckKvHistory(history);
  if (!verdict.linearizable || !verdict.conclusive) {
    const std::string dump = "/tmp/memdb_chaos_history.jsonl";
    std::ofstream out(dump, std::ios::binary | std::ios::trunc);
    out << HistoryRecorder::ToJsonl(history);
    std::fprintf(stderr, "[chaos] history dumped to %s\n", dump.c_str());
  }
  EXPECT_TRUE(verdict.conclusive)
      << "checker hit its iteration budget after " << verdict.iterations;
  ASSERT_TRUE(verdict.linearizable)
      << "acked-write loss or reordering detected (" << verdict.iterations
      << " iterations)";
}

}  // namespace
}  // namespace memdb
