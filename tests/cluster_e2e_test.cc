// End-to-end cluster test over the REAL binaries: three memorydb-txlogd
// processes form the transaction-log group, a memorydb-server primary
// writes through it, memorydb-snapshotd --once takes an off-box snapshot,
// the primary is SIGKILLed and restarted with --restore (peer-less
// recovery, §4.2.1), and a log-fed replica started from the same snapshot
// store converges — with zero acked-write loss end to end.
//
// Binary paths arrive via MEMDB_SERVER_BIN / MEMDB_TXLOGD_BIN /
// MEMDB_SNAPSHOTD_BIN (set by tests/CMakeLists.txt from the build's target
// locations); the test skips when they are absent so the suite still runs
// standalone.

#include <gtest/gtest.h>

#include <signal.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chaos/process.h"
#include "client/resp_conn.h"
#include "common/trace_export.h"
#include "resp/resp.h"

namespace memdb {
namespace {

using chaos::ChildProcess;
using chaos::EnvOr;
using chaos::PickFreePort;
using chaos::TempDir;
using chaos::WaitForPort;
using client::RespConn;
using resp::Value;

constexpr uint64_t kDeadlineMs = 10000;  // appends ride quorum commits
constexpr uint64_t kPortWaitMs = 10000;

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

bool WaitForKey(uint16_t port, const std::string& key, const std::string& want,
                int timeout_ms = 15000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    RespConn c(port, kDeadlineMs);
    if (c.connected()) {
      const Value v = c.RoundTrip({"GET", key});
      if (v.type == resp::Type::kBulkString && v.str == want) return true;
    }
    SleepMs(50);
  }
  return false;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Runs `cmd` via popen and captures stdout (offline-tool smoke checks).
std::string CaptureStdout(const std::string& cmd) {
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return "";
  std::string out;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    out.append(buf, n);
  }
  ::pclose(pipe);
  return out;
}

TEST(ClusterE2eTest, KillPrimaryRestoreAndReplicaConvergeWithZeroAckedLoss) {
  const std::string server_bin = EnvOr("MEMDB_SERVER_BIN");
  const std::string txlogd_bin = EnvOr("MEMDB_TXLOGD_BIN");
  const std::string snapshotd_bin = EnvOr("MEMDB_SNAPSHOTD_BIN");
  if (server_bin.empty() || txlogd_bin.empty() || snapshotd_bin.empty()) {
    GTEST_SKIP() << "MEMDB_*_BIN not set; run under ctest";
  }

  TempDir log_dir1, log_dir2, log_dir3, store_dir, trace_dir;
  const uint16_t log_ports[3] = {PickFreePort(), PickFreePort(),
                                 PickFreePort()};
  const uint16_t primary_port = PickFreePort();
  const uint16_t replica_port = PickFreePort();
  const std::string log_endpoints = "127.0.0.1:" +
                                    std::to_string(log_ports[0]) +
                                    ",127.0.0.1:" +
                                    std::to_string(log_ports[1]) +
                                    ",127.0.0.1:" +
                                    std::to_string(log_ports[2]);

  // --- 1. the 3-replica transaction-log group (one process per AZ) --------
  const std::string* log_dirs[3] = {&log_dir1.path, &log_dir2.path,
                                    &log_dir3.path};
  ChildProcess txlogd[3];
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(txlogd[i].Spawn(
        {txlogd_bin, "--node-id", std::to_string(i + 1), "--peers",
         log_endpoints, "--data-dir", *log_dirs[i], "--no-fsync",
         "--heartbeat-ms", "20", "--election-min-ms", "50",
         "--election-max-ms", "120", "--trace-file",
         trace_dir.path + "/txlogd-" + std::to_string(i + 1) + ".jsonl"}).ok());
  }
  for (const uint16_t p : log_ports) ASSERT_TRUE(WaitForPort(p, kPortWaitMs));

  // --- 2. durable primary; 50 acked writes --------------------------------
  ChildProcess primary;
  ASSERT_TRUE(primary
                  .Spawn({server_bin, "--port", std::to_string(primary_port),
                          "--txlog-endpoints", log_endpoints,
                          "--checksum-every", "8", "--writer-id", "7"})
                  .ok());
  ASSERT_TRUE(WaitForPort(primary_port, kPortWaitMs));
  {
    RespConn c(primary_port, kDeadlineMs);
    ASSERT_TRUE(c.connected());
    for (int i = 1; i <= 50; ++i) {
      ASSERT_EQ(c.RoundTrip({"SET", "key" + std::to_string(i),
                             "val" + std::to_string(i)}),
                Value::Simple("OK"))
          << "write " << i << " was not acked";
    }
  }

  // --- 3. off-box snapshot of the first 50 writes -------------------------
  ChildProcess snapshotd;
  ASSERT_TRUE(snapshotd.Spawn({snapshotd_bin, "--txlog", log_endpoints,
                               "--store-dir", store_dir.path, "--no-fsync",
                               "--trim-slack", "8", "--once"}).ok());
  ASSERT_EQ(snapshotd.WaitExit(30000), 0) << "snapshot cycle failed";

  // --- 4. 50 more acked writes, landing only in the log tail --------------
  {
    RespConn c(primary_port, kDeadlineMs);
    ASSERT_TRUE(c.connected());
    for (int i = 51; i <= 100; ++i) {
      ASSERT_EQ(c.RoundTrip({"SET", "key" + std::to_string(i),
                             "val" + std::to_string(i)}),
                Value::Simple("OK"))
          << "write " << i << " was not acked";
    }
  }

  // --- 5. SIGKILL the primary: no flush, no goodbye -----------------------
  primary.Kill(SIGKILL);

  // --- 6. restart with --restore: snapshot + log tail, no peers -----------
  ChildProcess restored;
  ASSERT_TRUE(restored.Spawn(
      {server_bin, "--port", std::to_string(primary_port),
       "--txlog-endpoints", log_endpoints, "--checksum-every", "8",
       "--writer-id", "8", "--restore", "--store-dir", store_dir.path,
       "--trace-file", trace_dir.path + "/server.jsonl",
       "--slowlog-slower-than-us", "0"}).ok());
  ASSERT_TRUE(WaitForPort(primary_port, 20000));
  {
    RespConn c(primary_port, kDeadlineMs);
    ASSERT_TRUE(c.connected());
    // Every acked write survived the kill: first 50 via the off-box
    // snapshot, the rest via the replayed log tail.
    for (int i = 1; i <= 100; ++i) {
      EXPECT_EQ(c.RoundTrip({"GET", "key" + std::to_string(i)}),
                Value::Bulk("val" + std::to_string(i)))
          << "acked write " << i << " lost across SIGKILL + restore";
    }
    // And the restored primary still takes writes through the log.
    ASSERT_EQ(c.RoundTrip({"SET", "post-restore", "yes"}),
              Value::Simple("OK"));

    // Observability plane, live: INFO # Server identity fields...
    const Value info = c.RoundTrip({"INFO", "server"});
    ASSERT_EQ(info.type, resp::Type::kBulkString);
    EXPECT_NE(info.str.find("# Server"), std::string::npos);
    EXPECT_NE(info.str.find("process_id:"), std::string::npos);
    EXPECT_NE(info.str.find("run_id:"), std::string::npos);
    EXPECT_NE(info.str.find("uptime_in_seconds:"), std::string::npos);
    EXPECT_NE(info.str.find("build_sha:"), std::string::npos);

    // ...TRACE DUMP returns the span log with the acked write's receipt...
    const Value dump = c.RoundTrip({"TRACE", "DUMP"});
    ASSERT_EQ(dump.type, resp::Type::kBulkString);
    EXPECT_NE(dump.str.find("\"stage\":\"cmd.receive\""), std::string::npos);
    EXPECT_NE(dump.str.find("\"stage\":\"reply.release\""),
              std::string::npos);

    // ...and SLOWLOG (threshold 0: every durable write logs) has entries
    // in the Redis reply shape.
    const Value slen = c.RoundTrip({"SLOWLOG", "LEN"});
    ASSERT_EQ(slen.type, resp::Type::kInteger);
    EXPECT_GE(slen.integer, 1);
    const Value sget = c.RoundTrip({"SLOWLOG", "GET", "1"});
    ASSERT_EQ(sget.type, resp::Type::kArray);
    ASSERT_EQ(sget.array.size(), 1u);
    ASSERT_EQ(sget.array[0].type, resp::Type::kArray);
    ASSERT_EQ(sget.array[0].array.size(), 4u);  // id, ts, duration, argv
    EXPECT_EQ(sget.array[0].array[3].array[0], Value::Bulk("SET"));
  }

  // --- 7. log-fed replica seeded from the same snapshot store -------------
  ChildProcess replica;
  ASSERT_TRUE(replica.Spawn({server_bin, "--port",
                             std::to_string(replica_port), "--replica-of-log",
                             log_endpoints, "--restore", "--store-dir",
                             store_dir.path}).ok());
  ASSERT_TRUE(WaitForPort(replica_port, 20000));
  EXPECT_TRUE(WaitForKey(replica_port, "key1", "val1"));
  EXPECT_TRUE(WaitForKey(replica_port, "key100", "val100"));
  EXPECT_TRUE(WaitForKey(replica_port, "post-restore", "yes"));
  {
    RespConn c(replica_port, kDeadlineMs);
    ASSERT_TRUE(c.connected());
    EXPECT_EQ(c.RoundTrip({"WAIT", "0", "100"}), Value::Integer(0));
    const Value err = c.RoundTrip({"SET", "nope", "x"});
    ASSERT_EQ(err.type, resp::Type::kError);
    EXPECT_EQ(err.str.rfind("READONLY", 0), 0u) << err.str;
    const Value info = c.RoundTrip({"INFO"});
    ASSERT_EQ(info.type, resp::Type::kBulkString);
    EXPECT_NE(info.str.find("role:replica"), std::string::npos);
  }
  // The link gauge flips to "up" once the follower's first long-poll read
  // returns; poll rather than race it.
  {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    bool link_up = false;
    while (!link_up && std::chrono::steady_clock::now() < deadline) {
      RespConn c(replica_port, kDeadlineMs);
      const Value info = c.RoundTrip({"INFO", "replication"});
      link_up = info.str.find("replica_link_status:up") != std::string::npos;
      if (!link_up) SleepMs(50);
    }
    EXPECT_TRUE(link_up);
  }

  // --- teardown: orderly SIGTERM (destructors SIGKILL as backstop) --------
  // Each daemon exports its TraceLog to --trace-file on the way down.
  replica.Kill(SIGTERM);
  restored.Kill(SIGTERM);
  for (auto& t : txlogd) t.Kill(SIGTERM);

  // --- 8. offline reconstruction: one acked write must leave a complete
  // cross-process span chain in the per-process JSONL exports -------------
  const std::vector<std::string> trace_files = {
      trace_dir.path + "/server.jsonl", trace_dir.path + "/txlogd-1.jsonl",
      trace_dir.path + "/txlogd-2.jsonl", trace_dir.path + "/txlogd-3.jsonl"};
  std::vector<ExportedSpan> spans;
  for (const std::string& f : trace_files) {
    ParseSpansJsonl(ReadFileOrEmpty(f), &spans);
  }
  ASSERT_FALSE(spans.empty()) << "no spans exported to " << trace_dir.path;
  const auto by_trace = GroupSpansByTrace(std::move(spans));
  bool chain_found = false;
  for (const auto& [trace_id, trace_spans] : by_trace) {
    std::set<std::string> stages;
    std::set<std::string> procs;
    for (const ExportedSpan& s : trace_spans) {
      stages.insert(s.stage);
      procs.insert(s.proc);
    }
    if (stages.count("cmd.receive") != 0 &&
        stages.count("log.append.receive") != 0 &&
        stages.count("log.quorum.commit") != 0 &&
        stages.count("reply.release") != 0 && procs.size() >= 2) {
      chain_found = true;
      break;
    }
  }
  EXPECT_TRUE(chain_found)
      << "no acked write reconstructs a complete cross-process chain";

  // The offline tool agrees: memorydb-trace over the same files reports at
  // least one complete chain.
  const std::string trace_bin = EnvOr("MEMDB_TRACE_BIN");
  if (!trace_bin.empty()) {
    std::string cmd = "'" + trace_bin + "'";
    for (const std::string& f : trace_files) cmd += " '" + f + "'";
    const std::string out = CaptureStdout(cmd);
    const size_t pos = out.find("complete_chains=");
    ASSERT_NE(pos, std::string::npos) << out;
    const long chains =
        std::strtol(out.c_str() + pos + std::strlen("complete_chains="),
                    nullptr, 10);
    EXPECT_GE(chains, 1) << out;
  }
}

}  // namespace
}  // namespace memdb
