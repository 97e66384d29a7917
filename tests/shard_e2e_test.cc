// End-to-end slot migration over the REAL binaries (§5): two cluster-mode
// memorydb-server primaries, each durable through its own memorydb-txlogd
// group and holding its shard lease (--failover), split the slot space.
// Under continuous ClusterClient write traffic on one slot, the source is
// told CLUSTER SETSLOT ... MIGRATE: it streams the slot's keys to the
// importing peer over the ASKING+RESTORE channel and commits the ownership
// flip as a lease-fenced kSlotOwnership append. The test asserts:
//
//   - zero acked-write loss: every value acked during the migration is
//     readable afterwards, served by the new owner;
//   - the redirect protocol was actually exercised: -ASK observed from the
//     source mid-migration, -MOVED observed and followed after the flip;
//   - zero wrong-shard acks: a write sent directly to the old owner after
//     the flip answers -MOVED, not +OK;
//   - no divergence: repl_checksum_failures_total is 0 on both servers.
//
// Binary paths arrive via MEMDB_SERVER_BIN / MEMDB_TXLOGD_BIN; the test
// skips when absent so the suite still runs standalone.

#include <gtest/gtest.h>

#include <signal.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "chaos/process.h"
#include "client/cluster_client.h"
#include "client/resp_conn.h"
#include "common/crc.h"
#include "common/metrics.h"
#include "resp/resp.h"

namespace memdb {
namespace {

using chaos::ChildProcess;
using chaos::EnvOr;
using chaos::PickFreePort;
using chaos::TempDir;
using chaos::WaitForPort;
using client::ClusterClient;
using client::RespConn;
using resp::Value;

constexpr uint64_t kDeadlineMs = 10000;
constexpr uint64_t kPortWaitMs = 15000;

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

std::string Ep(uint16_t port) { return "127.0.0.1:" + std::to_string(port); }

TEST(ShardE2eTest, LiveSlotMigrationUnderTrafficWithZeroAckedLoss) {
  const std::string server_bin = EnvOr("MEMDB_SERVER_BIN");
  const std::string txlogd_bin = EnvOr("MEMDB_TXLOGD_BIN");
  if (server_bin.empty() || txlogd_bin.empty()) {
    GTEST_SKIP() << "MEMDB_*_BIN not set; run under ctest";
  }

  TempDir log_dir1, log_dir2;
  const uint16_t log_port1 = PickFreePort(), log_port2 = PickFreePort();
  const uint16_t port1 = PickFreePort(), port2 = PickFreePort();

  // --- each shard gets its own single-node transaction-log group ----------
  ChildProcess txlogd1, txlogd2;
  ASSERT_TRUE(txlogd1.Spawn({txlogd_bin, "--node-id", "1", "--peers",
                             Ep(log_port1), "--data-dir", log_dir1.path,
                             "--no-fsync"}).ok());
  ASSERT_TRUE(txlogd2.Spawn({txlogd_bin, "--node-id", "1", "--peers",
                             Ep(log_port2), "--data-dir", log_dir2.path,
                             "--no-fsync"}).ok());
  ASSERT_TRUE(WaitForPort(log_port1, kPortWaitMs));
  ASSERT_TRUE(WaitForPort(log_port2, kPortWaitMs));

  // --- two cluster-mode primaries, lease-holding, splitting the space ----
  ChildProcess server1, server2;
  ASSERT_TRUE(server1.Spawn(
      {server_bin, "--port", std::to_string(port1), "--txlog-endpoints",
       Ep(log_port1), "--writer-id", "1", "--failover", "--shard-id",
       "shard1", "--cluster", "--cluster-slots", "0-8191", "--cluster-peer",
       "shard2@" + Ep(port2) + "=8192-16383", "--migration-batch-keys",
       "8"}).ok());
  ASSERT_TRUE(server2.Spawn(
      {server_bin, "--port", std::to_string(port2), "--txlog-endpoints",
       Ep(log_port2), "--writer-id", "2", "--failover", "--shard-id",
       "shard2", "--cluster", "--cluster-slots", "8192-16383",
       "--cluster-peer", "shard1@" + Ep(port1) + "=0-8191",
       "--migration-batch-keys", "8"}).ok());
  ASSERT_TRUE(WaitForPort(port1, kPortWaitMs));
  ASSERT_TRUE(WaitForPort(port2, kPortWaitMs));

  // All migrating keys share the {m1} hash tag -> slot 6916, shard one.
  const uint16_t slot = KeyHashSlot(Slice("{m1}"));
  ASSERT_LT(slot, 8192);
  auto key_of = [](int i) { return "{m1}k" + std::to_string(i); };

  // --- seed the slot so the stream takes many batches ---------------------
  const int kKeys = 400;
  ClusterClient seeder({Ep(port1), Ep(port2)});
  ASSERT_TRUE(seeder.RefreshSlotMap().ok());
  Value reply;
  resp::Value r;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(seeder.Execute({"SET", key_of(i), "seed"}, &r).ok());
    ASSERT_EQ(r.str, "OK") << "seed write " << i;
  }
  // A couple of keys on shard two prove cross-shard routing stays intact.
  ASSERT_TRUE(seeder.Execute({"SET", "foo", "on-shard2"}, &r).ok());
  ASSERT_EQ(r.str, "OK");

  // --- live traffic on the migrating slot, stale map on purpose -----------
  // The writer's map is warmed BEFORE the migration and never manually
  // refreshed: every redirect it follows is the protocol working.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> write_failures{0};
  std::map<std::string, std::string> acked;  // writer thread only, then main
  ClusterClient writer({Ep(port1), Ep(port2)});
  ASSERT_TRUE(writer.RefreshSlotMap().ok());
  std::thread traffic([&] {
    uint64_t seq = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::string key = key_of(static_cast<int>(seq) % kKeys);
      const std::string val = "v" + std::to_string(seq);
      resp::Value wr;
      const Status s = writer.Execute({"SET", key, val}, &wr);
      if (s.ok() && wr.type == resp::Type::kSimpleString && wr.str == "OK") {
        acked[key] = val;  // acked: must never be lost
      } else {
        write_failures.fetch_add(1, std::memory_order_relaxed);
      }
      ++seq;
    }
  });
  SleepMs(100);  // let traffic establish against the pre-flip owner

  // --- kick the migration while writes are in flight ----------------------
  {
    RespConn admin(port1, kDeadlineMs);
    ASSERT_TRUE(admin.connected());
    const Value v = admin.RoundTrip({"CLUSTER", "SETSLOT",
                                     std::to_string(slot), "MIGRATE",
                                     "shard2", Ep(port2)});
    ASSERT_EQ(v.str, "OK") << "migration failed to start: " << v.str;
  }

  // --- witness the mid-migration ASK window from the source itself --------
  // A key already streamed to the importer answers -ASK at the source while
  // the slot is still migrating. Scan a few keys per round until seen.
  int ask_seen = 0, moved_seen_direct = 0;
  {
    RespConn direct(port1, kDeadlineMs);
    ASSERT_TRUE(direct.connected());
    for (int round = 0; round < 4000 && ask_seen == 0; ++round) {
      const Value v = direct.RoundTrip({"GET", key_of(round % kKeys)});
      if (v.type == resp::Type::kError) {
        if (v.str.rfind("ASK", 0) == 0) ++ask_seen;
        if (v.str.rfind("MOVED", 0) == 0) {
          ++moved_seen_direct;  // flip already committed; window missed
          break;
        }
      }
    }
  }
  EXPECT_GE(ask_seen + moved_seen_direct, 1)
      << "neither ASK nor MOVED ever observed from the source";

  // --- wait for the fenced flip to commit ---------------------------------
  bool flipped = false;
  for (int i = 0; i < 1200 && !flipped; ++i) {
    ClusterClient probe({Ep(port2)});
    flipped = probe.RefreshSlotMap().ok() &&
              probe.EndpointForSlot(slot) == Ep(port2);
    if (!flipped) SleepMs(25);
  }
  ASSERT_TRUE(flipped) << "ownership flip never committed";

  // Let the stale-map writer discover the flip through -MOVED, then stop.
  SleepMs(300);
  stop.store(true, std::memory_order_release);
  traffic.join();
  ASSERT_GT(acked.size(), 0u);
  EXPECT_GE(writer.moved_redirects(), 1u)
      << "stale-map writer never followed a MOVED";

  // --- zero wrong-shard acks: the old owner refuses the slot outright -----
  {
    RespConn direct(port1, kDeadlineMs);
    ASSERT_TRUE(direct.connected());
    const Value stale_write = direct.RoundTrip({"SET", "{m1}stale", "x"});
    ASSERT_EQ(stale_write.type, resp::Type::kError);
    EXPECT_EQ(stale_write.str.rfind("MOVED", 0), 0u)
        << "stale owner acked a write for a slot it gave away: "
        << stale_write.str;
  }

  // --- zero acked-write loss: every acked value survives the move ---------
  ClusterClient verifier({Ep(port1), Ep(port2)});
  ASSERT_TRUE(verifier.RefreshSlotMap().ok());
  EXPECT_EQ(verifier.EndpointForSlot(slot), Ep(port2));
  for (const auto& [key, val] : acked) {
    resp::Value got;
    ASSERT_TRUE(verifier.Execute({"GET", key}, &got).ok()) << key;
    EXPECT_EQ(got.str, val) << "acked write lost across migration: " << key;
  }
  // Seeded keys the writer never overwrote must still exist too.
  for (int i = 0; i < kKeys; ++i) {
    if (acked.count(key_of(i)) != 0) continue;
    resp::Value got;
    ASSERT_TRUE(verifier.Execute({"GET", key_of(i)}, &got).ok());
    EXPECT_EQ(got.str, "seed") << key_of(i);
  }
  // Cross-shard key untouched by all of this.
  ASSERT_TRUE(verifier.Execute({"GET", "foo"}, &r).ok());
  EXPECT_EQ(r.str, "on-shard2");

  // The source's INFO accounts for the migration.
  {
    RespConn direct(port1, kDeadlineMs);
    const Value info = direct.RoundTrip({"INFO", "CLUSTER"});
    EXPECT_NE(info.str.find("cluster_migrations_total:1"), std::string::npos)
        << info.str;
  }

  // Neither shard's replay check ever failed (§7.2.1).
  for (const uint16_t port : {port1, port2}) {
    RespConn direct(port, kDeadlineMs);
    const Value metrics = direct.RoundTrip({"METRICS"});
    double failures = -1;
    EXPECT_TRUE(MetricsRegistry::ParseSeries(
        metrics.str, "repl_checksum_failures_total", &failures));
    EXPECT_EQ(failures, 0) << "server on port " << port;
  }

  server1.Kill(SIGTERM);
  server2.Kill(SIGTERM);
  txlogd1.Kill(SIGTERM);
  txlogd2.Kill(SIGTERM);
}

}  // namespace
}  // namespace memdb
