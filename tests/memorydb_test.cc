#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "client/db_client.h"
#include "common/coding.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "memorydb/shard.h"
#include "sim/simulation.h"
#include "storage/object_store.h"
#include "txlog/actor_transport.h"
#include "txlog/raft.h"

namespace memdb::memorydb {
namespace {

using client::ClientActor;
using client::DbClient;
using resp::Value;
using sim::kMs;
using sim::kSec;
using sim::NodeId;

// Writes raw records into a shard's log, bypassing every database node.
class LogWriter : public sim::Actor {
 public:
  LogWriter(sim::Simulation* sim, NodeId id, std::vector<NodeId> replicas)
      : Actor(sim, id),
        log(std::make_unique<txlog::ActorTransport>(this, std::move(replicas)),
            {.rpc_timeout_ms = 150}) {}
  txlog::LogClient log;
};

class MemoryDbTest : public ::testing::Test {
 protected:
  void Boot(int num_replicas = 2, bool with_offbox = false,
            uint64_t max_log_distance = 512, uint64_t seed = 2024) {
    writer_.reset();
    client_.reset();
    shard_.reset();
    s3_.reset();
    sim_ = std::make_unique<sim::Simulation>(seed);
    s3_ = std::make_unique<storage::ObjectStore>(sim_.get(),
                                                 sim_->AddHost(0));
    Shard::Options opts;
    opts.num_replicas = num_replicas;
    opts.object_store = s3_->id();
    opts.with_offbox = with_offbox;
    opts.snapshot_max_log_distance = max_log_distance;
    shard_ = std::make_unique<Shard>(sim_.get(), opts);
    client_ = std::make_unique<ClientActor>(sim_.get(), sim_->AddHost(0),
                                            shard_->node_ids());
    sim_->RunFor(3 * kSec);  // log election + shard bootstrap
  }

  Value Run(std::vector<std::string> argv, sim::Duration* latency = nullptr) {
    Value out = Value::Error("never completed");
    bool done = false;
    const sim::Time start = sim_->Now();
    client_->db.Command(std::move(argv), [&](const Value& v) {
      out = v;
      if (latency != nullptr) *latency = sim_->Now() - start;
      done = true;
    });
    for (int i = 0; i < 30000 && !done; ++i) sim_->RunFor(1 * kMs);
    EXPECT_TRUE(done);
    return out;
  }

  Value RunReadonly(std::vector<std::string> argv) {
    Value out = Value::Error("never completed");
    bool done = false;
    client_->db.CommandReadonly(std::move(argv), [&](const Value& v) {
      out = v;
      done = true;
    });
    for (int i = 0; i < 30000 && !done; ++i) sim_->RunFor(1 * kMs);
    EXPECT_TRUE(done);
    return out;
  }

  // Appends `r` straight to the log, bypassing every database node. It is
  // stamped with the primary's id, as a producer bug's record would be, so
  // the primary is not fenced by it.
  void AppendAsPrimary(txlog::LogRecord r) {
    r.writer = shard_->Primary()->id();
    if (writer_ == nullptr) {
      writer_ = std::make_unique<LogWriter>(sim_.get(), sim_->AddHost(0),
                                            shard_->log().replica_ids());
    }
    bool appended = false;
    writer_->log.Append(txlog::wire::kUnconditional, std::move(r),
                        [&](const Status& s, uint64_t) {
                          EXPECT_TRUE(s.ok()) << s.ToString();
                          appended = true;
                        });
    for (int i = 0; i < 5000 && !appended; ++i) sim_->RunFor(1 * kMs);
    ASSERT_TRUE(appended);
  }

  // Runs one off-box snapshot cycle and returns its outcome.
  Status RunOffboxCycle() {
    Status result = Status::TimedOut("cycle never finished");
    bool done = false;
    shard_->offbox()->Snapshot([&](const Status& s, uint64_t) {
      result = s;
      done = true;
    });
    for (int i = 0; i < 30000 && !done; ++i) sim_->RunFor(1 * kMs);
    return result;
  }

  int CountPrimaries() {
    int primaries = 0;
    for (size_t i = 0; i < shard_->num_nodes(); ++i) {
      if (sim_->IsAlive(shard_->node(i)->id()) &&
          shard_->node(i)->IsPrimary()) {
        ++primaries;
      }
    }
    return primaries;
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<storage::ObjectStore> s3_;
  std::unique_ptr<Shard> shard_;
  std::unique_ptr<ClientActor> client_;
  std::unique_ptr<LogWriter> writer_;
};

TEST_F(MemoryDbTest, BootstrapElectsOnePrimary) {
  Boot();
  EXPECT_EQ(CountPrimaries(), 1);
  EXPECT_NE(shard_->Primary(), nullptr);
}

TEST_F(MemoryDbTest, BasicCommandsRoundTrip) {
  Boot();
  EXPECT_EQ(Run({"SET", "k", "v"}), Value::Ok());
  EXPECT_EQ(Run({"GET", "k"}), Value::Bulk("v"));
  EXPECT_EQ(Run({"INCR", "n"}), Value::Integer(1));
  EXPECT_EQ(Run({"LPUSH", "l", "a", "b"}), Value::Integer(2));
  EXPECT_EQ(Run({"ZADD", "z", "1", "m"}), Value::Integer(1));
  EXPECT_EQ(Run({"GET", "missing"}), Value::Null());
}

TEST_F(MemoryDbTest, WritesPayMultiAzCommitLatency) {
  Boot();
  sim::Duration write_lat = 0, read_lat = 0;
  Run({"SET", "k", "v"}, &write_lat);
  Run({"GET", "k"}, &read_lat);
  // A write must wait for cross-AZ quorum replication (hundreds of us at
  // minimum); a hazard-free read is far cheaper.
  EXPECT_GT(write_lat, 500u);
  EXPECT_LT(read_lat, write_lat);
}

TEST_F(MemoryDbTest, EffectsReachReplicas) {
  Boot();
  Run({"SET", "k", "v"});
  Run({"SADD", "s", "a", "b", "c"});
  Run({"SPOP", "s"});
  sim_->RunFor(1 * kSec);
  Node* replica = shard_->AnyReplica();
  ASSERT_NE(replica, nullptr);
  engine::ExecContext ctx;
  ctx.now_ms = sim_->Now() / 1000;
  ctx.role = engine::Role::kReplicaRead;
  ctx.rng = &replica->engine().rng();
  EXPECT_EQ(replica->engine().Execute({"GET", "k"}, &ctx), Value::Bulk("v"));
  EXPECT_EQ(replica->engine().Execute({"SCARD", "s"}, &ctx),
            Value::Integer(2));
  // Replica state must exactly match the primary (same SPOP victim).
  Node* primary = shard_->Primary();
  ASSERT_NE(primary, nullptr);
  engine::SnapshotMeta meta;
  EXPECT_EQ(SerializeSnapshot(primary->engine().keyspace(), meta),
            SerializeSnapshot(replica->engine().keyspace(), meta));
}

TEST_F(MemoryDbTest, ReadonlyReadsServedByReplicas) {
  Boot();
  Run({"SET", "k", "v"});
  sim_->RunFor(500 * kMs);
  // Round-robin readonly reads land on replicas too; all see the value.
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(RunReadonly({"GET", "k"}), Value::Bulk("v"));
  }
}

TEST_F(MemoryDbTest, TrackerDefersHazardedReads) {
  Boot();
  Run({"SET", "hot", "v0"});  // settle
  // Fire a write and immediately a read of the same key, plus a read of an
  // unrelated key. The hazarded read must not complete before the write.
  bool write_done = false, hot_read_done = false, cold_read_done = false;
  sim::Time write_t = 0, hot_t = 0, cold_t = 0;
  client_->db.Command({"SET", "hot", "v1"}, [&](const Value& v) {
    write_done = true;
    write_t = sim_->Now();
    EXPECT_EQ(v, Value::Ok());
  });
  sim_->RunFor(50);  // let the write reach the engine but not commit
  client_->db.Command({"GET", "hot"}, [&](const Value& v) {
    hot_read_done = true;
    hot_t = sim_->Now();
    EXPECT_EQ(v, Value::Bulk("v1"));  // sees the new value...
  });
  client_->db.Command({"GET", "unrelated"}, [&](const Value& v) {
    cold_read_done = true;
    cold_t = sim_->Now();
  });
  sim_->RunFor(5 * kSec);
  ASSERT_TRUE(write_done && hot_read_done && cold_read_done);
  // ...but only after the write is durable.
  EXPECT_GE(hot_t, write_t);
  EXPECT_LT(cold_t, hot_t);  // unrelated read was not delayed
  EXPECT_GE(shard_->Primary()->stats().reads_deferred_by_tracker, 1u);
}

TEST_F(MemoryDbTest, FailoverPreservesAcknowledgedWrites) {
  Boot();
  std::vector<std::string> acked;
  for (int i = 0; i < 50; ++i) {
    const std::string key = "k" + std::to_string(i);
    if (Run({"SET", key, "v" + std::to_string(i)}) == Value::Ok()) {
      acked.push_back(key);
    }
  }
  ASSERT_EQ(acked.size(), 50u);

  // Kill the primary.
  Node* primary = shard_->Primary();
  ASSERT_NE(primary, nullptr);
  const NodeId old_primary = primary->id();
  sim_->Crash(old_primary);
  sim_->RunFor(3 * kSec);  // backoff + election

  Node* new_primary = shard_->Primary();
  ASSERT_NE(new_primary, nullptr);
  EXPECT_NE(new_primary->id(), old_primary);
  EXPECT_EQ(CountPrimaries(), 1);

  // Every acknowledged write must be readable (the paper's core claim).
  for (size_t i = 0; i < acked.size(); ++i) {
    EXPECT_EQ(Run({"GET", acked[i]}), Value::Bulk("v" + std::to_string(i)))
        << acked[i];
  }
}

TEST_F(MemoryDbTest, IsolatedPrimarySelfDemotesAndIsFenced) {
  Boot();
  Run({"SET", "k", "v"});
  Node* primary = shard_->Primary();
  ASSERT_NE(primary, nullptr);
  const NodeId old_id = primary->id();

  // Cut the primary off from everything (clients, log, peers).
  sim_->network().Isolate(old_id);
  sim_->RunFor(3 * kSec);

  // The old primary stopped serving (self-demoted at lease expiry), and a
  // caught-up replica took over. Never two primaries.
  EXPECT_FALSE(primary->IsPrimary());
  EXPECT_GE(primary->stats().demotions, 1u);
  Node* new_primary = shard_->Primary();
  ASSERT_NE(new_primary, nullptr);
  EXPECT_NE(new_primary->id(), old_id);

  // Cluster still serves reads and writes, and retains the data.
  EXPECT_EQ(Run({"GET", "k"}), Value::Bulk("v"));
  EXPECT_EQ(Run({"SET", "k2", "v2"}), Value::Ok());

  // Heal: the old primary rejoins as a replica and catches up.
  sim_->network().Heal(old_id);
  sim_->RunFor(5 * kSec);
  EXPECT_EQ(CountPrimaries(), 1);
  EXPECT_EQ(primary->db_role(), Node::DbRole::kReplica);
  EXPECT_TRUE(primary->caught_up());
}

TEST_F(MemoryDbTest, LeaseDisjointnessUnderRepeatedFailovers) {
  Boot();
  Rng chaos(5);
  int max_simultaneous = 0;
  for (int round = 0; round < 8; ++round) {
    // Crash whoever is primary.
    for (size_t i = 0; i < shard_->num_nodes(); ++i) {
      Node* n = shard_->node(i);
      if (sim_->IsAlive(n->id()) && n->IsPrimary()) {
        sim_->Crash(n->id());
        break;
      }
    }
    // Sample primary count densely through the failover window.
    for (int t = 0; t < 300; ++t) {
      sim_->RunFor(10 * kMs);
      max_simultaneous = std::max(max_simultaneous, CountPrimaries());
    }
    // Restart everyone dead, let the dust settle.
    for (size_t i = 0; i < shard_->num_nodes(); ++i) {
      if (!sim_->IsAlive(shard_->node(i)->id())) shard_->RestartNode(i);
    }
    sim_->RunFor(2 * kSec);
    max_simultaneous = std::max(max_simultaneous, CountPrimaries());
  }
  EXPECT_LE(max_simultaneous, 1) << "leader singularity violated";
  EXPECT_EQ(Run({"SET", "final", "x"}), Value::Ok());
}

TEST_F(MemoryDbTest, RestartedNodeRecoversFromLog) {
  Boot();
  for (int i = 0; i < 20; ++i) {
    Run({"SET", "k" + std::to_string(i), std::to_string(i)});
  }
  // Restart a replica; its memory is wiped and rebuilt from durable state.
  Node* replica = shard_->AnyReplica();
  ASSERT_NE(replica, nullptr);
  size_t idx = 0;
  for (size_t i = 0; i < shard_->num_nodes(); ++i) {
    if (shard_->node(i) == replica) idx = i;
  }
  sim_->Crash(replica->id());
  sim_->RunFor(500 * kMs);
  shard_->RestartNode(idx);
  sim_->RunFor(5 * kSec);
  EXPECT_EQ(replica->db_role(), Node::DbRole::kReplica);
  EXPECT_TRUE(replica->caught_up());
  engine::ExecContext ctx;
  ctx.now_ms = sim_->Now() / 1000;
  ctx.role = engine::Role::kReplicaRead;
  ctx.rng = &replica->engine().rng();
  EXPECT_EQ(replica->engine().Execute({"DBSIZE"}, &ctx), Value::Integer(20));
}

TEST_F(MemoryDbTest, OffboxSnapshotAndSnapshotDominantRestore) {
  Boot(/*num_replicas=*/2, /*with_offbox=*/true, /*max_log_distance=*/64);
  for (int i = 0; i < 300; ++i) {
    Run({"SET", "k" + std::to_string(i), std::to_string(i)});
  }
  sim_->RunFor(10 * kSec);  // freshness checks cut snapshots, trim the log
  ASSERT_GT(shard_->offbox()->snapshots_created(), 0u);
  EXPECT_FALSE(shard_->offbox()->verification_failed());
  EXPECT_GT(shard_->offbox()->last_snapshot_position(), 0u);

  // A brand-new replica restores snapshot-first and joins caught up.
  Node* newbie = shard_->AddReplica();
  sim_->RunFor(8 * kSec);
  EXPECT_TRUE(newbie->caught_up());
  engine::ExecContext ctx;
  ctx.now_ms = sim_->Now() / 1000;
  ctx.role = engine::Role::kReplicaRead;
  ctx.rng = &newbie->engine().rng();
  EXPECT_EQ(newbie->engine().Execute({"DBSIZE"}, &ctx), Value::Integer(300));
  EXPECT_FALSE(newbie->checksum_violation());
}

// The simulated off-box snapshotter replays the log before it uploads. A
// kData record that does not decode, or a checksum record that is not
// exactly 8 bytes, fails the cycle with Corruption and publishes nothing,
// as memorydb-snapshotd's ReplayLogTail does.
TEST_F(MemoryDbTest, OffboxRejectsMalformedEffectBatch) {
  txlog::LogRecord bad_batch;  // claims three arguments, carries one
  PutLengthPrefixed(&bad_batch.payload, "7.0.7");
  PutVarint64(&bad_batch.payload, 3);
  PutLengthPrefixed(&bad_batch.payload, "SET");
  txlog::LogRecord short_checksum;
  short_checksum.type = txlog::RecordType::kChecksum;
  short_checksum.payload = std::string(4, '\0');

  for (const txlog::LogRecord& bad : {bad_batch, short_checksum}) {
    SCOPED_TRACE(static_cast<int>(bad.type));
    // A distance the freshness check never reaches: the only cycle is the
    // test's.
    Boot(/*num_replicas=*/1, /*with_offbox=*/true,
         /*max_log_distance=*/uint64_t{1} << 40);
    EXPECT_EQ(Run({"SET", "k", "v"}), Value::Ok());
    AppendAsPrimary(bad);

    const uint64_t created = shard_->offbox()->snapshots_created();
    const Status result = RunOffboxCycle();
    EXPECT_TRUE(result.IsCorruption()) << result.ToString();
    EXPECT_EQ(shard_->offbox()->snapshots_created(), created);
  }
}

// A replica that failed a §7.2.1 check never campaigns: it would promote an
// engine that diverged from the log.
TEST_F(MemoryDbTest, ChecksumViolatingReplicaNeverCampaigns) {
  Boot(/*num_replicas=*/1);
  EXPECT_EQ(Run({"SET", "k", "v"}), Value::Ok());
  Node* primary = shard_->Primary();
  ASSERT_NE(primary, nullptr);
  Node* replica = shard_->AnyReplica();
  ASSERT_NE(replica, nullptr);
  txlog::LogRecord short_checksum;
  short_checksum.type = txlog::RecordType::kChecksum;
  short_checksum.payload = std::string(4, '\0');
  AppendAsPrimary(short_checksum);
  sim_->RunFor(1 * kSec);
  ASSERT_TRUE(replica->checksum_violation());

  sim_->Crash(primary->id());
  sim_->RunFor(5 * kSec);  // many backoffs
  EXPECT_FALSE(replica->IsPrimary());
  EXPECT_EQ(CountPrimaries(), 0);
  EXPECT_EQ(replica->metrics().GetCounter("node_campaigns_total")->value(),
            0u);
}

TEST_F(MemoryDbTest, MultiExecutesAtomically) {
  Boot();
  bool done = false;
  Value reply;
  client_->db.Multi({{"SET", "{t}a", "1"},
                     {"INCR", "{t}counter"},
                     {"SET", "{t}b", "2"}},
                    [&](const Value& v) {
                      reply = v;
                      done = true;
                    });
  for (int i = 0; i < 20000 && !done; ++i) sim_->RunFor(1 * kMs);
  ASSERT_TRUE(done);
  ASSERT_EQ(reply.array.size(), 3u);
  EXPECT_EQ(reply.array[1], Value::Integer(1));
  // All-or-nothing on replicas too.
  sim_->RunFor(1 * kSec);
  Node* replica = shard_->AnyReplica();
  engine::ExecContext ctx;
  ctx.now_ms = sim_->Now() / 1000;
  ctx.role = engine::Role::kReplicaRead;
  ctx.rng = &replica->engine().rng();
  EXPECT_EQ(replica->engine().Execute({"GET", "{t}a"}, &ctx),
            Value::Bulk("1"));
  EXPECT_EQ(replica->engine().Execute({"GET", "{t}b"}, &ctx),
            Value::Bulk("2"));
}

TEST_F(MemoryDbTest, UpgradeProtectionBlocksOlderReplica) {
  EXPECT_LT(CompareEngineVersions("7.0.7", "7.1.0"), 0);
  EXPECT_GT(CompareEngineVersions("7.10.0", "7.9.9"), 0);
  EXPECT_EQ(CompareEngineVersions("7.0.7", "7.0.7"), 0);

  // Bring up a shard whose primary speaks a newer engine version.
  client_.reset();
  shard_.reset();
  s3_.reset();
  sim_ = std::make_unique<sim::Simulation>(77);
  s3_ = std::make_unique<storage::ObjectStore>(sim_.get(), sim_->AddHost(0));
  Shard::Options opts;
  opts.num_replicas = 0;
  opts.object_store = s3_->id();
  opts.node_template.engine_version = "7.1.0";
  shard_ = std::make_unique<Shard>(sim_.get(), opts);
  client_ = std::make_unique<ClientActor>(sim_.get(), sim_->AddHost(0),
                                          shard_->node_ids());
  sim_->RunFor(3 * kSec);
  ASSERT_NE(shard_->Primary(), nullptr);

  // An old-version replica joins and must stop consuming the stream (§7.1).
  NodeConfig old_version;
  old_version.engine_version = "7.0.7";
  NodeConfig tmpl = old_version;
  // Reuse shard wiring manually.
  tmpl.shard_id = shard_->id();
  tmpl.log_replicas = shard_->log().replica_ids();
  tmpl.object_store = s3_->id();
  auto old_replica = std::make_unique<Node>(sim_.get(), sim_->AddHost(2),
                                            std::move(tmpl));
  Run({"SET", "k", "v"});
  sim_->RunFor(3 * kSec);
  EXPECT_FALSE(old_replica->caught_up());
  engine::ExecContext ctx;
  ctx.now_ms = sim_->Now() / 1000;
  ctx.role = engine::Role::kReplicaRead;
  ctx.rng = &old_replica->engine().rng();
  EXPECT_EQ(old_replica->engine().Execute({"GET", "k"}, &ctx), Value::Null());
}

TEST_F(MemoryDbTest, CollaborativeLeadershipHandover) {
  Boot();
  Run({"SET", "k", "v"});
  Node* primary = shard_->Primary();
  ASSERT_NE(primary, nullptr);
  // Instance-type scaling decommissions the primary last, using a
  // collaborative handover (§5.2): step down, let a replica take over.
  primary->StepDown();
  sim_->RunFor(4 * kSec);
  Node* new_primary = shard_->Primary();
  ASSERT_NE(new_primary, nullptr);
  EXPECT_NE(new_primary, primary);
  EXPECT_EQ(Run({"GET", "k"}), Value::Bulk("v"));
  EXPECT_EQ(CountPrimaries(), 1);
}

TEST_F(MemoryDbTest, WritesAreLinearizableAcrossCrashSequence) {
  Boot();
  // Counter increments with failovers in between; committed increments
  // must never be lost (monotonic counter, no regressions).
  int64_t highest_acked = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) {
      Value v = Run({"INCR", "counter"});
      if (v.type == resp::Type::kInteger) {
        EXPECT_GT(v.integer, highest_acked) << "counter regressed";
        highest_acked = v.integer;
      }
    }
    Node* primary = shard_->Primary();
    ASSERT_NE(primary, nullptr);
    sim_->Crash(primary->id());
    sim_->RunFor(3 * kSec);
    for (size_t i = 0; i < shard_->num_nodes(); ++i) {
      if (!sim_->IsAlive(shard_->node(i)->id())) shard_->RestartNode(i);
    }
    sim_->RunFor(2 * kSec);
  }
  Value final = Run({"GET", "counter"});
  ASSERT_EQ(final.type, resp::Type::kBulkString);
  EXPECT_GE(std::stoll(final.str), highest_acked);
}

// Streams INCRs with a window of four and no client-side retries (a
// retried INCR could count twice); returns the INCRs acknowledged.
class IncrStream : public sim::Actor {
 public:
  IncrStream(sim::Simulation* sim, NodeId id, std::vector<NodeId> nodes)
      : Actor(sim, id), db_(this, std::move(nodes), [] {
          DbClient::Options o;
          o.rpc_timeout = 10 * kSec;
          o.max_attempts = 1;
          return o;
        }()) {
    for (int i = 0; i < 4; ++i) Send();
  }
  void Stop() { sending_ = false; }
  int outstanding() const { return outstanding_; }
  int acked() const { return acked_; }

 private:
  void Send() {
    ++outstanding_;
    db_.Command({"INCR", "n"}, [this](const Value& v) {
      --outstanding_;
      if (v.type == resp::Type::kInteger) ++acked_;
      if (sending_) Send();
    });
  }

  DbClient db_;
  bool sending_ = true;
  int outstanding_ = 0;
  int acked_ = 0;
};

// The log group loses its leader mid-stream: the primary's append in
// flight times out or meets the new leader's barrier, and its gate reads
// the gap before completing anything; a primary whose lease lapses first
// answers the writes in flight only once the log shows whether their record
// landed. Over 20 seeds, every acknowledged INCR is in the log exactly once
// and nothing else is, and the §7.2.1 chain verifies.
TEST_F(MemoryDbTest, TxlogLeaderCrashKeepsAckedIncrsExactlyOnce) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Boot(2, false, 512, seed);
    IncrStream stream(sim_.get(), sim_->AddHost(0), shard_->node_ids());
    sim_->RunFor(500 * kMs);
    txlog::LogGroup& log = shard_->log();
    size_t leader = log.size();
    for (size_t i = 0; i < log.size(); ++i) {
      if (log.replica(i) == log.Leader()) leader = i;
    }
    ASSERT_LT(leader, log.size());
    log.Crash(leader);
    sim_->RunFor(1 * kSec);
    log.Restart(leader);
    sim_->RunFor(500 * kMs);
    stream.Stop();
    for (int i = 0; i < 20000 && stream.outstanding() > 0; ++i) {
      sim_->RunFor(1 * kMs);
    }
    ASSERT_EQ(stream.outstanding(), 0);
    sim_->RunFor(2 * kSec);  // replicas catch up

    ASSERT_GT(stream.acked(), 0);
    int replicas = 0;
    for (size_t i = 0; i < shard_->num_nodes(); ++i) {
      Node* n = shard_->node(i);
      if (!sim_->IsAlive(n->id()) || n->IsPrimary()) continue;
      ++replicas;
      engine::ExecContext ctx;
      ctx.role = engine::Role::kReplicaRead;
      EXPECT_EQ(n->engine().Execute({"GET", "n"}, &ctx).str,
                std::to_string(stream.acked()))
          << "node " << n->id();
      EXPECT_FALSE(n->checksum_violation()) << "node " << n->id();
    }
    EXPECT_EQ(replicas, 2);
  }
}

// One seed, one run, for the whole simulated shard: nodes, the log client's
// jittered retries, Raft and the off-box snapshotter. Two runs write through
// a primary crash, a txlog-leader crash and an off-box cycle; every log
// replica's entries, every node's applied index and every client reply
// (with the time it arrived) must match.
TEST_F(MemoryDbTest, OneSeedReplaysTheWholeShard) {
  using Entry = std::tuple<uint64_t, uint64_t, uint64_t, std::string>;
  struct Outcome {
    std::vector<std::string> replies;
    std::vector<std::vector<Entry>> logs;
    std::vector<uint64_t> applied;
    bool operator==(const Outcome&) const = default;
  };
  auto run_once = [this] {
    Outcome out;
    Boot(2, /*with_offbox=*/true, 512, /*seed=*/77);
    int next = 0;
    const auto write_some = [&] {
      for (int i = 0; i < 20; ++i, ++next) {
        sim::Duration latency = 0;
        const Value v = Run({"SET", "k" + std::to_string(next % 16),
                             std::to_string(next)},
                            &latency);
        out.replies.push_back(v.Encode() + "@" + std::to_string(latency));
      }
    };
    write_some();
    for (size_t i = 0; i < shard_->num_nodes(); ++i) {
      if (shard_->node(i) == shard_->Primary()) shard_->CrashNode(i);
    }
    sim_->RunFor(2 * kSec);
    write_some();
    txlog::LogGroup& log = shard_->log();
    for (size_t i = 0; i < log.size(); ++i) {
      if (log.replica(i) == log.Leader()) {
        log.Crash(i);
        sim_->RunFor(1 * kSec);
        log.Restart(i);
        break;
      }
    }
    write_some();
    const Status cycle = RunOffboxCycle();
    EXPECT_TRUE(cycle.ok()) << cycle.ToString();
    write_some();
    sim_->RunFor(2 * kSec);
    for (size_t i = 0; i < log.size(); ++i) {
      txlog::RaftReplica* r = log.replica(i);
      auto& entries = out.logs.emplace_back();
      for (const txlog::LogEntry& e :
           r->CommittedEntries(1, r->commit_index())) {
        entries.emplace_back(e.index, e.record.writer, e.record.request_id,
                             e.record.payload);
      }
    }
    for (size_t i = 0; i < shard_->num_nodes(); ++i) {
      out.applied.push_back(shard_->node(i)->applied_index());
    }
    return out;
  };
  const Outcome first = run_once();
  const Outcome second = run_once();
  ASSERT_EQ(first.replies.size(), 80u);
  EXPECT_FALSE(first.logs[0].empty());
  EXPECT_TRUE(first == second);
}

// A primary's appends retry inside the log client for at least one lease:
// a log outage shorter than that fails no write, and the primary demotes no
// sooner than its lease lapses (the demotion cancels what is left). The
// client's default attempts, which Node keeps, give that by their backoffs
// alone.
TEST(NodeConfigTest, LogAppendsRetryForAtLeastOneLease) {
  const txlog::LogClient::Options client;
  uint64_t backoff_floor_ms = 0;
  for (int n = 0; n + 1 < client.max_attempts; ++n) {
    backoff_floor_ms += txlog::LogClient::BackoffCeilingMs(client, n) / 2;
  }
  EXPECT_GE(backoff_floor_ms * kMs, NodeConfig{}.lease_duration);
}

// ------------------------------------------------------- observability

TEST_F(MemoryDbTest, WriteTraceReconstructsFullCommitChain) {
  Boot();
  ASSERT_EQ(Run({"SET", "traced", "v"}), Value::Ok());

  Node* primary = shard_->Primary();
  ASSERT_NE(primary, nullptr);

  // The SET is the last write the node enqueued: recover its trace id from
  // the node's own span log.
  uint64_t trace_id = 0;
  for (const TraceSpan& s : primary->trace_log().Snapshot()) {
    if (s.stage == "pipeline.enqueue") trace_id = s.trace_id;
  }
  ASSERT_NE(trace_id, 0u);
  // Trace ids are namespaced by the allocating node.
  EXPECT_EQ(trace_id >> 32, primary->id());

  // Merge the node's spans with every log replica's to rebuild the write's
  // causal chain across actors.
  txlog::LogGroup& log = shard_->log();
  ASSERT_EQ(log.size(), 3u);  // one log replica per AZ
  auto spans = TraceLog::Reconstruct(
      trace_id, {&primary->trace_log(), &log.replica(0)->trace_log(),
                 &log.replica(1)->trace_log(), &log.replica(2)->trace_log()});

  auto first_at = [&](const std::string& stage) -> int64_t {
    for (const TraceSpan& s : spans) {
      if (s.stage == stage) return static_cast<int64_t>(s.at_us);
    }
    return -1;
  };
  // Every stage of the durable write path is present...
  const char* chain[] = {"cmd.receive",        "pipeline.enqueue",
                         "append.issue",       "log.append.receive",
                         "log.durable.local",  "log.quorum.commit",
                         "append.ack",         "cmd.release"};
  int64_t prev = 0;
  for (const char* stage : chain) {
    const int64_t at = first_at(stage);
    ASSERT_GE(at, 0) << "missing stage " << stage;
    // ...with sim-clock timestamps that never go backwards along the chain.
    EXPECT_GE(at, prev) << "stage " << stage << " precedes its predecessor";
    prev = at;
  }
  // Quorum needs at least one follower durability ack before commit.
  const int64_t follower_durable = first_at("log.follower.durable");
  ASSERT_GE(follower_durable, 0);
  EXPECT_LE(follower_durable, first_at("log.quorum.commit"));
}

TEST_F(MemoryDbTest, InfoReportsConfiguredVersionAndStats) {
  Boot();
  ASSERT_EQ(Run({"SET", "k", "v"}), Value::Ok());
  Run({"GET", "k"});
  Run({"GET", "k"});

  Value info = Run({"INFO"});
  ASSERT_EQ(info.type, resp::Type::kBulkString);
  const std::string& text = info.str;
  // Server/Replication fields come from the node, not a hardcoded string.
  EXPECT_NE(text.find("engine_version:" +
                      memorydb::NodeConfig().engine_version),
            std::string::npos);
  EXPECT_NE(text.find("role:master"), std::string::npos);
  // Commandstats/Latencystats are populated from the shared registry.
  EXPECT_NE(text.find("cmdstat_set:calls=1,"), std::string::npos);
  EXPECT_NE(text.find("cmdstat_get:calls=2,"), std::string::npos);
  EXPECT_NE(text.find("latency_percentiles_usec_set:p50="),
            std::string::npos);
  EXPECT_NE(text.find("latency_percentiles_usec_get:p50="),
            std::string::npos);

  // Section filter returns just the requested section.
  Value stats = Run({"INFO", "commandstats"});
  ASSERT_EQ(stats.type, resp::Type::kBulkString);
  EXPECT_NE(stats.str.find("# Commandstats"), std::string::npos);
  EXPECT_EQ(stats.str.find("# Server"), std::string::npos);
}

TEST_F(MemoryDbTest, MetricsCommandReturnsExposition) {
  Boot();
  ASSERT_EQ(Run({"SET", "k", "v"}), Value::Ok());
  Value metrics = Run({"METRICS"});
  ASSERT_EQ(metrics.type, resp::Type::kBulkString);
  const std::string& text = metrics.str;
  EXPECT_NE(text.find("# TYPE engine_commands_total counter"),
            std::string::npos);
  double v = 0;
  ASSERT_TRUE(MetricsRegistry::ParseSeries(
      text, "engine_commands_total{cmd=\"SET\"}", &v));
  EXPECT_GE(v, 1.0);
  // Node-side series live in the same registry (shared with the engine).
  ASSERT_TRUE(
      MetricsRegistry::ParseSeries(text, "write_commit_latency_us_count", &v));
  EXPECT_GE(v, 1.0);
}

TEST_F(MemoryDbTest, NodeMetricsTrackWritePath) {
  Boot();
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(Run({"SET", "k" + std::to_string(i), "v"}), Value::Ok());
  }
  Node* primary = shard_->Primary();
  ASSERT_NE(primary, nullptr);
  const MetricsRegistry& reg = primary->metrics();
  EXPECT_GE(reg.FindCounter("node_records_appended_total")->value(), 10u);
  const Histogram* commit = reg.FindHistogram("write_commit_latency_us");
  ASSERT_NE(commit, nullptr);
  EXPECT_GE(commit->count(), 10u);
  // Each commit waited on cross-AZ quorum: hundreds of microseconds.
  EXPECT_GT(commit->Percentile(0.5), 500u);
  // The raft leader saw the appends and measured commit latency too.
  txlog::RaftReplica* leader = shard_->log().Leader();
  ASSERT_NE(leader, nullptr);
  EXPECT_GE(leader->metrics().FindCounter("txlog_client_appends_total")
                ->value(),
            10u);
  const Histogram* raft_commit =
      leader->metrics().FindHistogram("txlog_commit_latency_us");
  ASSERT_NE(raft_commit, nullptr);
  EXPECT_GE(raft_commit->count(), 10u);
}

}  // namespace
}  // namespace memdb::memorydb
