#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "client/db_client.h"
#include "cluster/cluster.h"
#include "common/coding.h"
#include "sim/simulation.h"
#include "storage/object_store.h"

namespace memdb::cluster {
namespace {

using client::ClientActor;
using memorydb::Node;
using resp::Value;
using sim::kMs;
using sim::kSec;
using sim::NodeId;

class ClusterTest : public ::testing::Test {
 protected:
  void Boot(int shards = 2, int replicas = 1) {
    client_.reset();
    cluster_.reset();
    s3_.reset();
    sim_ = std::make_unique<sim::Simulation>(31337);
    s3_ = std::make_unique<storage::ObjectStore>(sim_.get(), sim_->AddHost(0));
    Cluster::Options opts;
    opts.num_shards = shards;
    opts.replicas_per_shard = replicas;
    opts.object_store = s3_->id();
    cluster_ = std::make_unique<Cluster>(sim_.get(), opts);
    client_ = std::make_unique<ClientActor>(sim_.get(), sim_->AddHost(0),
                                            cluster_->AllNodeIds());
    sim_->RunFor(3 * kSec);
  }

  Value Run(std::vector<std::string> argv) {
    Value out = Value::Error("never completed");
    bool done = false;
    client_->db.Command(std::move(argv), [&](const Value& v) {
      out = v;
      done = true;
    });
    for (int i = 0; i < 60000 && !done; ++i) sim_->RunFor(1 * kMs);
    EXPECT_TRUE(done);
    return out;
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<storage::ObjectStore> s3_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<ClientActor> client_;
};

TEST_F(ClusterTest, EveryShardElectsAPrimary) {
  Boot(3);
  for (size_t i = 0; i < cluster_->num_shards(); ++i) {
    EXPECT_NE(cluster_->shard(i)->Primary(), nullptr) << "shard " << i;
  }
}

TEST_F(ClusterTest, ClientRoutesAcrossShards) {
  Boot(2);
  // Keys spread over both shards; the client discovers routing via MOVED.
  std::set<size_t> shards_hit;
  for (int i = 0; i < 40; ++i) {
    const std::string key = "key:" + std::to_string(i);
    EXPECT_EQ(Run({"SET", key, "v" + std::to_string(i)}), Value::Ok());
    shards_hit.insert(cluster_->ShardForSlot(KeyHashSlot(key)));
  }
  EXPECT_EQ(shards_hit.size(), 2u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(Run({"GET", "key:" + std::to_string(i)}),
              Value::Bulk("v" + std::to_string(i)));
  }
}

TEST_F(ClusterTest, CrossSlotCommandsRejected) {
  Boot(2);
  // Multi-key commands spanning slots are refused (§2.1).
  Value v = Run({"MSET", "a", "1", "b", "2"});
  // "a" and "b" hash to different slots.
  ASSERT_NE(KeyHashSlot("a"), KeyHashSlot("b"));
  EXPECT_TRUE(v.IsError());
  EXPECT_NE(v.str.find("CROSSSLOT"), std::string::npos);
  // Hash tags route multi-key commands to one slot.
  EXPECT_EQ(Run({"MSET", "{user}a", "1", "{user}b", "2"}), Value::Ok());
}

TEST_F(ClusterTest, SlotMigrationMovesDataAndOwnership) {
  Boot(2);
  // Populate keys in one specific slot owned by shard 0.
  uint16_t slot = 0;
  std::string tag;
  for (int t = 0; t < 2000; ++t) {
    tag = "tag" + std::to_string(t);
    slot = KeyHashSlot("{" + tag + "}x");
    if (cluster_->ShardForSlot(slot) == 0) break;
  }
  ASSERT_EQ(cluster_->ShardForSlot(slot), 0u);
  std::vector<std::string> keys;
  for (int i = 0; i < 25; ++i) {
    keys.push_back("{" + tag + "}k" + std::to_string(i));
    ASSERT_EQ(Run({"SET", keys.back(), "v" + std::to_string(i)}),
              Value::Ok());
  }
  // Mixed types in the same slot survive migration.
  Run({"ZADD", "{" + tag + "}scores", "5", "alice", "7", "bob"});
  Run({"EXPIRE", keys[0], "10000"});

  Status result = Status::Internal("pending");
  bool done = false;
  cluster_->MigrateSlot(slot, 0, 1, [&](const Status& s) {
    result = s;
    done = true;
  });
  for (int i = 0; i < 60000 && !done; ++i) sim_->RunFor(1 * kMs);
  ASSERT_TRUE(done);
  ASSERT_TRUE(result.ok()) << result.ToString();
  EXPECT_EQ(cluster_->ShardForSlot(slot), 1u);

  // Data readable after migration (client follows MOVED to shard 1).
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(Run({"GET", keys[static_cast<size_t>(i)]}),
              Value::Bulk("v" + std::to_string(i)));
  }
  EXPECT_EQ(Run({"ZSCORE", "{" + tag + "}scores", "bob"}), Value::Bulk("7"));
  Value ttl = Run({"TTL", keys[0]});
  EXPECT_GT(ttl.integer, 9000);

  // New writes to the slot land on shard 1 and the target owns the slot.
  EXPECT_EQ(Run({"SET", "{" + tag + "}new", "x"}), Value::Ok());
  Node* target_primary = cluster_->shard(1)->Primary();
  ASSERT_NE(target_primary, nullptr);
  EXPECT_EQ(target_primary->slot_state(slot), Node::SlotState::kOwned);
  Node* source_primary = cluster_->shard(0)->Primary();
  ASSERT_NE(source_primary, nullptr);
  EXPECT_EQ(source_primary->slot_state(slot), Node::SlotState::kNotOwned);

  // Source eventually deletes the transferred keys (background task).
  sim_->RunFor(3 * kSec);
  EXPECT_EQ(source_primary->engine().keyspace().KeysInSlot(slot).size(), 0u);
  // Write-unavailability was limited to the handshake (§5.2).
  EXPECT_LT(cluster_->coordinator()->last_write_block_duration(),
            500 * kMs);
}

TEST_F(ClusterTest, MigrationUnderLiveWrites) {
  Boot(2);
  uint16_t slot = 0;
  std::string tag;
  for (int t = 0; t < 2000; ++t) {
    tag = "w" + std::to_string(t);
    slot = KeyHashSlot("{" + tag + "}x");
    if (cluster_->ShardForSlot(slot) == 0) break;
  }
  for (int i = 0; i < 10; ++i) {
    Run({"SET", "{" + tag + "}k" + std::to_string(i), "v"});
  }
  // Start the migration and keep writing while it runs; every acknowledged
  // write must survive.
  bool migration_done = false;
  Status result = Status::OK();
  cluster_->MigrateSlot(slot, 0, 1, [&](const Status& s) {
    result = s;
    migration_done = true;
  });
  int acked = 0;
  for (int i = 0; i < 60 && !migration_done; ++i) {
    Value v = Run({"INCR", "{" + tag + "}counter"});
    if (v.type == resp::Type::kInteger) {
      EXPECT_EQ(v.integer, acked + 1) << "lost or duplicated increment";
      acked = static_cast<int>(v.integer);
    }
    sim_->RunFor(20 * kMs);
  }
  for (int i = 0; i < 60000 && !migration_done; ++i) sim_->RunFor(1 * kMs);
  ASSERT_TRUE(result.ok()) << result.ToString();
  EXPECT_GT(acked, 0);
  Value final = Run({"GET", "{" + tag + "}counter"});
  ASSERT_EQ(final.type, resp::Type::kBulkString);
  EXPECT_EQ(std::stoi(final.str), acked);
}

TEST_F(ClusterTest, ScaleOutAddsShardAndMovesSlots) {
  Boot(2, /*replicas=*/1);
  for (int i = 0; i < 30; ++i) {
    Run({"SET", "k" + std::to_string(i), std::to_string(i)});
  }
  memorydb::Shard* added = cluster_->AddShard();
  sim_->RunFor(3 * kSec);  // new shard bootstraps
  ASSERT_NE(added->Primary(), nullptr);
  EXPECT_EQ(cluster_->num_shards(), 3u);

  // Move a handful of slots (those containing our keys) to the new shard.
  std::set<uint16_t> moved;
  for (int i = 0; i < 5; ++i) {
    const uint16_t slot = KeyHashSlot("k" + std::to_string(i));
    if (moved.count(slot)) continue;
    moved.insert(slot);
    const size_t from = cluster_->ShardForSlot(slot);
    bool done = false;
    Status st = Status::OK();
    cluster_->MigrateSlot(slot, from, 2, [&](const Status& s) {
      st = s;
      done = true;
    });
    for (int t = 0; t < 60000 && !done; ++t) sim_->RunFor(1 * kMs);
    ASSERT_TRUE(done);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  // All data still readable, including keys now served by the new shard.
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(Run({"GET", "k" + std::to_string(i)}),
              Value::Bulk(std::to_string(i)));
  }
}

TEST_F(ClusterTest, MonitoringRepairsCrashedReplica) {
  Boot(1, /*replicas=*/2);
  Run({"SET", "k", "v"});
  memorydb::Shard* shard = cluster_->shard(0);
  Node* replica = shard->AnyReplica();
  ASSERT_NE(replica, nullptr);
  sim_->Crash(replica->id());
  // The watchdog polls every 5s and needs 2 consecutive misses.
  sim_->RunFor(25 * kSec);
  EXPECT_GE(cluster_->monitoring()->repairs(), 1u);
  EXPECT_TRUE(sim_->IsAlive(replica->id()));
  sim_->RunFor(5 * kSec);
  EXPECT_EQ(replica->db_role(), Node::DbRole::kReplica);
  EXPECT_TRUE(replica->caught_up());
}

TEST_F(ClusterTest, ReplicaScalingWhileServing) {
  Boot(1, /*replicas=*/1);
  for (int i = 0; i < 10; ++i) {
    Run({"SET", "k" + std::to_string(i), "v"});
  }
  Node* newbie = cluster_->shard(0)->AddReplica();
  sim_->RunFor(5 * kSec);
  EXPECT_TRUE(newbie->caught_up());
  EXPECT_EQ(Run({"GET", "k3"}), Value::Bulk("v"));
}


TEST_F(ClusterTest, MigrationAbortsCleanlyOnSourceCrash) {
  Boot(2);
  // Keys in a slot owned by shard 0.
  uint16_t slot = 0;
  std::string tag;
  for (int t = 0; t < 2000; ++t) {
    tag = "abort" + std::to_string(t);
    slot = KeyHashSlot("{" + tag + "}x");
    if (cluster_->ShardForSlot(slot) == 0) break;
  }
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(Run({"SET", "{" + tag + "}k" + std::to_string(i), "v"}),
              Value::Ok());
  }
  Node* source = cluster_->shard(0)->Primary();
  ASSERT_NE(source, nullptr);

  // Start the migration and kill the source primary while data moves.
  bool done = false;
  Status result = Status::OK();
  cluster_->MigrateSlot(slot, 0, 1, [&](const Status& s) {
    result = s;
    done = true;
  });
  sim_->RunFor(5 * kMs);
  sim_->Crash(source->id());
  for (int i = 0; i < 120000 && !done; ++i) sim_->RunFor(1 * kMs);
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.ok());  // abandoned, as designed (§5.2)
  EXPECT_EQ(cluster_->ShardForSlot(slot), 0u);  // ownership unchanged

  // Shard 0 fails over. 2PC progress is durable in the log, so the new
  // primary may come up with the slot still write-blocked — but reads keep
  // flowing and no data was lost.
  sim_->RunFor(3 * kSec);
  ASSERT_NE(cluster_->shard(0)->Primary(), nullptr);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(Run({"GET", "{" + tag + "}k" + std::to_string(i)}),
              Value::Bulk("v"));
  }

  // Re-driving the protocol completes the transfer (§5.2: "after a primary
  // node failure recovery, the ownership transfer protocol can continue").
  done = false;
  cluster_->MigrateSlot(slot, 0, 1, [&](const Status& s) {
    result = s;
    done = true;
  });
  for (int i = 0; i < 120000 && !done; ++i) sim_->RunFor(1 * kMs);
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok()) << result.ToString();
  EXPECT_EQ(cluster_->ShardForSlot(slot), 1u);
  // Writes are available again, served by the new owner.
  EXPECT_EQ(Run({"SET", "{" + tag + "}post", "x"}), Value::Ok());
  EXPECT_EQ(Run({"GET", "{" + tag + "}post"}), Value::Bulk("x"));
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(Run({"GET", "{" + tag + "}k" + std::to_string(i)}),
              Value::Bulk("v"));
  }
}

// The §5.2 handshake compares the source's and the target's digest of the
// slot, so the digest must not depend on a table's iteration order: two
// primaries holding one slot's keys, inserted in opposite orders, answer
// alike.
TEST_F(ClusterTest, SlotDigestIgnoresInsertionOrder) {
  Boot(2);
  Node* a = cluster_->shard(0)->Primary();
  Node* b = cluster_->shard(1)->Primary();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  const uint16_t slot = KeyHashSlot("{digest}");
  std::vector<std::string> keys;
  for (int i = 0; i < 40; ++i) keys.push_back("{digest}k" + std::to_string(i));
  for (size_t i = 0; i < keys.size(); ++i) {
    const std::string& forward = keys[i];
    const std::string& backward = keys[keys.size() - 1 - i];
    a->engine().keyspace().Put(forward, ds::Value("v" + forward));
    b->engine().keyspace().Put(backward, ds::Value("v" + backward));
  }
  auto table_order = [&](Node* n) {
    std::vector<std::string> out;
    for (const auto& [k, e] : n->engine().keyspace().KeysInSlot(slot)) {
      out.push_back(k);
    }
    return out;
  };
  ASSERT_NE(table_order(a), table_order(b));  // the orders really differ

  sim::Actor asker(sim_.get(), sim_->AddHost(0));
  auto digest = [&](Node* n) {
    std::string payload;
    PutVarint64(&payload, slot);
    std::string body;
    bool done = false;
    asker.Rpc(n->id(), "db.slot_digest", payload, 2 * kSec,
              [&](const Status& s, const std::string& reply) {
                EXPECT_TRUE(s.ok()) << s.ToString();
                body = reply;
                done = true;
              });
    for (int i = 0; i < 5000 && !done; ++i) sim_->RunFor(1 * kMs);
    EXPECT_TRUE(done);
    Decoder dec(body);
    uint64_t count = 0, crc = 0;
    EXPECT_TRUE(dec.GetVarint64(&count) && dec.GetFixed64(&crc));
    return std::make_pair(count, crc);
  };
  const auto from_a = digest(a);
  EXPECT_EQ(from_a.first, keys.size());
  EXPECT_EQ(digest(b), from_a);
}

// A corrupted snapshot in the object store must not poison recovery: the
// restoring node detects the bad checksum and falls back to log replay;
// the off-box verifier flags it and refuses to publish on top of it.
TEST_F(ClusterTest, CorruptSnapshotDetectedAndBypassed) {
  Boot(1, /*replicas=*/1);
  for (int i = 0; i < 20; ++i) {
    Run({"SET", "k" + std::to_string(i), std::to_string(i)});
  }
  // Plant a corrupted "latest" snapshot for the shard.
  class Planter : public sim::Actor {
   public:
    Planter(sim::Simulation* sim, NodeId id, NodeId store)
        : Actor(sim, id), s3(this, store) {}
    storage::StorageClient s3;
  };
  Planter planter(sim_.get(), sim_->AddHost(0), s3_->id());
  bool planted = false;
  planter.s3.Put("snap/shard-0/99999999999999999999",
                 std::string(2048, 'G'),  // garbage blob
                 [&](const Status& s) { planted = s.ok(); });
  sim_->RunFor(1 * kSec);
  ASSERT_TRUE(planted);

  // A new replica restores: snapshot rejected, full log replay instead.
  Node* newbie = cluster_->shard(0)->AddReplica();
  sim_->RunFor(8 * kSec);
  EXPECT_TRUE(newbie->caught_up());
  EXPECT_FALSE(newbie->checksum_violation());
  engine::ExecContext ctx;
  ctx.now_ms = sim_->Now() / 1000;
  ctx.role = engine::Role::kReplicaRead;
  ctx.rng = &newbie->engine().rng();
  EXPECT_EQ(newbie->engine().Execute({"DBSIZE"}, &ctx), Value::Integer(20));
}

TEST_F(ClusterTest, MonitoringScrapesClusterHealth) {
  Boot(2, /*replicas=*/1);
  for (int i = 0; i < 20; ++i) {
    Run({"SET", "k" + std::to_string(i), "v"});
  }
  // Let a couple of scrape cycles (5s cadence) land after the writes.
  sim_->RunFor(12 * kSec);

  MonitoringService* mon = cluster_->monitoring();
  EXPECT_GT(mon->scrapes(), 0u);
  MonitoringService::ClusterHealth health = mon->ClusterSnapshot();
  // 2 shards x (primary + replica), all reachable.
  EXPECT_EQ(health.nodes_watched, 4u);
  EXPECT_EQ(health.nodes_reachable, 4u);
  EXPECT_EQ(health.primaries, 2u);
  EXPECT_EQ(health.replicas, 2u);
  EXPECT_EQ(health.loading, 0u);
  // Caught-up replicas, no load: lag is bounded.
  EXPECT_LE(health.max_replication_lag, 4);
  // Every shard committed writes; its primary reports a commit p99 in the
  // multi-AZ range.
  EXPECT_GT(health.max_commit_p99_us, 500.0);
  EXPECT_LT(health.max_commit_p99_us, 100'000.0);

  // Per-node detail: the scrape parsed each node's exposition.
  for (const auto& [node_id, h] : mon->node_health()) {
    EXPECT_TRUE(h.reachable);
    EXPECT_GE(h.role, 0);
    EXPECT_GT(h.applied_index, 0);
  }
}

}  // namespace
}  // namespace memdb::cluster
