#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "client/db_client.h"
#include "redisbaseline/baseline_node.h"
#include "sim/simulation.h"

namespace memdb::redisbaseline {
namespace {

using client::ClientActor;
using resp::Value;
using sim::kMs;
using sim::kSec;
using sim::NodeId;

class BaselineTest : public ::testing::Test {
 protected:
  void Boot(int num_replicas = 2, BaselineConfig config = BaselineConfig()) {
    // Tear down dependents before the simulation they point into.
    client_.reset();
    nodes_.clear();
    sim_ = std::make_unique<sim::Simulation>(555);
    std::vector<NodeId> ids;
    for (int i = 0; i <= num_replicas; ++i) {
      BaselineConfig c = config;
      c.start_as_primary = (i == 0);
      const NodeId id = sim_->AddHost(static_cast<sim::AzId>(i % 3));
      ids.push_back(id);
      nodes_.push_back(std::make_unique<BaselineNode>(sim_.get(), id, c));
    }
    for (auto& n : nodes_) {
      n->SetPeers(ids);
      n->SetPrimary(ids[0]);
    }
    client_ = std::make_unique<ClientActor>(sim_.get(), sim_->AddHost(0), ids);
    sim_->RunFor(500 * kMs);
  }

  Value Run(std::vector<std::string> argv) {
    Value out = Value::Error("never completed");
    bool done = false;
    client_->db.Command(std::move(argv), [&](const Value& v) {
      out = v;
      done = true;
    });
    for (int i = 0; i < 30000 && !done; ++i) sim_->RunFor(1 * kMs);
    EXPECT_TRUE(done);
    return out;
  }

  BaselineNode* Primary() {
    for (auto& n : nodes_) {
      if (sim_->IsAlive(n->id()) && n->IsPrimary()) return n.get();
    }
    return nullptr;
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::vector<std::unique_ptr<BaselineNode>> nodes_;
  std::unique_ptr<ClientActor> client_;
};

TEST_F(BaselineTest, BasicCommands) {
  Boot();
  EXPECT_EQ(Run({"SET", "k", "v"}), Value::Ok());
  EXPECT_EQ(Run({"GET", "k"}), Value::Bulk("v"));
  EXPECT_EQ(Run({"INCR", "n"}), Value::Integer(1));
}

TEST_F(BaselineTest, WritesAckBeforeReplication) {
  Boot();
  Run({"SET", "warm", "x"});  // teach the client where the primary is
  // A write acks fast (no cross-AZ commit), then reaches replicas on the
  // next replication flush.
  bool done = false;
  sim::Time start = sim_->Now();
  sim::Duration latency = 0;
  client_->db.Command({"SET", "k", "v"}, [&](const Value& v) {
    latency = sim_->Now() - start;
    done = true;
  });
  for (int i = 0; i < 1000 && !done; ++i) sim_->RunFor(1 * kMs);
  ASSERT_TRUE(done);
  EXPECT_LT(latency, 500u);  // same-AZ round trip + engine only

  sim_->RunFor(100 * kMs);
  for (auto& n : nodes_) {
    if (n->IsPrimary()) continue;
    engine::ExecContext ctx;
    ctx.now_ms = sim_->Now() / 1000;
    ctx.role = engine::Role::kReplicaRead;
    ctx.rng = &n->engine().rng();
    EXPECT_EQ(n->engine().Execute({"GET", "k"}, &ctx), Value::Bulk("v"));
  }
}

TEST_F(BaselineTest, RankedFailoverPromotesAReplica) {
  Boot();
  Run({"SET", "k", "v"});
  sim_->RunFor(100 * kMs);
  BaselineNode* old_primary = Primary();
  ASSERT_NE(old_primary, nullptr);
  sim_->Crash(old_primary->id());
  sim_->RunFor(3 * kSec);
  BaselineNode* new_primary = Primary();
  ASSERT_NE(new_primary, nullptr);
  EXPECT_NE(new_primary, old_primary);
  EXPECT_EQ(Run({"GET", "k"}), Value::Bulk("v"));  // replicated data kept
  EXPECT_EQ(Run({"SET", "k2", "v2"}), Value::Ok());
}

TEST_F(BaselineTest, FailoverLosesAcknowledgedWrites) {
  // The §2.2.1 failure mode: acknowledged writes that have not been
  // replicated die with the primary.
  BaselineConfig config;
  config.repl_flush_interval = 50 * kMs;  // widen the loss window
  Boot(2, config);
  Run({"SET", "durable", "yes"});
  sim_->RunFor(200 * kMs);  // replicated

  // Fire a burst of writes and crash the primary before the next flush.
  BaselineNode* primary = Primary();
  ASSERT_NE(primary, nullptr);
  int acked = 0;
  for (int i = 0; i < 5; ++i) {
    bool done = false;
    client_->db.Command({"SET", "lost" + std::to_string(i), "x"},
                        [&](const Value& v) {
                          if (v == Value::Ok()) ++acked;
                          done = true;
                        });
    for (int t = 0; t < 30 && !done; ++t) sim_->RunFor(1 * kMs);
  }
  ASSERT_GT(acked, 0);
  sim_->Crash(primary->id());
  sim_->RunFor(3 * kSec);
  ASSERT_NE(Primary(), nullptr);

  // The replicated write survives; the acked burst is gone.
  EXPECT_EQ(Run({"GET", "durable"}), Value::Bulk("yes"));
  int lost = 0;
  for (int i = 0; i < 5; ++i) {
    if (Run({"GET", "lost" + std::to_string(i)}).IsNull()) ++lost;
  }
  EXPECT_GT(lost, 0) << "baseline unexpectedly kept all acked writes";
}

TEST_F(BaselineTest, RestartedPrimaryRejoinsAsReplica) {
  Boot();
  Run({"SET", "k", "v"});
  sim_->RunFor(200 * kMs);
  BaselineNode* old_primary = Primary();
  const NodeId old_id = old_primary->id();
  sim_->Crash(old_id);
  sim_->RunFor(3 * kSec);
  ASSERT_NE(Primary(), nullptr);
  sim_->Restart(old_id);
  sim_->RunFor(3 * kSec);
  EXPECT_FALSE(old_primary->IsPrimary());
  // Full-synced from the new primary.
  engine::ExecContext ctx;
  ctx.now_ms = sim_->Now() / 1000;
  ctx.role = engine::Role::kReplicaRead;
  ctx.rng = &old_primary->engine().rng();
  EXPECT_EQ(old_primary->engine().Execute({"GET", "k"}, &ctx),
            Value::Bulk("v"));
}

TEST_F(BaselineTest, AofAlwaysAddsFsyncLatency) {
  BaselineConfig plain;
  Boot(0, plain);
  bool done = false;
  sim::Time start = sim_->Now();
  sim::Duration async_latency = 0;
  client_->db.Command({"SET", "a", "1"}, [&](const Value&) {
    async_latency = sim_->Now() - start;
    done = true;
  });
  for (int i = 0; i < 1000 && !done; ++i) sim_->RunFor(1 * kMs);

  BaselineConfig aof;
  aof.aof_mode = BaselineConfig::AofMode::kAlways;
  Boot(0, aof);
  done = false;
  start = sim_->Now();
  sim::Duration aof_latency = 0;
  client_->db.Command({"SET", "a", "1"}, [&](const Value&) {
    aof_latency = sim_->Now() - start;
    done = true;
  });
  for (int i = 0; i < 1000 && !done; ++i) sim_->RunFor(1 * kMs);
  EXPECT_GT(aof_latency, async_latency + 500);  // pays the fsync
}

TEST_F(BaselineTest, BgSaveForkStallsAndCowGrowsMemory) {
  BaselineConfig config;
  config.synthetic_dataset_bytes = 4ULL << 30;  // 4 GB resident
  config.ram_bytes = 16ULL << 30;
  Boot(0, config);
  Run({"SET", "k", "v"});
  BaselineNode* primary = Primary();
  ASSERT_NE(primary, nullptr);
  const uint64_t resident_before = primary->resident_bytes();

  EXPECT_EQ(Run({"BGSAVE"}).str, "Background saving started");
  ASSERT_TRUE(primary->bgsave_running());
  // The fork page-table clone stalls the workloop: the next command pays
  // roughly 12 ms per GB.
  bool done = false;
  sim::Time start = sim_->Now();
  sim::Duration latency = 0;
  client_->db.Command({"GET", "k"}, [&](const Value&) {
    latency = sim_->Now() - start;
    done = true;
  });
  for (int i = 0; i < 30000 && !done; ++i) sim_->RunFor(1 * kMs);
  EXPECT_GT(latency, 40 * kMs);  // 4 GB * 12 ms/GB = 48 ms

  // Writes during BGSave accumulate COW pages.
  for (int i = 0; i < 200; ++i) Run({"SET", "w" + std::to_string(i), "x"});
  EXPECT_GT(primary->cow_bytes(), 0u);
  EXPECT_GT(primary->resident_bytes(), resident_before);

  // BGSave finishes eventually and COW memory is released.
  sim_->RunFor(60 * kSec);
  EXPECT_FALSE(primary->bgsave_running());
  EXPECT_EQ(primary->cow_bytes(), 0u);
  EXPECT_EQ(primary->stats().bgsaves_completed, 1u);
}

TEST_F(BaselineTest, SwapCollapsesThroughput) {
  // Resident set already ~5% over DRAM: every operation has a substantial
  // chance of faulting on a swapped page and serializing on the disk.
  BaselineConfig config;
  config.synthetic_dataset_bytes = 10ULL << 30;
  config.ram_bytes = (10ULL << 30) - (512ULL << 20);
  Boot(0, config);
  BaselineNode* primary = Primary();
  Run({"SET", "k", "v"});
  ASSERT_GT(primary->swap_bytes(), 0u);

  // Measure read latency while swapping: the single disk queue dominates.
  uint64_t slow_reads = 0;
  for (int i = 0; i < 50; ++i) {
    bool done = false;
    sim::Time start = sim_->Now();
    client_->db.Command({"GET", "k"}, [&](const Value&) { done = true; });
    for (int t = 0; t < 60000 && !done; ++t) sim_->RunFor(250);
    if (sim_->Now() - start > 5 * kMs) ++slow_reads;
  }
  EXPECT_GT(slow_reads, 5u) << "swap penalty not observable";
}

TEST_F(BaselineTest, WaitReturnsReplicaCount) {
  Boot(2);
  Value v = Run({"WAIT", "1", "0"});
  EXPECT_EQ(v.type, resp::Type::kInteger);
}

}  // namespace
}  // namespace memdb::redisbaseline
