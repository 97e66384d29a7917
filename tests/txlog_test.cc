#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "chaos/process.h"
#include "common/coding.h"
#include "common/crc.h"
#include "common/metrics.h"
#include "rpc/loop.h"
#include "sim/simulation.h"
#include "txlog/actor_transport.h"
#include "txlog/group.h"
#include "txlog/remote_client.h"
#include "txlog/rpc_wire.h"
#include "txlog/service.h"

namespace memdb::txlog {
namespace {

using sim::kMs;
using sim::kSec;
using sim::NodeId;

// A simulated database-node-like client of the log service.
class TestClient : public sim::Actor {
 public:
  TestClient(sim::Simulation* sim, NodeId id, std::vector<NodeId> replicas,
             LogClient::Options options = {.rpc_timeout_ms = 150},
             MetricsRegistry* registry = nullptr)
      : Actor(sim, id),
        log(std::make_unique<ActorTransport>(this, std::move(replicas)),
            options, registry) {}

  LogClient log;
};

LogRecord DataRecord(const std::string& payload, uint64_t writer = 1,
                     uint64_t request_id = 0) {
  LogRecord r;
  r.type = RecordType::kData;
  r.writer = writer;
  r.request_id = request_id;
  r.payload = payload;
  return r;
}

class TxLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = std::make_unique<sim::Simulation>(1234);
    group_ = std::make_unique<LogGroup>(sim_.get());
    client_node_ = sim_->AddHost(0);
    client_ = std::make_unique<TestClient>(sim_.get(), client_node_,
                                           group_->replica_ids());
    // Let the first election settle.
    sim_->RunFor(2 * kSec);
  }

  // Appends synchronously (runs the sim until the callback fires).
  Status AppendSync(uint64_t prev, const std::string& payload,
                    uint64_t* index_out = nullptr, uint64_t writer = 1,
                    uint64_t request_id = 0) {
    Status result = Status::Internal("callback never ran");
    bool done = false;
    client_->log.Append(prev, DataRecord(payload, writer, request_id),
                        [&](const Status& s, uint64_t index) {
                          result = s;
                          if (index_out != nullptr) *index_out = index;
                          done = true;
                        });
    for (int i = 0; i < 10000 && !done; ++i) {
      sim_->RunFor(10 * kMs);
    }
    EXPECT_TRUE(done);
    return result;
  }

  // The committed log through the commit index the leader reports now.
  // Reads go to any replica and a follower learns a commit a heartbeat
  // late, so a read that comes back short is asked again.
  std::vector<LogEntry> ReadAllSync() {
    const uint64_t through = TailSync().commit_index;
    std::vector<LogEntry> all;
    uint64_t from = 1;
    for (int tries = 0; from <= through && tries < 100; ++tries) {
      bool done = false;
      wire::ClientReadResponse got;
      Status status = Status::OK();
      client_->log.Read(from, 128, 0, [&](const Status& s,
                                          const wire::ClientReadResponse& r) {
        status = s;
        got = r;
        done = true;
      });
      for (int i = 0; i < 10000 && !done; ++i) sim_->RunFor(10 * kMs);
      EXPECT_TRUE(done);
      if (!status.ok() || got.entries.empty()) {
        sim_->RunFor(10 * kMs);
        continue;
      }
      from = got.entries.back().index + 1;
      for (auto& e : got.entries) all.push_back(std::move(e));
    }
    EXPECT_GE(from, through + 1) << "log not served through " << through;
    return all;
  }

  // Data payloads in committed order.
  std::vector<std::string> DataPayloads() {
    std::vector<std::string> out;
    for (const LogEntry& e : ReadAllSync()) {
      if (e.record.type == RecordType::kData) out.push_back(e.record.payload);
    }
    return out;
  }

  wire::ClientTailResponse TailSync() {
    bool done = false;
    wire::ClientTailResponse resp;
    client_->log.Tail([&](const Status& s, const wire::ClientTailResponse& r) {
      EXPECT_TRUE(s.ok()) << s.ToString();
      resp = r;
      done = true;
    });
    for (int i = 0; i < 10000 && !done; ++i) sim_->RunFor(10 * kMs);
    EXPECT_TRUE(done);
    return resp;
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<LogGroup> group_;
  NodeId client_node_;
  std::unique_ptr<TestClient> client_;
};

TEST_F(TxLogTest, ElectsExactlyOneLeader) {
  int leaders = 0;
  for (size_t i = 0; i < group_->size(); ++i) {
    if (group_->replica(i)->IsLeader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
}

TEST_F(TxLogTest, AppendCommitsAndReadsBack) {
  uint64_t index = 0;
  ASSERT_TRUE(AppendSync(wire::kUnconditional, "hello", &index).ok());
  EXPECT_GT(index, 0u);
  ASSERT_TRUE(AppendSync(wire::kUnconditional, "world").ok());
  EXPECT_EQ(DataPayloads(), (std::vector<std::string>{"hello", "world"}));
}

TEST_F(TxLogTest, AppendIsDurableOnAllReplicasEventually) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(AppendSync(wire::kUnconditional, "e" + std::to_string(i)).ok());
  }
  sim_->RunFor(1 * kSec);  // heartbeats propagate the commit index
  for (size_t i = 0; i < group_->size(); ++i) {
    auto entries = group_->replica(i)->CommittedEntries(1, 1000);
    int data = 0;
    for (const auto& e : entries) {
      if (e.record.type == RecordType::kData) ++data;
    }
    EXPECT_EQ(data, 10) << "replica " << i;
  }
}

TEST_F(TxLogTest, ConditionalAppendCasSemantics) {
  uint64_t tail = TailSync().last_index;
  uint64_t i1 = 0;
  ASSERT_TRUE(AppendSync(tail, "a", &i1).ok());
  EXPECT_EQ(i1, tail + 1);
  // Stale precondition fails and reports the actual tail.
  uint64_t actual = 0;
  Status s = AppendSync(tail, "b", &actual);
  EXPECT_TRUE(s.IsConditionFailed()) << s.ToString();
  EXPECT_EQ(actual, i1);
  // Correct precondition succeeds.
  ASSERT_TRUE(AppendSync(i1, "c").ok());
  EXPECT_EQ(DataPayloads(), (std::vector<std::string>{"a", "c"}));
}

TEST_F(TxLogTest, FencingTwoWriters) {
  // Both writers observe the same tail; only one conditional append wins —
  // the paper's leader-election primitive (§4.1.2).
  const uint64_t tail = TailSync().last_index;
  Status s1 = Status::Internal("pending"), s2 = Status::Internal("pending");
  int done = 0;
  client_->log.Append(tail, DataRecord("writer1-claim", 1),
                      [&](const Status& s, uint64_t) { s1 = s; ++done; });
  client_->log.Append(tail, DataRecord("writer2-claim", 2),
                      [&](const Status& s, uint64_t) { s2 = s; ++done; });
  for (int i = 0; i < 10000 && done < 2; ++i) sim_->RunFor(10 * kMs);
  ASSERT_EQ(done, 2);
  EXPECT_NE(s1.ok(), s2.ok());  // exactly one winner
  EXPECT_TRUE((s1.ok() && s2.IsConditionFailed()) ||
              (s2.ok() && s1.IsConditionFailed()));
}

TEST_F(TxLogTest, CommittedEntriesSurviveLeaderCrash) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(AppendSync(wire::kUnconditional, "pre" + std::to_string(i)).ok());
  }
  // Crash the leader.
  size_t leader_idx = 99;
  for (size_t i = 0; i < group_->size(); ++i) {
    if (group_->replica(i)->IsLeader()) leader_idx = i;
  }
  ASSERT_NE(leader_idx, 99u);
  group_->Crash(leader_idx);
  sim_->RunFor(2 * kSec);  // re-election
  EXPECT_NE(group_->Leader(), nullptr);
  ASSERT_TRUE(AppendSync(wire::kUnconditional, "post").ok());
  auto payloads = DataPayloads();
  ASSERT_EQ(payloads.size(), 6u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(payloads[static_cast<size_t>(i)], "pre" + std::to_string(i));
  }
  EXPECT_EQ(payloads[5], "post");
}

TEST_F(TxLogTest, ToleratesSingleAzLoss) {
  ASSERT_TRUE(AppendSync(wire::kUnconditional, "before").ok());
  sim_->PartitionAz(2);  // isolate one AZ entirely
  sim_->RunFor(1 * kSec);
  ASSERT_TRUE(AppendSync(wire::kUnconditional, "during").ok());
  sim_->HealAz(2);
  sim_->RunFor(2 * kSec);
  ASSERT_TRUE(AppendSync(wire::kUnconditional, "after").ok());
  EXPECT_EQ(DataPayloads(),
            (std::vector<std::string>{"before", "during", "after"}));
  // The healed replica catches up fully.
  sim_->RunFor(2 * kSec);
  uint64_t commit = group_->CommitIndex();
  for (size_t i = 0; i < group_->size(); ++i) {
    EXPECT_GE(group_->replica(i)->commit_index() + 2, commit) << i;
  }
}

TEST_F(TxLogTest, MinorityPartitionCannotCommit) {
  // Find the leader and partition it away with no companion.
  size_t leader_idx = 99;
  for (size_t i = 0; i < group_->size(); ++i) {
    if (group_->replica(i)->IsLeader()) leader_idx = i;
  }
  ASSERT_NE(leader_idx, 99u);
  const NodeId old_leader = group_->replica_ids()[leader_idx];
  sim_->network().Isolate(old_leader);
  sim_->RunFor(2 * kSec);

  // Majority side elects a new leader and accepts writes.
  RaftReplica* new_leader = nullptr;
  for (size_t i = 0; i < group_->size(); ++i) {
    if (i != leader_idx && group_->replica(i)->IsLeader()) {
      new_leader = group_->replica(i);
    }
  }
  ASSERT_NE(new_leader, nullptr);
  ASSERT_TRUE(AppendSync(wire::kUnconditional, "majority-write").ok());

  // The isolated old leader cannot have committed anything new.
  EXPECT_LT(group_->replica(leader_idx)->commit_index(),
            new_leader->commit_index());

  // After healing, the old leader steps down and converges.
  sim_->network().Heal(old_leader);
  sim_->RunFor(2 * kSec);
  EXPECT_FALSE(group_->replica(leader_idx)->IsLeader() &&
               new_leader->IsLeader());
  EXPECT_EQ(DataPayloads(), (std::vector<std::string>{"majority-write"}));
}

TEST_F(TxLogTest, RestartedReplicaKeepsDurableState) {
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(AppendSync(wire::kUnconditional, "x" + std::to_string(i)).ok());
  }
  group_->Crash(0);
  sim_->RunFor(1 * kSec);
  ASSERT_TRUE(AppendSync(wire::kUnconditional, "while-down").ok());
  group_->Restart(0);
  sim_->RunFor(3 * kSec);
  auto entries = group_->replica(0)->CommittedEntries(1, 1000);
  int data = 0;
  for (const auto& e : entries) {
    if (e.record.type == RecordType::kData) ++data;
  }
  EXPECT_EQ(data, 9);
}

TEST_F(TxLogTest, TrimRaisesFirstIndex) {
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(AppendSync(wire::kUnconditional, "t" + std::to_string(i)).ok());
  }
  sim_->RunFor(1 * kSec);
  client_->log.Trim(10, [](const Status&, uint64_t) {});
  sim_->RunFor(1 * kSec);
  bool done = false;
  wire::ClientReadResponse resp;
  client_->log.Read(1, 10, 0, [&](const Status& s,
                               const wire::ClientReadResponse& r) {
    resp = r;
    done = true;
  });
  sim_->RunFor(1 * kSec);
  ASSERT_TRUE(done);
  EXPECT_GT(resp.first_index, 1u);
  // Entries after the trim horizon are still served.
  EXPECT_FALSE(ReadAllSync().empty());
}

TEST_F(TxLogTest, IndeterminateAppendResolvableByRead) {
  // Commit an entry with a unique (writer, request_id), then verify a
  // reader can find it — the resolution path for timed-out appends.
  ASSERT_TRUE(
      AppendSync(wire::kUnconditional, "maybe", nullptr, 7, 12345).ok());
  bool found = false;
  for (const LogEntry& e : ReadAllSync()) {
    if (e.record.writer == 7 && e.record.request_id == 12345) found = true;
  }
  EXPECT_TRUE(found);
}

// Random crashes, restarts, and partitions under continuous load: 120
// rounds of unconditional appends, then heal everything and drain. Appends
// still in flight on return answer later into *acked and *inflight, so both
// must outlive the simulation.
void RunChaosSchedule(sim::Simulation* sim, LogGroup* group,
                      TestClient* client, std::vector<std::string>* acked,
                      int* inflight) {
  Rng chaos(777);
  for (int round = 0; round < 120; ++round) {
    // Fire off an unconditional append.
    const std::string payload = "c" + std::to_string(round);
    ++*inflight;
    client->log.Append(wire::kUnconditional, DataRecord(payload),
                       [acked, inflight, payload](const Status& s, uint64_t) {
                         if (s.ok()) acked->push_back(payload);
                         --*inflight;
                       });
    // Chaos.
    switch (chaos.Uniform(10)) {
      case 0: {
        const size_t victim = chaos.Uniform(3);
        if (sim->IsAlive(group->replica_ids()[victim])) group->Crash(victim);
        break;
      }
      case 1: {
        const size_t victim = chaos.Uniform(3);
        if (!sim->IsAlive(group->replica_ids()[victim])) {
          group->Restart(victim);
        }
        break;
      }
      case 2:
        sim->PartitionAz(static_cast<sim::AzId>(chaos.Uniform(3)));
        break;
      case 3:
        sim->network().HealAll();
        break;
      default:
        break;
    }
    // Keep a majority alive most of the time.
    int alive = 0;
    for (NodeId id : group->replica_ids()) {
      if (sim->IsAlive(id)) ++alive;
    }
    if (alive < 2) {
      for (size_t i = 0; i < 3; ++i) {
        if (!sim->IsAlive(group->replica_ids()[i])) group->Restart(i);
      }
    }
    sim->RunFor(chaos.UniformRange(20, 200) * kMs);
  }
  // Heal everything and drain.
  sim->network().HealAll();
  for (size_t i = 0; i < 3; ++i) {
    if (!sim->IsAlive(group->replica_ids()[i])) group->Restart(i);
  }
  sim->RunFor(20 * kSec);
}

TEST_F(TxLogTest, ChaosConvergence) {
  // At the end of the chaos schedule: all replicas agree on the committed
  // prefix and every acknowledged append is present exactly once.
  std::vector<std::string> acked;
  int inflight = 0;
  RunChaosSchedule(sim_.get(), group_.get(), client_.get(), &acked, &inflight);
  EXPECT_EQ(inflight, 0);
  EXPECT_GT(acked.size(), 10u) << "chaos too aggressive to be meaningful";

  // Invariant 1: acked entries all present exactly once, in ack order
  // subsequence... order of acks matches commit order for a single client,
  // so the committed data payloads must contain acked as a subsequence.
  auto payloads = DataPayloads();
  std::multiset<std::string> committed(payloads.begin(), payloads.end());
  for (const std::string& a : acked) {
    EXPECT_EQ(committed.count(a), 1u) << "acked entry lost or duplicated: "
                                      << a;
  }

  // Invariant 2: replicas agree on the committed prefix.
  sim_->RunFor(5 * kSec);
  const uint64_t min_commit =
      std::min({group_->replica(0)->commit_index(),
                group_->replica(1)->commit_index(),
                group_->replica(2)->commit_index()});
  auto e0 = group_->replica(0)->CommittedEntries(1, min_commit);
  auto e1 = group_->replica(1)->CommittedEntries(1, min_commit);
  auto e2 = group_->replica(2)->CommittedEntries(1, min_commit);
  ASSERT_EQ(e0.size(), e1.size());
  ASSERT_EQ(e0.size(), e2.size());
  for (size_t i = 0; i < e0.size(); ++i) {
    EXPECT_EQ(e0[i].term, e1[i].term);
    EXPECT_EQ(e0[i].record.payload, e1[i].record.payload);
    EXPECT_EQ(e0[i].term, e2[i].term);
    EXPECT_EQ(e0[i].record.payload, e2[i].record.payload);
  }
}

TEST_F(TxLogTest, SequentialCasClientsGetDistinctIndices) {
  // CAS-based appends from one client, each chaining on the prior index,
  // must produce strictly increasing indices with no gaps from the client's
  // perspective.
  uint64_t tail = TailSync().last_index;
  std::vector<uint64_t> indices;
  for (int i = 0; i < 20; ++i) {
    uint64_t idx = 0;
    Status s = AppendSync(tail, "seq" + std::to_string(i), &idx);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(idx, tail + 1);
    tail = idx;
    indices.push_back(idx);
  }
  for (size_t i = 1; i < indices.size(); ++i) {
    EXPECT_EQ(indices[i], indices[i - 1] + 1);
  }
}

// The simulator runs the production Raft deterministically: one seed, one
// history. Two runs of the chaos schedule must agree on every replica's
// committed (term, index, payload) and on how many elections it took.
TEST(TxLogDeterminismTest, ChaosScheduleReplaysFromOneSeed) {
  struct Run {
    std::vector<std::vector<std::tuple<uint64_t, uint64_t, std::string>>>
        committed;
    std::vector<uint64_t> elections;
    bool operator==(const Run&) const = default;
  };
  auto run_once = [] {
    std::vector<std::string> acked;
    int inflight = 0;
    sim::Simulation sim(1234);
    LogGroup group(&sim);
    TestClient client(&sim, sim.AddHost(0), group.replica_ids());
    sim.RunFor(2 * kSec);
    RunChaosSchedule(&sim, &group, &client, &acked, &inflight);
    Run run;
    for (size_t i = 0; i < group.size(); ++i) {
      RaftReplica* r = group.replica(i);
      auto& entries = run.committed.emplace_back();
      for (const LogEntry& e : r->CommittedEntries(1, r->commit_index())) {
        entries.emplace_back(e.term, e.index, e.record.payload);
      }
      run.elections.push_back(
          r->metrics().FindCounter("raft_elections_started_total")->value());
    }
    return run;
  };
  const Run first = run_once();
  const Run second = run_once();
  EXPECT_FALSE(first.committed[0].empty());
  EXPECT_TRUE(first == second);
}

// ---------------------------------------------------------------------------
// Lease edge cases, against the real RPC LogService (§4.1). The sim suite
// above proves log safety under virtual time; these race real clients
// through the real daemon machinery in-process.

void RealSleepMs(uint64_t ms) {
  // lint:allow-blocking — test thread, waiting on real daemons.
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

struct RealLogGroup {
  // With a `data_root`, replica i keeps its log in data_root/<i + 1>, so a
  // Restart reloads it.
  explicit RealLogGroup(size_t n, uint64_t raft_rpc_timeout_ms = 100,
                        const std::string& data_root = "") {
    for (size_t i = 0; i < n; ++i) {
      LogService::Options opt;
      opt.node_id = i + 1;
      opt.listen_port = 0;
      opt.fsync = false;
      if (!data_root.empty()) {
        opt.data_dir = data_root + "/" + std::to_string(i + 1);
        EXPECT_EQ(::mkdir(opt.data_dir.c_str(), 0755), 0);
      }
      opt.heartbeat_ms = 20;
      opt.election_min_ms = 50;
      opt.election_max_ms = 120;
      opt.raft_rpc_timeout_ms = raft_rpc_timeout_ms;
      options.push_back(opt);
      services.push_back(std::make_unique<LogService>(opt));
      EXPECT_TRUE(services.back()->Start().ok());
    }
    for (size_t i = 0; i < n; ++i) {
      endpoints.push_back("127.0.0.1:" + std::to_string(services[i]->port()));
      membership.emplace_back(i + 1, endpoints.back());
      options[i].listen_port = services[i]->port();
    }
    for (auto& s : services) s->SetPeers(membership);
  }
  ~RealLogGroup() {
    for (auto& s : services) s->Stop();
  }

  // Replaces replica i with a fresh memory-only one on the same port: a
  // restarted node whose log the leader must rebuild from scratch.
  void Restart(size_t i) {
    services[i]->Stop();
    services[i] = std::make_unique<LogService>(options[i]);
    EXPECT_TRUE(services[i]->Start().ok());
    services[i]->SetPeers(membership);
  }

  int LeaderIndex() const {
    for (size_t i = 0; i < services.size(); ++i) {
      if (services[i]->IsLeader()) return static_cast<int>(i);
    }
    return -1;
  }

  bool WaitForLeader(int timeout_ms = 5000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      for (auto& s : services) {
        if (s->IsLeader()) return true;
      }
      RealSleepMs(5);
    }
    return false;
  }

  std::vector<LogService::Options> options;
  std::vector<std::unique_ptr<LogService>> services;
  std::vector<std::string> endpoints;
  std::vector<std::pair<uint64_t, std::string>> membership;
};

struct LeaseClient {
  LeaseClient(const std::vector<std::string>& endpoints, uint64_t writer,
              uint64_t rpc_timeout_ms = 250) {
    EXPECT_TRUE(loop.Start().ok());
    RemoteClient::Options opt;
    opt.writer_id = writer;
    opt.rpc_timeout_ms = rpc_timeout_ms;
    opt.backoff_base_ms = 10;
    opt.backoff_cap_ms = 100;
    client = std::make_unique<RemoteClient>(&loop, endpoints, opt, &registry);
  }
  ~LeaseClient() {
    client->Shutdown();
    loop.Stop();
  }

  rpc::LoopThread loop;
  MetricsRegistry registry;
  std::unique_ptr<RemoteClient> client;
};

// §4.1 needs no lease table: a claim is a kLeadership record and a renewal
// a kLease record, each conditioned on the index its writer last knows, with
// request id = that index + 1 (replication/election.h).
Status ChainedAppend(LeaseClient* c, RecordType type, uint64_t prev,
                     uint64_t* index) {
  LogRecord r;
  r.type = type;
  r.request_id = prev + 1;
  return c->client->AppendSync(prev, std::move(r), index);
}

uint64_t LastIndex(LeaseClient* c) {
  wire::ClientTailResponse tail;
  EXPECT_TRUE(c->client->TailSync(&tail).ok());
  return tail.last_index;
}

// A holder partitioned away from the group cannot renew; a contender that
// has read the log through the holder's last renewal takes over with its
// claim. Once the partition heals, the stale holder's next chained renewal
// fails, naming the contender's claim as the tail.
TEST(LeaseEdgeTest, TakeoverClaimAfterRenewalsStopFencesTheHolder) {
  RealLogGroup group(3);
  ASSERT_TRUE(group.WaitForLeader());
  LeaseClient holder(group.endpoints, 1);
  LeaseClient contender(group.endpoints, 2);

  uint64_t claimed = 0, renewed = 0;
  ASSERT_TRUE(ChainedAppend(&holder, RecordType::kLeadership,
                            LastIndex(&holder), &claimed)
                  .ok());
  ASSERT_TRUE(
      ChainedAppend(&holder, RecordType::kLease, claimed, &renewed).ok());

  // Partition the holder: every append request frame is dropped on every
  // node, so its next renewal dies indeterminately.
  for (auto& svc : group.services) {
    svc->fault().DropRequests(rpcwire::kAppend, 100000);
  }
  uint64_t index = 0;
  const Status lost =
      ChainedAppend(&holder, RecordType::kLease, renewed, &index);
  EXPECT_FALSE(lost.ok());
  EXPECT_FALSE(lost.IsConditionFailed()) << lost.ToString();
  for (auto& svc : group.services) svc->fault().Clear();

  // The contender is caught up through the last renewal: its claim lands.
  ASSERT_EQ(LastIndex(&contender), renewed);
  uint64_t takeover = 0;
  ASSERT_TRUE(ChainedAppend(&contender, RecordType::kLeadership, renewed,
                            &takeover)
                  .ok());
  EXPECT_EQ(takeover, renewed + 1);

  // The stale holder's renewal, retried at its place, cannot revive it.
  const Status stale =
      ChainedAppend(&holder, RecordType::kLease, renewed, &index);
  ASSERT_TRUE(stale.IsConditionFailed()) << stale.ToString();
  EXPECT_EQ(index, takeover);
}

// Two contenders claiming at the same index: exactly one lands, and the
// loser is told the tail its rival's claim now holds.
TEST(LeaseEdgeTest, TwoContendersRaceSingleWinner) {
  RealLogGroup group(3);
  ASSERT_TRUE(group.WaitForLeader());
  LeaseClient a(group.endpoints, 101);
  LeaseClient b(group.endpoints, 102);

  for (int round = 0; round < 5; ++round) {
    const uint64_t prev = LastIndex(&a);
    Status sa, sb;
    uint64_t ia = 0, ib = 0;
    std::thread ta([&] {
      sa = ChainedAppend(&a, RecordType::kLeadership, prev, &ia);
    });
    std::thread tb([&] {
      sb = ChainedAppend(&b, RecordType::kLeadership, prev, &ib);
    });
    ta.join();
    tb.join();

    const int winners = (sa.ok() ? 1 : 0) + (sb.ok() ? 1 : 0);
    ASSERT_EQ(winners, 1) << "round " << round << ": a=" << sa.ToString()
                          << " b=" << sb.ToString();
    if (sa.ok()) {
      ASSERT_TRUE(sb.IsConditionFailed()) << sb.ToString();
      EXPECT_EQ(ia, prev + 1);
      EXPECT_EQ(ib, ia);
    } else {
      ASSERT_TRUE(sa.IsConditionFailed()) << sa.ToString();
      EXPECT_EQ(ib, prev + 1);
      EXPECT_EQ(ia, ib);
    }
  }
}

// A holder whose claim was followed by another writer's is fenced though it
// was never partitioned: the fence is the chain, not connectivity. Retrying
// the renewal at its place fails identically.
TEST(LeaseEdgeTest, RenewAfterFenceRejected) {
  RealLogGroup group(3);
  ASSERT_TRUE(group.WaitForLeader());
  LeaseClient old_holder(group.endpoints, 1);
  LeaseClient usurper(group.endpoints, 2);

  uint64_t claimed = 0, grab = 0;
  ASSERT_TRUE(ChainedAppend(&old_holder, RecordType::kLeadership,
                            LastIndex(&old_holder), &claimed)
                  .ok());
  ASSERT_TRUE(
      ChainedAppend(&usurper, RecordType::kLeadership, claimed, &grab).ok());

  for (int attempt = 0; attempt < 2; ++attempt) {
    uint64_t index = 0;
    const Status s =
        ChainedAppend(&old_holder, RecordType::kLease, claimed, &index);
    ASSERT_TRUE(s.IsConditionFailed()) << "attempt " << attempt << ": "
                                       << s.ToString();
    EXPECT_EQ(index, grab);
  }
}

// Batches are bounded by bytes as well as by count: entries whose total
// exceeds rpc::kMaxFrameBytes (64 MiB) still reach a follower that must
// catch up from scratch and a reader that asks for all of them at once —
// neither ever builds a frame the receiver would reject.
TEST(BatchBudgetTest, LargeEntriesReachRestartedFollowerAndReader) {
  RealLogGroup group(3, /*raft_rpc_timeout_ms=*/1000);
  ASSERT_TRUE(group.WaitForLeader());
  const size_t lagging = (static_cast<size_t>(group.LeaderIndex()) + 1) % 3;
  group.services[lagging]->Stop();

  // A deadline sized for persisting and replicating a 1 MiB entry, which
  // can take far longer than the suite's 250 ms under a sanitizer.
  LeaseClient writer(group.endpoints, 7, /*rpc_timeout_ms=*/5000);
  constexpr int kEntries = 66;
  const std::string payload(1 << 20, 'p');
  uint64_t last = 0;
  for (int i = 0; i < kEntries; ++i) {
    LogRecord r;
    r.type = RecordType::kData;
    r.payload = payload;
    r.payload[0] = static_cast<char>(i);
    const Status s =
        writer.client->AppendSync(wire::kUnconditional, std::move(r), &last);
    ASSERT_TRUE(s.ok()) << "entry " << i << ": " << s.ToString();
  }

  group.Restart(lagging);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (group.services[lagging]->commit_index() < last &&
         std::chrono::steady_clock::now() < deadline) {
    RealSleepMs(20);
  }
  ASSERT_GE(group.services[lagging]->commit_index(), last);

  // One read asks for every entry; the answer comes back in bounded
  // batches, in order, until the reader has them all.
  int seen = 0;
  uint64_t next = 1;
  while (next <= last) {
    wire::ClientReadResponse rsp;
    ASSERT_TRUE(writer.client->ReadSync(next, 256, 0, &rsp).ok());
    ASSERT_FALSE(rsp.entries.empty());
    for (const LogEntry& e : rsp.entries) {
      EXPECT_EQ(e.index, next);
      next = e.index + 1;
      if (e.record.type == RecordType::kData) {
        EXPECT_EQ(e.record.payload.size(), payload.size());
        EXPECT_EQ(e.record.payload[0], static_cast<char>(seen));
        ++seen;
      }
    }
  }
  EXPECT_EQ(seen, kEntries);
}

// ---------------------------------------------------------------------------
// Persistence of one real replica with a data dir: fail-stop on a failed
// write, and a trim that survives a crash between its two file writes.

using chaos::TempDir;

LogService::Options OneReplica(const std::string& data_dir) {
  LogService::Options opt;
  opt.node_id = 1;
  opt.data_dir = data_dir;
  opt.heartbeat_ms = 20;
  opt.election_min_ms = 50;
  opt.election_max_ms = 120;
  return opt;
}

std::string Endpoint(const LogService& svc) {
  return "127.0.0.1:" + std::to_string(svc.port());
}

// The first PersistMeta (the replica's vote for itself) hits EISDIR: the
// replica must stop rather than lead and ack on a vote it never stored.
TEST(PersistenceTest, FailedMetaWriteStopsTheReplica) {
  TempDir dir;
  ASSERT_EQ(::mkdir((dir.path + "/meta.tmp").c_str(), 0755), 0);
  LogService svc(OneReplica(dir.path));
  ASSERT_TRUE(svc.Start().ok());
  svc.SetPeers({{1, Endpoint(svc)}});
  LeaseClient writer({Endpoint(svc)}, 7);
  uint64_t index = 0;
  const Status s = writer.client->AppendSync(wire::kUnconditional,
                                             DataRecord("x"), &index);
  EXPECT_FALSE(s.ok()) << "acked index " << index;
  EXPECT_TRUE(svc.failed());
  EXPECT_FALSE(svc.IsLeader());
  EXPECT_EQ(
      svc.metrics().FindCounter("txlog_persist_errors_total")->value(), 1u);
}

// A log that cannot be read must not load as an empty one.
TEST(PersistenceTest, UnreadableLogFailsStartOrNeverAcks) {
  TempDir dir;
  ASSERT_EQ(::mkdir((dir.path + "/log").c_str(), 0755), 0);
  LogService svc(OneReplica(dir.path));
  if (!svc.Start().ok()) return;  // refused to start: fine
  svc.SetPeers({{1, Endpoint(svc)}});
  LeaseClient writer({Endpoint(svc)}, 7);
  uint64_t index = 0;
  EXPECT_FALSE(writer.client
                   ->AppendSync(wire::kUnconditional, DataRecord("x"), &index)
                   .ok())
      << "acked index " << index;
}

// A meta file in the pre-trim layout (term, vote, crc) still loads.
TEST(PersistenceTest, LegacyTwoFieldMetaLoads) {
  TempDir dir;
  std::string meta;
  PutFixed64(&meta, 5);  // term
  PutFixed64(&meta, 2);  // voted for node 2
  PutFixed32(&meta, static_cast<uint32_t>(Crc64(0, meta.data(), 16)));
  if (std::FILE* f = std::fopen((dir.path + "/meta").c_str(), "wb")) {
    std::fwrite(meta.data(), 1, meta.size(), f);
    std::fclose(f);
  }
  LogService svc(OneReplica(dir.path));
  ASSERT_TRUE(svc.Start().ok());
  EXPECT_EQ(svc.metrics().FindGauge("raft_term")->value(), 5);
  svc.SetPeers({{1, Endpoint(svc)}});
  LeaseClient writer({Endpoint(svc)}, 7);
  uint64_t index = 0;
  ASSERT_TRUE(writer.client
                  ->AppendSync(wire::kUnconditional, DataRecord("x"), &index)
                  .ok());
  EXPECT_EQ(svc.metrics().FindGauge("raft_term")->value(), 6);
}

std::string ReadWholeFile(const std::string& path) {
  std::string out;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
    std::fclose(f);
  }
  return out;
}

// Trim writes the new base to meta before it rewrites the log. A crash
// between the two leaves the pre-trim log under the new base; restart must
// keep every record above the trim point.
TEST(PersistenceTest, TrimInterruptedBeforeLogRewriteKeepsTheTail) {
  TempDir dir;
  const LogService::Options opt = OneReplica(dir.path);
  std::string old_log;
  {
    LogService svc(opt);
    ASSERT_TRUE(svc.Start().ok());
    svc.SetPeers({{1, Endpoint(svc)}});
    LeaseClient writer({Endpoint(svc)}, 7);
    uint64_t index = 0;
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(writer.client
                      ->AppendSync(wire::kUnconditional,
                                   DataRecord("r" + std::to_string(i)), &index)
                      .ok());
    }
    ASSERT_EQ(index, 11u);  // the leader's barrier holds index 1
    old_log = ReadWholeFile(dir.path + "/log");
    uint64_t first = 0;
    ASSERT_TRUE(writer.client->TrimSync(6, &first).ok());
    ASSERT_EQ(first, 7u);
    svc.Stop();
  }
  // Crash "between" the writes: the new meta, the old log.
  if (std::FILE* f = std::fopen((dir.path + "/log").c_str(), "wb")) {
    std::fwrite(old_log.data(), 1, old_log.size(), f);
    std::fclose(f);
  }

  LogService svc(opt);
  ASSERT_TRUE(svc.Start().ok());
  svc.SetPeers({{1, Endpoint(svc)}});
  LeaseClient reader({Endpoint(svc)}, 8);
  wire::ClientReadResponse rsp;
  ASSERT_TRUE(reader.client->ReadSync(7, 64, /*wait_ms=*/3000, &rsp).ok());
  EXPECT_EQ(rsp.first_index, 7u);
  std::vector<std::string> data;
  for (const LogEntry& e : rsp.entries) {
    if (e.record.type == RecordType::kData) data.push_back(e.record.payload);
  }
  EXPECT_EQ(data, (std::vector<std::string>{"r5", "r6", "r7", "r8", "r9"}));
}

// ---------------------------------------------------------------------------
// The log client's contract (txlog/log_client.h), once per transport: the
// simulator's ActorTransport against RaftReplica actors, and RemoteClient's
// channels against in-process txlogd replicas. Every case states one rule
// and drives it through both.

template <typename T>
struct Outcome {
  std::atomic<bool> done{false};
  Status status = Status::OK();
  T value{};
};

// One log group and the client under test, over one transport.
class ClientHarness {
 public:
  virtual ~ClientHarness() = default;
  // Three replicas with a leader, and a client with `options`.
  virtual void Start(LogClient::Options options) = 0;
  // One replica of a three-replica group whose two peers never run, so it
  // never leads and refuses every append; the client reaches only it.
  virtual void StartLeaderless(LogClient::Options options) = 0;
  // Replaces the client under test with a fresh one (no leader hint, its
  // round-robin at replica 0).
  virtual void NewClient(LogClient::Options options) = 0;
  virtual size_t Leader() = 0;
  virtual void WaitForCommit(uint64_t index) = 0;
  virtual void Down(size_t replica) = 0;
  // The leader runs the next append it receives, but its answer is lost.
  virtual void LoseNextAppendAnswer() = 0;
  // From the next append on, no answer reaches the client until Heal().
  virtual void LoseAllAnswers() = 0;
  virtual void Heal() = 0;
  // Lets up to `ms` pass (virtual time in the simulator) until done().
  virtual bool RunUntil(const std::function<bool()>& done, uint64_t ms) = 0;
  virtual void Append(LogRecord r, LogClient::AppendCallback cb) = 0;
  virtual void Read(uint64_t from, LogClient::ReadCallback cb) = 0;
  virtual void Trim(uint64_t upto, LogClient::TrimCallback cb) = 0;
  virtual void CancelAppends() = 0;
  virtual void SetBackoffHook(std::function<void(int, uint64_t)> hook) = 0;

  uint64_t Count(const char* counter) {
    const Counter* c = registry.FindCounter(counter);
    return c == nullptr ? 0 : c->value();
  }

  Status AppendSync(const std::string& payload, uint64_t* index = nullptr) {
    auto out = std::make_shared<Outcome<uint64_t>>();
    Append(DataRecord(payload), [out](const Status& s, uint64_t i) {
      out->status = s;
      out->value = i;
      out->done.store(true, std::memory_order_release);
    });
    EXPECT_TRUE(Await(out.get()));
    if (index != nullptr) *index = out->value;
    return out->status;
  }

  Status ReadSync(uint64_t from, wire::ClientReadResponse* rsp) {
    auto out = std::make_shared<Outcome<wire::ClientReadResponse>>();
    Read(from, [out](const Status& s, const wire::ClientReadResponse& r) {
      out->status = s;
      out->value = r;
      out->done.store(true, std::memory_order_release);
    });
    EXPECT_TRUE(Await(out.get()));
    *rsp = out->value;
    return out->status;
  }

  Status TrimSync(uint64_t upto, uint64_t* first) {
    auto out = std::make_shared<Outcome<uint64_t>>();
    Trim(upto, [out](const Status& s, uint64_t f) {
      out->status = s;
      out->value = f;
      out->done.store(true, std::memory_order_release);
    });
    EXPECT_TRUE(Await(out.get()));
    *first = out->value;
    return out->status;
  }

  // How often `payload` is in the committed log from index 1 through
  // `through`.
  int CountPayload(const std::string& payload, uint64_t through) {
    int count = 0;
    uint64_t from = 1;
    for (int tries = 0; from <= through && tries < 100; ++tries) {
      wire::ClientReadResponse rsp;
      if (!ReadSync(from, &rsp).ok() || rsp.entries.empty()) {
        RunUntil([] { return false; }, 20);
        continue;
      }
      for (const LogEntry& e : rsp.entries) {
        if (e.record.payload == payload) ++count;
      }
      from = rsp.entries.back().index + 1;
    }
    EXPECT_GT(from, through) << "log not served through " << through;
    return count;
  }

  MetricsRegistry registry;

 private:
  template <typename T>
  bool Await(Outcome<T>* out) {
    return RunUntil(
        [out] { return out->done.load(std::memory_order_acquire); }, 30000);
  }
};

class ActorHarness : public ClientHarness {
 public:
  void Start(LogClient::Options options) override {
    Boot();
    NewClient(options);
    sim_->RunFor(2 * kSec);
  }
  void StartLeaderless(LogClient::Options options) override {
    Boot();
    // Before the first election timeout: the survivor never wins a vote.
    group_->Crash(1);
    group_->Crash(2);
    client_ = std::make_unique<TestClient>(
        sim_.get(), sim_->AddHost(0),
        std::vector<NodeId>{group_->replica_ids()[0]}, options, &registry);
    sim_->RunFor(2 * kSec);
  }
  void NewClient(LogClient::Options options) override {
    client_ = std::make_unique<TestClient>(sim_.get(), sim_->AddHost(0),
                                           group_->replica_ids(), options,
                                           &registry);
  }
  size_t Leader() override {
    for (size_t i = 0; i < group_->size(); ++i) {
      if (group_->replica(i) == group_->Leader()) return i;
    }
    ADD_FAILURE() << "no leader";
    return 0;
  }
  void WaitForCommit(uint64_t index) override {
    RunUntil(
        [&] {
          for (size_t i = 0; i < group_->size(); ++i) {
            if (sim_->IsAlive(group_->replica_ids()[i]) &&
                group_->replica(i)->commit_index() < index) {
              return false;
            }
          }
          return true;
        },
        5000);
  }
  void Down(size_t replica) override { group_->Crash(replica); }
  void LoseNextAppendAnswer() override { lose_next_ = true; }
  void LoseAllAnswers() override { lose_all_ = true; }
  void Heal() override {
    lose_all_ = false;
    sim_->network().Heal(client_->id());
  }
  bool RunUntil(const std::function<bool()>& done, uint64_t ms) override {
    for (uint64_t i = 0; i < ms && !done(); ++i) sim_->RunFor(1 * kMs);
    return done();
  }
  // The request is on its way before the client is cut off, so a lost
  // answer is one the replica sent.
  void Append(LogRecord r, LogClient::AppendCallback cb) override {
    client_->log.Append(wire::kUnconditional, std::move(r), std::move(cb));
    if (lose_all_ || lose_next_) sim_->network().Isolate(client_->id());
    if (lose_next_) {
      lose_next_ = false;
      const NodeId id = client_->id();
      sim::Simulation* sim = sim_.get();
      sim_->scheduler().After(60 * kMs,
                              [sim, id] { sim->network().Heal(id); });
    }
  }
  void Read(uint64_t from, LogClient::ReadCallback cb) override {
    client_->log.Read(from, 1000, 0, std::move(cb));
  }
  void Trim(uint64_t upto, LogClient::TrimCallback cb) override {
    client_->log.Trim(upto, std::move(cb));
  }
  void CancelAppends() override { client_->log.CancelAppends(); }
  void SetBackoffHook(std::function<void(int, uint64_t)> hook) override {
    client_->log.backoff_hook = std::move(hook);
  }

 private:
  void Boot() {
    client_.reset();
    group_.reset();
    sim_ = std::make_unique<sim::Simulation>(1234);
    group_ = std::make_unique<LogGroup>(sim_.get());
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<LogGroup> group_;
  std::unique_ptr<TestClient> client_;
  bool lose_next_ = false;
  bool lose_all_ = false;
};

class RpcHarness : public ClientHarness {
 public:
  RpcHarness() { EXPECT_TRUE(loop_.Start().ok()); }
  ~RpcHarness() override {
    if (client_ != nullptr) client_->Shutdown();
    loop_.Stop();
  }

  void Start(LogClient::Options options) override {
    group_ = std::make_unique<RealLogGroup>(3);
    EXPECT_TRUE(group_->WaitForLeader());
    NewClient(options);
  }
  void StartLeaderless(LogClient::Options options) override {
    LogService::Options opt;
    opt.node_id = 1;
    opt.fsync = false;
    opt.election_min_ms = 50;
    opt.election_max_ms = 120;
    lone_ = std::make_unique<LogService>(opt);
    ASSERT_TRUE(lone_->Start().ok());
    const std::string self = "127.0.0.1:" + std::to_string(lone_->port());
    // Port 1 refuses: the peers never vote.
    lone_->SetPeers({{1, self}, {2, "127.0.0.1:1"}, {3, "127.0.0.1:1"}});
    Connect({self}, options);
  }
  void NewClient(LogClient::Options options) override {
    Connect(group_->endpoints, options);
  }
  size_t Leader() override {
    const int leader = group_->LeaderIndex();
    EXPECT_GE(leader, 0);
    return static_cast<size_t>(std::max(leader, 0));
  }
  void WaitForCommit(uint64_t index) override {
    RunUntil(
        [&] {
          for (size_t i = 0; i < group_->services.size(); ++i) {
            if (!down_.count(i) &&
                group_->services[i]->commit_index() < index) {
              return false;
            }
          }
          return true;
        },
        5000);
  }
  void Down(size_t replica) override {
    group_->services[replica]->Stop();
    down_.insert(replica);
  }
  void LoseNextAppendAnswer() override {
    group_->services[Leader()]->fault().DropResponses(rpcwire::kAppend, 1);
  }
  void LoseAllAnswers() override {
    for (auto& svc : group_->services) {
      for (const char* method :
           {rpcwire::kAppend, rpcwire::kRead, rpcwire::kTail}) {
        svc->fault().DropResponses(method, 1 << 30);
      }
    }
  }
  void Heal() override {
    for (auto& svc : group_->services) svc->fault().Clear();
  }
  bool RunUntil(const std::function<bool()>& done, uint64_t ms) override {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      RealSleepMs(2);
    }
    return done();
  }
  void Append(LogRecord r, LogClient::AppendCallback cb) override {
    client_->Append(wire::kUnconditional, std::move(r), std::move(cb));
  }
  void Read(uint64_t from, LogClient::ReadCallback cb) override {
    client_->Read(from, 1000, 0, std::move(cb));
  }
  void Trim(uint64_t upto, LogClient::TrimCallback cb) override {
    client_->Trim(upto, std::move(cb));
  }
  void CancelAppends() override { client_->CancelAppends(); }
  void SetBackoffHook(std::function<void(int, uint64_t)> hook) override {
    client_->backoff_hook = std::move(hook);
  }

 private:
  void Connect(const std::vector<std::string>& endpoints,
               LogClient::Options options) {
    if (client_ != nullptr) client_->Shutdown();
    RemoteClient::Options opt;
    static_cast<LogClient::Options&>(opt) = options;
    client_ =
        std::make_unique<RemoteClient>(&loop_, endpoints, opt, &registry);
  }

  rpc::LoopThread loop_;
  std::unique_ptr<RealLogGroup> group_;
  std::unique_ptr<LogService> lone_;
  std::unique_ptr<RemoteClient> client_;
  std::set<size_t> down_;
};

class LogClientContractTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "actor") {
      h_ = std::make_unique<ActorHarness>();
    } else {
      h_ = std::make_unique<RpcHarness>();
    }
  }

  // Short deadlines and backoffs keep the real transport's cases quick.
  static LogClient::Options Quick() {
    return {.writer_id = 9,
            .rpc_timeout_ms = 150,
            .backoff_base_ms = 10,
            .backoff_cap_ms = 40};
  }

  // Points the fresh client's round-robin at a follower: reads take the
  // round-robin without learning a leader.
  void AimAtAFollower() {
    const size_t follower = (h_->Leader() + 1) % 3;
    wire::ClientReadResponse rsp;
    for (size_t i = 0; i < follower; ++i) ASSERT_TRUE(h_->ReadSync(1, &rsp).ok());
  }

  std::unique_ptr<ClientHarness> h_;
};

INSTANTIATE_TEST_SUITE_P(Transports, LogClientContractTest,
                         ::testing::Values("actor", "rpc"),
                         [](const auto& info) { return info.param; });

// A follower's kNotLeader names the leader; the client goes there at once,
// costing no attempt, while its redirect budget lasts. Without budget the
// same refusal costs an attempt and a backoff.
TEST_P(LogClientContractTest, ARedirectWithinBudgetIsFree) {
  LogClient::Options options = Quick();
  options.max_redirects = 1;
  h_->Start(options);
  AimAtAFollower();
  ASSERT_TRUE(h_->AppendSync("redirected").ok());
  EXPECT_EQ(h_->Count("txlog_redirects_total"), 1u);
  EXPECT_EQ(h_->Count("txlog_retries_total"), 0u);

  // Without budget the hint is dropped: round-robin tries the other
  // follower, then the leader.
  options.max_redirects = 0;
  h_->NewClient(options);
  AimAtAFollower();
  ASSERT_TRUE(h_->AppendSync("retried").ok());
  EXPECT_EQ(h_->Count("txlog_redirects_total"), 1u);
  EXPECT_EQ(h_->Count("txlog_retries_total"), 2u);
}

// Backoff n is uniform in [c/2, c) for c = min(cap, base << n).
TEST_P(LogClientContractTest, BackoffStaysWithinItsCaps) {
  LogClient::Options options = Quick();
  options.rpc_timeout_ms = 60;
  options.backoff_base_ms = 16;
  options.backoff_cap_ms = 120;
  options.max_attempts = 6;
  h_->Start(options);
  auto backoffs = std::make_shared<std::vector<std::pair<int, uint64_t>>>();
  auto mu = std::make_shared<std::mutex>();
  h_->SetBackoffHook([backoffs, mu](int attempt, uint64_t delay) {
    std::lock_guard<std::mutex> lock(*mu);
    backoffs->emplace_back(attempt, delay);
  });
  h_->LoseAllAnswers();
  EXPECT_FALSE(h_->AppendSync("unanswered").ok());
  std::lock_guard<std::mutex> lock(*mu);
  ASSERT_EQ(backoffs->size(), 5u);
  for (size_t i = 0; i < backoffs->size(); ++i) {
    const auto [attempt, delay] = (*backoffs)[i];
    EXPECT_EQ(attempt, static_cast<int>(i));
    const uint64_t ceiling = std::min<uint64_t>(120, 16u << i);
    EXPECT_EQ(LogClient::BackoffCeilingMs(options, attempt), ceiling);
    EXPECT_GE(delay, ceiling / 2) << "attempt " << attempt;
    EXPECT_LT(delay, ceiling) << "attempt " << attempt;
  }
}

// Every attempt of one append carries the same (writer, request id), so
// the retry after a lost ack is answered with the first attempt's index.
TEST_P(LogClientContractTest, ARetryAfterALostAckLandsOnce) {
  h_->Start(Quick());
  h_->LoseNextAppendAnswer();
  uint64_t index = 0;
  ASSERT_TRUE(h_->AppendSync("exactly-once", &index).ok());
  EXPECT_GE(h_->Count("txlog_retries_total"), 1u);
  EXPECT_EQ(h_->CountPayload("exactly-once", index), 1);
}

TEST_P(LogClientContractTest, AFailedReadRetriesOnTheNextReplica) {
  h_->Start(Quick());
  uint64_t index = 0;
  ASSERT_TRUE(h_->AppendSync("read-me", &index).ok());
  h_->WaitForCommit(index);
  h_->NewClient(Quick());  // its first read goes to replica 0
  h_->Down(0);
  const uint64_t retries = h_->Count("txlog_retries_total");
  wire::ClientReadResponse rsp;
  ASSERT_TRUE(h_->ReadSync(1, &rsp).ok());
  EXPECT_EQ(h_->Count("txlog_retries_total"), retries + 1);
  EXPECT_TRUE(std::any_of(
      rsp.entries.begin(), rsp.entries.end(),
      [](const LogEntry& e) { return e.record.payload == "read-me"; }));
}

TEST_P(LogClientContractTest, TrimReportsTheFirstIndexLeft) {
  h_->Start(Quick());
  uint64_t index = 0;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(h_->AppendSync("t" + std::to_string(i), &index).ok());
  }
  h_->WaitForCommit(index);
  uint64_t first = 0;
  ASSERT_TRUE(h_->TrimSync(10, &first).ok());
  EXPECT_EQ(first, 11u);
  wire::ClientReadResponse rsp;
  ASSERT_TRUE(h_->ReadSync(1, &rsp).ok());
  EXPECT_EQ(rsp.first_index, 11u);
}

// After CancelAppends an append neither goes out again nor calls back.
TEST_P(LogClientContractTest, CancelAppendsStopsResendsAndCallbacks) {
  LogClient::Options options = Quick();
  options.rpc_timeout_ms = 60;
  options.max_attempts = 1000;
  h_->Start(options);
  auto backoffs = std::make_shared<std::atomic<int>>(0);
  h_->SetBackoffHook([backoffs](int, uint64_t) { ++*backoffs; });
  auto called = std::make_shared<std::atomic<bool>>(false);
  h_->LoseAllAnswers();
  h_->Append(DataRecord("cancelled"),
             [called](const Status&, uint64_t) { *called = true; });
  ASSERT_TRUE(h_->RunUntil([&] { return *backoffs >= 2; }, 5000));
  h_->CancelAppends();
  h_->RunUntil([] { return false; }, 100);  // the cancel reaches the client
  const int at_cancel = *backoffs;
  h_->Heal();
  h_->RunUntil([] { return false; }, 1000);
  EXPECT_EQ(*backoffs, at_cancel);
  EXPECT_FALSE(*called);
}

// Unavailable means not appended, so only a run of refusals earns it; any
// transport failure leaves the append in doubt. Here the leader commits the
// record and no answer comes back: TimedOut, and the record is in the log.
TEST_P(LogClientContractTest, OnlyRefusalsMakeAnAppendUnavailable) {
  LogClient::Options options = Quick();
  options.max_attempts = 3;
  h_->StartLeaderless(options);
  EXPECT_TRUE(h_->AppendSync("refused").IsUnavailable());
  EXPECT_EQ(h_->Count("txlog_retries_total"), 2u);

  h_->Start(options);
  ASSERT_TRUE(h_->AppendSync("finds-the-leader").ok());
  h_->LoseAllAnswers();
  const Status s = h_->AppendSync("in-doubt");
  EXPECT_TRUE(s.IsTimedOut()) << s.ToString();
  h_->Heal();
  uint64_t index = 0;
  ASSERT_TRUE(h_->AppendSync("after", &index).ok());
  EXPECT_EQ(h_->CountPayload("in-doubt", index), 1);
}

// The leader runs an append and its connection then drops, and every retry
// is refused because the group is down: the append may have landed, so it
// is TimedOut, never Unavailable ("not appended"). It is in the log once
// the group is back.
TEST(LogClientRpcTest, AnAppendWhoseConnectionDroppedIsIndeterminate) {
  TempDir dir;
  RealLogGroup group(3, 100, dir.path);
  ASSERT_TRUE(group.WaitForLeader());
  rpc::LoopThread loop;
  ASSERT_TRUE(loop.Start().ok());
  RemoteClient::Options opt;
  opt.writer_id = 9;
  opt.rpc_timeout_ms = 10000;  // the dropped connection ends the attempt
  opt.backoff_base_ms = 10;
  opt.backoff_cap_ms = 20;
  opt.max_attempts = 3;
  RemoteClient client(&loop, group.endpoints, opt, nullptr);
  wire::ClientTailResponse tail;
  ASSERT_TRUE(client.TailSync(&tail).ok());
  const int leader = group.LeaderIndex();
  ASSERT_GE(leader, 0);
  group.services[leader]->fault().DropResponses(rpcwire::kAppend, 1);

  auto out = std::make_shared<Outcome<uint64_t>>();
  client.Append(wire::kUnconditional, DataRecord("dropped-with-the-link"),
                [out](const Status& s, uint64_t) {
                  out->status = s;
                  out->done.store(true, std::memory_order_release);
                });
  for (int i = 0; i < 2500 &&
                  group.services[leader]->commit_index() <= tail.last_index;
       ++i) {
    RealSleepMs(2);
  }
  ASSERT_GT(group.services[leader]->commit_index(), tail.last_index);
  // Followers first: no replica is left to win an election and take a retry.
  for (size_t i = 0; i < group.services.size(); ++i) {
    if (static_cast<int>(i) != leader) group.services[i]->Stop();
  }
  group.services[leader]->Stop();
  for (int i = 0; i < 2500 && !out->done.load(std::memory_order_acquire);
       ++i) {
    RealSleepMs(2);
  }
  ASSERT_TRUE(out->done.load(std::memory_order_acquire));
  EXPECT_TRUE(out->status.IsTimedOut()) << out->status.ToString();

  for (size_t i = 0; i < group.services.size(); ++i) group.Restart(i);
  ASSERT_TRUE(group.WaitForLeader());
  // A restarted follower serves its entries once it learns the commit.
  int found = 0;
  for (int i = 0; i < 250 && found == 0; ++i) {
    wire::ClientReadResponse rsp;
    if (client.ReadSync(1, 1000, 0, &rsp).ok()) {
      for (const LogEntry& e : rsp.entries) {
        if (e.record.payload == "dropped-with-the-link") ++found;
      }
    }
    if (found == 0) RealSleepMs(20);
  }
  EXPECT_EQ(found, 1);
  client.Shutdown();
  loop.Stop();
}

}  // namespace
}  // namespace memdb::txlog
