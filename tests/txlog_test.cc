#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
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
#include "txlog/client.h"
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
  TestClient(sim::Simulation* sim, NodeId id, std::vector<NodeId> replicas)
      : Actor(sim, id), log(this, std::move(replicas)) {}

  TxLogClient log;
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

  std::vector<LogEntry> ReadAllSync() {
    std::vector<LogEntry> all;
    uint64_t from = 1;
    while (true) {
      bool done = false;
      wire::ClientReadResponse got;
      Status status = Status::OK();
      client_->log.Read(from, 128, [&](const Status& s,
                                       const wire::ClientReadResponse& r) {
        status = s;
        got = r;
        done = true;
      });
      for (int i = 0; i < 10000 && !done; ++i) sim_->RunFor(10 * kMs);
      EXPECT_TRUE(done);
      if (!status.ok() || got.entries.empty()) break;
      from = got.entries.back().index + 1;
      for (auto& e : got.entries) all.push_back(std::move(e));
    }
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

  uint64_t TailSync() {
    bool done = false;
    wire::ClientTailResponse resp;
    client_->log.Tail([&](const Status& s, const wire::ClientTailResponse& r) {
      resp = r;
      done = true;
    });
    for (int i = 0; i < 10000 && !done; ++i) sim_->RunFor(10 * kMs);
    EXPECT_TRUE(done);
    return resp.last_index;
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
  uint64_t tail = TailSync();
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
  const uint64_t tail = TailSync();
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
  client_->log.Trim(10);
  sim_->RunFor(1 * kSec);
  bool done = false;
  wire::ClientReadResponse resp;
  client_->log.Read(1, 10, [&](const Status& s,
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
  uint64_t tail = TailSync();
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
  explicit RealLogGroup(size_t n, uint64_t raft_rpc_timeout_ms = 100) {
    for (size_t i = 0; i < n; ++i) {
      LogService::Options opt;
      opt.node_id = i + 1;
      opt.listen_port = 0;
      opt.fsync = false;
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
  LeaseClient(const std::vector<std::string>& endpoints, uint64_t writer) {
    EXPECT_TRUE(loop.Start().ok());
    RemoteClient::Options opt;
    opt.writer_id = writer;
    opt.rpc_timeout_ms = 250;
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

  LeaseClient writer(group.endpoints, 7);
  constexpr int kEntries = 66;
  const std::string payload(1 << 20, 'p');
  uint64_t last = 0;
  for (int i = 0; i < kEntries; ++i) {
    LogRecord r;
    r.type = RecordType::kData;
    r.payload = payload;
    r.payload[0] = static_cast<char>(i);
    ASSERT_TRUE(
        writer.client->AppendSync(wire::kUnconditional, std::move(r), &last)
            .ok());
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

}  // namespace
}  // namespace memdb::txlog
