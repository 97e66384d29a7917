// RaftCore with no driver: the rules the simulator and txlogd share, each
// pinned by a unit test, plus a seeded randomized harness that runs 3- and
// 5-replica groups over a network that drops, duplicates, reorders and
// partitions messages, crashes replicas (losing unpersisted writes) and
// restarts them from what reached "disk", and checks Raft's safety
// properties after every step.
//
// Links only memdb_raft_core: the core needs no clock, socket, file,
// thread or simulator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "txlog/raft_core.h"
#include "txlog/wire.h"

namespace memdb::txlog {
namespace {

using Output = RaftCore::Output;

constexpr uint64_t kHeartbeat = 10;
constexpr uint64_t kElectionMin = 50;
constexpr uint64_t kElectionMax = 100;

RaftConfig Config(NodeId self, size_t dedup_max = kDefaultDedupEntries) {
  RaftConfig c;
  c.self = self;
  c.heartbeat_interval = kHeartbeat;
  c.election_timeout_min = kElectionMin;
  c.election_timeout_max = kElectionMax;
  c.dedup_max_entries = dedup_max;
  c.seed = 1000 + self;
  return c;
}

LogEntry Entry(uint64_t index, uint64_t term, std::string payload = "") {
  LogEntry e;
  e.index = index;
  e.term = term;
  e.record.payload = std::move(payload);
  return e;
}

LogRecord Record(std::string payload, uint64_t writer = 0,
                 uint64_t request_id = 0) {
  LogRecord r;
  r.writer = writer;
  r.request_id = request_id;
  r.payload = std::move(payload);
  return r;
}

// One core plus the bits of a driver a unit test needs: it collects the
// output and completes log writes only when told to.
struct Replica {
  explicit Replica(RaftConfig config, RaftPersistentState state = {})
      : core(config, std::move(state), &metrics, &trace) {}

  // Drains the core, accumulating everything into `out`.
  Output& Drain() {
    while (core.HasOutput()) {
      Output o = core.TakeOutput();
      if (o.log.from != 0) writes.push_back(o.log);
      for (auto& s : o.sends) {
        epoch_to[s.to] = s.epoch;
        out.sends.push_back(std::move(s));
      }
      for (auto& r : o.replies) out.replies.push_back(std::move(r));
      for (auto& c : o.outcomes) out.outcomes.push_back(c);
      out.write_meta |= o.write_meta;
      out.committed |= o.committed;
    }
    return out;
  }
  // Completes every log write issued so far.
  void PersistAll(uint64_t now) {
    Drain();
    std::vector<RaftCore::LogWrite> pending;
    pending.swap(writes);
    for (const auto& w : pending) core.OnPersisted(now, w.to, w.gen);
    Drain();
  }
  void Clear() { out = Output(); }

  // Becomes leader of a 3-replica group {self, 2, 3} (or alone) by timing
  // out and collecting one vote.
  void Elect(uint64_t* now) {
    *now += kElectionMax;
    core.Tick(*now);
    Drain();
    if (!core.IsLeader()) {
      wire::VoteResponse yes;
      yes.term = core.current_term();
      yes.granted = true;
      core.OnVoteResponse(*now, 2, epoch_to[2], yes);
      Drain();
    }
    ASSERT_TRUE(core.IsLeader());
  }

  // Answers the latest AppendEntries sent to `peer`.
  void Ack(uint64_t now, NodeId peer, uint64_t match, bool success = true) {
    wire::AppendEntriesResponse resp;
    resp.term = core.current_term();
    resp.success = success;
    resp.match_index = match;
    core.OnAppendEntriesResponse(now, peer, epoch_to[peer], &resp);
    Drain();
  }

  MetricsRegistry metrics;
  TraceLog trace;
  RaftCore core;
  Output out;
  std::vector<RaftCore::LogWrite> writes;
  std::map<NodeId, uint64_t> epoch_to;  // of the latest request per peer
};

wire::AppendEntriesResponse DecodeAck(const RaftCore::Reply& r) {
  wire::AppendEntriesResponse resp;
  EXPECT_TRUE(wire::AppendEntriesResponse::Decode(Slice(r.payload), &resp));
  return resp;
}

wire::AppendEntriesRequest DecodeAppend(const RaftCore::Send& s) {
  wire::AppendEntriesRequest req;
  EXPECT_EQ(s.kind, RaftCore::SendKind::kAppendEntries);
  EXPECT_TRUE(wire::AppendEntriesRequest::Decode(Slice(s.payload), &req));
  return req;
}

RaftPersistentState LogOf(uint64_t term, std::vector<LogEntry> entries) {
  RaftPersistentState s;
  s.current_term = term;
  for (auto& e : entries) s.log.push_back(std::move(e));
  return s;
}

// --------------------------------------------------------------- unit rules

// A follower's ack vouches only for what the request covered (Raft §5.3):
// its local tail past prev_index may hold a stale term's entries.
TEST(RaftCoreTest, FollowerAckAndCommitUseTheRangeTheRequestCovered) {
  Replica f(Config(2), LogOf(1, {Entry(1, 1), Entry(2, 1), Entry(3, 1)}));
  wire::AppendEntriesRequest hb;
  hb.term = 2;
  hb.leader = 1;
  hb.prev_index = 1;
  hb.prev_term = 1;
  hb.commit_index = 3;
  f.core.OnAppendEntries(0, 7, std::move(hb));
  f.Drain();
  ASSERT_EQ(f.out.replies.size(), 1u);
  const auto ack = DecodeAck(f.out.replies[0]);
  EXPECT_TRUE(ack.success);
  EXPECT_EQ(ack.match_index, 1u);
  EXPECT_EQ(f.core.commit_index(), 1u);
}

TEST(RaftCoreTest, RejectHintIsPrevMinusOneCappedByLastPersisted) {
  Replica f(Config(2), LogOf(1, {Entry(1, 1), Entry(2, 1), Entry(3, 1)}));
  wire::AppendEntriesRequest append;
  append.term = 1;
  append.leader = 1;
  append.prev_index = 3;
  append.prev_term = 1;
  append.entries = {Entry(4, 1), Entry(5, 1)};  // not yet persisted
  f.core.OnAppendEntries(0, 1, std::move(append));
  f.Drain();
  EXPECT_TRUE(f.out.replies.empty());  // acks wait for the persist
  ASSERT_EQ(f.core.last_index(), 5u);
  ASSERT_EQ(f.core.durable_index(), 3u);

  wire::AppendEntriesRequest ahead;
  ahead.term = 1;
  ahead.leader = 1;
  ahead.prev_index = 9;
  f.core.OnAppendEntries(0, 2, std::move(ahead));
  wire::AppendEntriesRequest mismatch;
  mismatch.term = 1;
  mismatch.leader = 1;
  mismatch.prev_index = 3;
  mismatch.prev_term = 9;
  f.core.OnAppendEntries(0, 3, std::move(mismatch));
  f.Drain();
  ASSERT_EQ(f.out.replies.size(), 2u);
  EXPECT_FALSE(DecodeAck(f.out.replies[0]).success);
  EXPECT_EQ(DecodeAck(f.out.replies[0]).match_index, 3u);  // min(8, 3)
  EXPECT_EQ(DecodeAck(f.out.replies[1]).match_index, 2u);  // min(2, 3)

  f.PersistAll(1);  // the first request's ack is released
  ASSERT_EQ(f.out.replies.size(), 3u);
  EXPECT_EQ(f.out.replies[2].token, 1u);
  EXPECT_EQ(DecodeAck(f.out.replies[2]).match_index, 5u);
}

TEST(RaftCoreTest, BackoffStopsAtBasePlusOneAndResendsAtOnce) {
  RaftPersistentState s = LogOf(1, {Entry(6, 1), Entry(7, 1), Entry(8, 1)});
  s.base_index = 5;
  s.base_term = 1;
  Replica l(Config(1), std::move(s));
  l.core.Start(0, {2, 3});
  uint64_t now = 0;
  l.Elect(&now);
  l.Clear();
  l.Ack(now, 2, /*match=*/0, /*success=*/false);
  ASSERT_EQ(l.out.sends.size(), 1u);  // resent without waiting a heartbeat
  EXPECT_EQ(DecodeAppend(l.out.sends[0]).prev_index, 5u);
  EXPECT_EQ(DecodeAppend(l.out.sends[0]).entries.front().index, 6u);
  l.Clear();
  l.Ack(now, 2, /*match=*/0, /*success=*/false);
  ASSERT_EQ(l.out.sends.size(), 1u);
  EXPECT_EQ(DecodeAppend(l.out.sends[0]).prev_index, 5u);
}

TEST(RaftCoreTest, BatchesCapEntriesAndBytesButCarryAtLeastOne) {
  std::vector<LogEntry> small;
  for (uint64_t i = 1; i <= 300; ++i) small.push_back(Entry(i, 1, "x"));
  Replica l(Config(1), LogOf(1, std::move(small)));
  l.core.Start(0, {2, 3});
  uint64_t now = 0;
  l.Elect(&now);
  l.Clear();
  l.Ack(now, 2, 0, false);
  EXPECT_EQ(DecodeAppend(l.out.sends[0]).entries.size(), kMaxAppendEntries);

  // Reads: committed entries, capped the same way.
  l.PersistAll(now);
  l.Ack(now, 2, l.core.last_index());
  ASSERT_EQ(l.core.commit_index(), 301u);
  wire::ClientReadResponse read;
  ASSERT_TRUE(wire::ClientReadResponse::Decode(
      Slice(l.core.EncodeRead(1, 1000)), &read));
  EXPECT_EQ(read.entries.size(), kMaxReadEntries);
  ASSERT_TRUE(
      wire::ClientReadResponse::Decode(Slice(l.core.EncodeRead(1, 5)), &read));
  EXPECT_EQ(read.entries.size(), 5u);

  // Big entries: 4 MiB per batch, but one always goes.
  const std::string three_mib(3u << 20, 'b');
  const std::string five_mib(5u << 20, 'B');
  Replica big(Config(1), LogOf(1, {Entry(1, 1, three_mib),
                                   Entry(2, 1, three_mib),
                                   Entry(3, 1, five_mib)}));
  big.core.Start(0, {2, 3});
  now = 0;
  big.Elect(&now);
  big.Clear();
  big.Ack(now, 2, 0, false);
  EXPECT_EQ(DecodeAppend(big.out.sends[0]).entries.size(), 1u);
  big.Clear();
  big.Ack(now, 2, 2);  // next = 3: the 5 MiB entry goes alone
  ASSERT_EQ(DecodeAppend(big.out.sends[0]).entries.size(), 1u);
  EXPECT_EQ(DecodeAppend(big.out.sends[0]).entries[0].index, 3u);
  big.PersistAll(now);
  big.Ack(now, 2, big.core.last_index());
  ASSERT_TRUE(wire::ClientReadResponse::Decode(
      Slice(big.core.EncodeRead(1, 64)), &read));
  EXPECT_EQ(read.entries.size(), 1u);
  ASSERT_TRUE(wire::ClientReadResponse::Decode(
      Slice(big.core.EncodeRead(3, 64)), &read));
  EXPECT_EQ(read.entries.size(), 1u);
}

TEST(RaftCoreTest, OneReplicaGroupElectsItselfAndCommitsOnItsOwnPersist) {
  Replica r(Config(1));
  r.core.Start(0, {});
  uint64_t now = 0;
  r.Elect(&now);
  EXPECT_EQ(r.core.current_term(), 1u);
  EXPECT_TRUE(r.out.write_meta);
  EXPECT_EQ(r.core.LeaderStatus(), wire::ClientResult::kUnavailable);
  r.PersistAll(now);  // the barrier
  EXPECT_EQ(r.core.commit_index(), 1u);
  EXPECT_EQ(r.core.LeaderStatus(), wire::ClientResult::kOk);

  r.core.Propose(now, 42, wire::kUnconditional, Record("a"));
  r.Drain();
  EXPECT_TRUE(r.out.outcomes.empty());
  r.PersistAll(now);
  ASSERT_EQ(r.out.outcomes.size(), 1u);
  EXPECT_EQ(r.out.outcomes[0].token, 42u);
  EXPECT_EQ(r.out.outcomes[0].result, wire::ClientResult::kOk);
  EXPECT_EQ(r.out.outcomes[0].index, 2u);
}

// Makes `l` (node 1 of {1, 2, 3}) leader with its barrier committed.
void ElectAndCommitBarrier(Replica* l, uint64_t* now) {
  l->core.Start(*now, {2, 3});
  l->Elect(now);
  l->PersistAll(*now);
  l->Ack(*now, 2, l->core.last_index());
  ASSERT_EQ(l->core.LeaderStatus(), wire::ClientResult::kOk);
  l->Clear();
}

TEST(RaftCoreTest, TruncationFailsDroppedProposalsAndFreesTheirDedupSlots) {
  Replica l(Config(1));
  uint64_t now = 0;
  ElectAndCommitBarrier(&l, &now);
  const uint64_t term = l.core.current_term();
  l.core.Propose(now, 5, wire::kUnconditional, Record("x", 7, 9));
  l.Drain();
  ASSERT_EQ(l.core.last_index(), 2u);

  // A newer leader overwrites index 2.
  wire::AppendEntriesRequest req;
  req.term = term + 1;
  req.leader = 2;
  req.prev_index = 1;
  req.prev_term = term;
  req.entries = {Entry(2, term + 1, "other")};
  l.core.OnAppendEntries(now, 100, std::move(req));
  l.Drain();
  ASSERT_EQ(l.out.outcomes.size(), 1u);
  EXPECT_EQ(l.out.outcomes[0].token, 5u);
  EXPECT_NE(l.out.outcomes[0].result, wire::ClientResult::kOk);
  EXPECT_EQ(l.core.entry(2)->record.payload, "other");

  // Leader again: the retried (7, 9) appends afresh, it is no dedup hit.
  l.PersistAll(now);
  l.Clear();
  l.Elect(&now);
  l.PersistAll(now);
  l.Ack(now, 2, l.core.last_index());
  l.Clear();
  l.core.Propose(now, 6, wire::kUnconditional, Record("x", 7, 9));
  l.PersistAll(now);
  l.Ack(now, 2, l.core.last_index());
  ASSERT_EQ(l.out.outcomes.size(), 1u);
  EXPECT_EQ(l.out.outcomes[0].result, wire::ClientResult::kOk);
  EXPECT_EQ(l.out.outcomes[0].index, 4u);
  EXPECT_EQ(l.metrics.FindCounter("txlog_dedup_hits_total")->value(), 0u);
}

TEST(RaftCoreTest, StepDownClearsTheBarrierUntilTheNextOneCommits) {
  Replica l(Config(1));
  uint64_t now = 0;
  ElectAndCommitBarrier(&l, &now);
  wire::AppendEntriesRequest hb;
  hb.term = l.core.current_term() + 1;
  hb.leader = 2;
  hb.prev_index = l.core.last_index();
  hb.prev_term = l.core.current_term();
  l.core.OnAppendEntries(now, 1, std::move(hb));
  l.Drain();
  EXPECT_EQ(l.core.LeaderStatus(), wire::ClientResult::kNotLeader);

  l.Clear();
  l.Elect(&now);
  l.PersistAll(now);
  EXPECT_EQ(l.core.LeaderStatus(), wire::ClientResult::kUnavailable);
  EXPECT_EQ(l.core.Tail().result, wire::ClientResult::kUnavailable);
  l.core.Propose(now, 9, wire::kUnconditional, Record("early"));
  l.Drain();
  ASSERT_EQ(l.out.outcomes.size(), 1u);
  EXPECT_EQ(l.out.outcomes[0].result, wire::ClientResult::kUnavailable);

  l.Ack(now, 2, l.core.last_index());
  EXPECT_EQ(l.core.LeaderStatus(), wire::ClientResult::kOk);
  EXPECT_EQ(l.core.Tail().result, wire::ClientResult::kOk);
}

// Figure 8 of the Raft paper: a majority holding an earlier term's entry
// does not commit it; only a current-term entry commits by counting.
TEST(RaftCoreTest, EarlierTermEntryNeverCommitsByCountingReplicas) {
  Replica l(Config(1), LogOf(3, {Entry(1, 1), Entry(2, 2)}));
  l.core.Start(0, {2, 3});
  uint64_t now = 0;
  l.Elect(&now);
  ASSERT_EQ(l.core.current_term(), 4u);
  l.Ack(now, 2, 2);  // {leader, 2} both hold index 2 (term 2)
  EXPECT_EQ(l.core.commit_index(), 0u);
  l.PersistAll(now);  // the leader's barrier (index 3, term 4) is durable
  EXPECT_EQ(l.core.commit_index(), 0u);
  l.Ack(now, 2, 3);
  EXPECT_EQ(l.core.commit_index(), 3u);  // 1 and 2 commit with it
}

TEST(RaftCoreTest, RetryGetsItsOriginalIndexAndDedupEvictsOldestFirst) {
  Replica r(Config(1, /*dedup_max=*/2));
  r.core.Start(0, {});
  uint64_t now = 0;
  r.Elect(&now);
  r.PersistAll(now);

  r.core.Propose(now, 1, wire::kUnconditional, Record("a", 7, 1));
  r.core.Propose(now, 2, wire::kUnconditional, Record("a", 7, 1));  // pending
  r.Drain();
  EXPECT_TRUE(r.out.outcomes.empty());
  r.PersistAll(now);
  ASSERT_EQ(r.out.outcomes.size(), 2u);
  EXPECT_EQ(r.out.outcomes[0].index, 2u);
  EXPECT_EQ(r.out.outcomes[1].index, 2u);
  r.Clear();
  r.core.Propose(now, 3, wire::kUnconditional, Record("a", 7, 1));  // committed
  r.Drain();
  ASSERT_EQ(r.out.outcomes.size(), 1u);
  EXPECT_EQ(r.out.outcomes[0].result, wire::ClientResult::kOk);
  EXPECT_EQ(r.out.outcomes[0].index, 2u);
  EXPECT_EQ(r.core.last_index(), 2u);

  // Two more keys overflow the cap of 2: (7, 1) goes first.
  r.core.Propose(now, 4, wire::kUnconditional, Record("b", 7, 2));
  r.core.Propose(now, 5, wire::kUnconditional, Record("c", 7, 3));
  r.PersistAll(now);
  EXPECT_EQ(r.metrics.FindCounter("txlog_dedup_evictions_total")->value(), 1u);
  r.Clear();
  r.core.Propose(now, 6, wire::kUnconditional, Record("c", 7, 3));
  r.core.Propose(now, 7, wire::kUnconditional, Record("a", 7, 1));
  r.PersistAll(now);
  ASSERT_EQ(r.out.outcomes.size(), 2u);
  EXPECT_EQ(r.out.outcomes[0].index, 4u);  // still deduped
  EXPECT_EQ(r.out.outcomes[1].index, 5u);  // evicted: appended again
}

// --------------------------------------------------------------- harness

// A seeded group of cores over a hostile network and crashing disks. Log
// writes reach a replica's modeled disk only when the harness completes
// them; a crash loses the ones in flight, and a restart rebuilds the core
// from the disk.
class Harness {
 public:
  Harness(size_t n, uint64_t seed) : rng_(seed), seed_(seed) {
    for (size_t i = 0; i < n; ++i) {
      nodes_.push_back(std::make_unique<Node>());
      nodes_.back()->id = static_cast<NodeId>(i + 1);
    }
    for (auto& node : nodes_) Boot(*node);
  }

  void Run(int steps) {
    for (int step = 0; step < steps && !::testing::Test::HasFailure();
         ++step) {
      Step();
      Check();
    }
  }

  size_t acked() const { return acked_.size(); }
  size_t elections() const { return leaders_.size(); }

 private:
  struct Write {
    RaftCore::LogWrite w;
    std::vector<LogEntry> entries;
  };
  struct Node {
    NodeId id = 0;
    bool up = true;
    uint64_t incarnation = 0;
    RaftPersistentState disk;
    std::deque<Write> writes;
    MetricsRegistry metrics;
    TraceLog trace{64};
    std::unique_ptr<RaftCore> core;
  };
  struct Msg {
    NodeId from = 0, to = 0;
    uint64_t from_incarnation = 0;  // requests: the sender's
    bool response = false;
    bool timeout = false;  // the call failed (dropped request or answer)
    RaftCore::SendKind kind = RaftCore::SendKind::kVote;
    uint64_t epoch = 0;
    std::string payload;
  };
  struct Call {  // a request a core has yet to answer
    NodeId requester = 0;
    uint64_t requester_incarnation = 0;
    RaftCore::SendKind kind = RaftCore::SendKind::kVote;
    uint64_t epoch = 0;
  };
  struct Acked {
    uint64_t index = 0;
    uint64_t term = 0;  // the acking leader's term
    std::string payload;
  };

  Node& node(NodeId id) { return *nodes_[id - 1]; }

  void Boot(Node& n) {
    ++n.incarnation;
    RaftConfig config = Config(n.id);
    config.seed = seed_ * 131 + n.id * 17 + n.incarnation;
    n.core = std::make_unique<RaftCore>(config, n.disk, &n.metrics, &n.trace);
    std::vector<NodeId> peers;
    for (auto& other : nodes_) {
      if (other->id != n.id) peers.push_back(other->id);
    }
    n.core->Start(now_, peers);
    Drain(n);
  }

  bool Linked(NodeId a, NodeId b) const {
    return cut_.count({std::min(a, b), std::max(a, b)}) == 0;
  }

  void Drain(Node& n) {
    while (n.core->HasOutput()) {
      Output out = n.core->TakeOutput();
      if (out.write_meta || out.compact) {
        n.disk.current_term = n.core->current_term();
        n.disk.voted_for = n.core->voted_for();
        n.disk.base_term = n.core->base_term();
        n.disk.base_index = n.core->base_index();
        while (!n.disk.log.empty() &&
               n.disk.log.front().index <= n.disk.base_index) {
          n.disk.log.pop_front();
        }
      }
      if (out.log.from != 0) {
        Write w{out.log, {}};
        for (uint64_t i = std::max(out.log.from, n.core->base_index() + 1);
             i <= out.log.to; ++i) {
          w.entries.push_back(*n.core->entry(i));
        }
        n.writes.push_back(std::move(w));
      }
      for (auto& s : out.sends) {
        Msg m;
        m.from = n.id;
        m.to = s.to;
        m.from_incarnation = n.incarnation;
        m.kind = s.kind;
        m.epoch = s.epoch;
        m.payload = std::move(s.payload);
        net_.push_back(std::move(m));
      }
      for (auto& r : out.replies) {
        auto it = calls_.find(r.token);
        ASSERT_NE(it, calls_.end());
        Msg m;
        m.from = n.id;
        m.to = it->second.requester;
        m.from_incarnation = it->second.requester_incarnation;
        m.response = true;
        m.kind = it->second.kind;
        m.epoch = it->second.epoch;
        m.payload = std::move(r.payload);
        net_.push_back(std::move(m));
        calls_.erase(it);
      }
      for (const auto& o : out.outcomes) {
        auto it = proposals_.find(o.token);
        ASSERT_NE(it, proposals_.end());
        if (o.result == wire::ClientResult::kOk) {
          const auto& [request_id, payload] = it->second;
          // Dedup covers the retained log: a retry may append a second
          // copy only once every acked copy was trimmed away.
          std::set<uint64_t>& copies = acked_indexes_[request_id];
          if (copies.insert(o.index).second) {
            for (uint64_t copy : copies) {
              EXPECT_TRUE(copy == o.index || copy <= n.core->base_index())
                  << "seed " << seed_ << ": request " << request_id
                  << " acked at " << o.index << " and at " << copy;
            }
            acked_.push_back({o.index, n.core->current_term(), payload});
          }
        }
        proposals_.erase(it);
      }
    }
  }

  // Completes the oldest in-flight write of a node.
  void CompleteWrite(Node& n) {
    Write w = std::move(n.writes.front());
    n.writes.pop_front();
    while (!n.disk.log.empty() && n.disk.log.back().index >= w.w.from) {
      n.disk.log.pop_back();
    }
    for (LogEntry& e : w.entries) {
      if (e.index <= n.disk.base_index) continue;
      ASSERT_EQ(e.index, n.disk.base_index + n.disk.log.size() + 1)
          << "seed " << seed_ << ": write leaves a gap on disk";
      n.disk.log.push_back(std::move(e));
    }
    n.core->OnPersisted(now_, w.w.to, w.w.gen);
    Drain(n);
  }

  void Deliver() {
    const size_t pick = rng_.Uniform(net_.size());
    Msg m = net_[pick];
    if (rng_.Uniform(20) != 0) {  // 1 in 20 stays behind: a duplicate
      net_[pick] = std::move(net_.back());
      net_.pop_back();
    }
    Node& dst = node(m.to);
    const bool lost = !dst.up || !Linked(m.from, m.to) || rng_.OneIn(10);
    if (m.response || m.timeout) {
      if (lost || dst.incarnation != m.from_incarnation) return;
      if (m.kind == RaftCore::SendKind::kVote) {
        wire::VoteResponse resp;
        ASSERT_TRUE(wire::VoteResponse::Decode(Slice(m.payload), &resp));
        dst.core->OnVoteResponse(now_, m.from, m.epoch, resp);
      } else if (m.timeout) {
        dst.core->OnAppendEntriesResponse(now_, m.from, m.epoch, nullptr);
      } else {
        wire::AppendEntriesResponse resp;
        ASSERT_TRUE(
            wire::AppendEntriesResponse::Decode(Slice(m.payload), &resp));
        dst.core->OnAppendEntriesResponse(now_, m.from, m.epoch, &resp);
      }
      Drain(dst);
      return;
    }
    if (lost) {
      // The sender's call times out.
      if (m.kind == RaftCore::SendKind::kAppendEntries) {
        Msg t = m;
        t.timeout = true;
        std::swap(t.from, t.to);
        net_.push_back(std::move(t));
      }
      return;
    }
    const uint64_t token = next_token_++;
    calls_[token] = {m.from, m.from_incarnation, m.kind, m.epoch};
    if (m.kind == RaftCore::SendKind::kVote) {
      wire::VoteRequest req;
      ASSERT_TRUE(wire::VoteRequest::Decode(Slice(m.payload), &req));
      dst.core->OnVoteRequest(now_, token, req);
    } else {
      wire::AppendEntriesRequest req;
      ASSERT_TRUE(wire::AppendEntriesRequest::Decode(Slice(m.payload), &req));
      dst.core->OnAppendEntries(now_, token, std::move(req));
    }
    Drain(dst);
  }

  void Step() {
    const uint64_t dice = rng_.Uniform(100);
    std::vector<Node*> up, down, writing;
    for (auto& n : nodes_) {
      (n->up ? up : down).push_back(n.get());
      if (n->up && !n->writes.empty()) writing.push_back(n.get());
    }
    if (dice < 50 && !net_.empty()) {
      Deliver();
    } else if (dice < 62 && !writing.empty()) {
      CompleteWrite(*writing[rng_.Uniform(writing.size())]);
    } else if (dice < 77) {
      now_ += 1 + rng_.Uniform(8);
      for (Node* n : up) {
        n->core->Tick(now_);
        Drain(*n);
      }
    } else if (dice < 90 && !up.empty()) {
      // Clients mostly find the leader; some ask a follower.
      Node* target = up[rng_.Uniform(up.size())];
      for (Node* n : up) {
        if (n->core->IsLeader() && !rng_.OneIn(5)) target = n;
      }
      Propose(*target);
    } else if (dice < 91 && up.size() > 1) {
      Node* n = up[rng_.Uniform(up.size())];
      n->up = false;
      n->writes.clear();  // unpersisted writes die with the process
      n->core.reset();
    } else if (dice < 94 && !down.empty()) {
      Node* n = down[rng_.Uniform(down.size())];
      n->up = true;
      Boot(*n);
    } else if (dice < 96) {
      const NodeId a = 1 + static_cast<NodeId>(rng_.Uniform(nodes_.size()));
      const NodeId b = 1 + static_cast<NodeId>(rng_.Uniform(nodes_.size()));
      if (a != b) cut_.insert({std::min(a, b), std::max(a, b)});
    } else if (dice < 99) {
      cut_.clear();
    } else if (!up.empty()) {
      Node* n = up[rng_.Uniform(up.size())];
      n->core->Trim(n->core->commit_index() - rng_.Uniform(3));
      Drain(*n);
    }
  }

  void Propose(Node& n) {
    // Mostly fresh appends; sometimes a retry of an earlier request, which
    // dedup must answer with the original index if that one committed.
    uint64_t request_id = next_request_++;
    std::string payload = "s" + std::to_string(seed_) + "-" +
                          std::to_string(request_id);
    if (!sent_.empty() && rng_.OneIn(4)) {
      const auto& [rid, p] = sent_[rng_.Uniform(sent_.size())];
      request_id = rid;
      payload = p;
    } else {
      sent_.emplace_back(request_id, payload);
    }
    const uint64_t token = next_token_++;
    proposals_[token] = {request_id, payload};
    n.core->Propose(now_, token, wire::kUnconditional,
                    Record(payload, /*writer=*/1, request_id));
    Drain(n);
  }

  void Check() {
    // Election safety: at most one leader per term.
    for (auto& n : nodes_) {
      if (!n->up || !n->core->IsLeader()) continue;
      auto [it, fresh] = leaders_.emplace(n->core->current_term(), n->id);
      ASSERT_EQ(it->second, n->id)
          << "seed " << seed_ << ": two leaders in term " << it->first;
    }
    // Log matching: where two logs hold the same (index, term), they agree
    // on that entry and everything before it.
    for (size_t a = 0; a < nodes_.size(); ++a) {
      for (size_t b = a + 1; b < nodes_.size(); ++b) {
        const Node& x = *nodes_[a];
        const Node& y = *nodes_[b];
        if (!x.up || !y.up) continue;
        const uint64_t lo =
            std::max(x.core->base_index(), y.core->base_index()) + 1;
        const uint64_t hi =
            std::min(x.core->last_index(), y.core->last_index());
        uint64_t top = 0;
        for (uint64_t i = hi; i >= lo && i > 0; --i) {
          if (x.core->entry(i)->term == y.core->entry(i)->term) {
            top = i;
            break;
          }
        }
        for (uint64_t i = lo; i <= top; ++i) {
          ASSERT_EQ(x.core->entry(i)->term, y.core->entry(i)->term)
              << "seed " << seed_ << ": logs diverge below a match at " << i;
          ASSERT_EQ(x.core->entry(i)->record.payload,
                    y.core->entry(i)->record.payload)
              << "seed " << seed_ << ": index " << i;
        }
      }
    }
    // State machine safety: a committed index never changes its entry.
    for (auto& n : nodes_) {
      if (!n->up) continue;
      for (uint64_t i = n->core->base_index() + 1; i <= n->core->commit_index();
           ++i) {
        const LogEntry* e = n->core->entry(i);
        ASSERT_NE(e, nullptr) << "seed " << seed_ << ": commit past the log";
        auto [it, fresh] = committed_.emplace(
            i, Committed{e->term, e->record.payload, n->core->current_term()});
        ASSERT_EQ(it->second.term, e->term)
            << "seed " << seed_ << ": committed index " << i << " changed";
        ASSERT_EQ(it->second.payload, e->record.payload)
            << "seed " << seed_ << ": committed index " << i << " changed";
      }
    }
    // Leader completeness: a leader holds every entry committed, and every
    // append acknowledged, in an earlier term.
    for (auto& n : nodes_) {
      if (!n->up || !n->core->IsLeader()) continue;
      const uint64_t term = n->core->current_term();
      for (const auto& [index, c] : committed_) {
        if (c.seen_in_term >= term || index <= n->core->base_index()) continue;
        const LogEntry* e = n->core->entry(index);
        ASSERT_NE(e, nullptr) << "seed " << seed_ << ": leader of term "
                              << term << " lacks committed " << index;
        ASSERT_EQ(e->record.payload, c.payload)
            << "seed " << seed_ << ": committed " << index << " replaced";
      }
      for (const Acked& a : acked_) {
        if (a.term >= term || a.index <= n->core->base_index()) continue;
        const LogEntry* e = n->core->entry(a.index);
        ASSERT_NE(e, nullptr) << "seed " << seed_ << ": leader of term "
                              << term << " lost acked " << a.index;
        ASSERT_EQ(e->record.payload, a.payload)
            << "seed " << seed_ << ": acked " << a.index << " replaced";
      }
    }
  }

  struct Committed {
    uint64_t term = 0;
    std::string payload;
    uint64_t seen_in_term = 0;  // a term at or after the commit
  };

  Rng rng_;
  uint64_t seed_;
  uint64_t now_ = 0;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Msg> net_;
  std::set<std::pair<NodeId, NodeId>> cut_;
  std::map<uint64_t, Call> calls_;
  uint64_t next_token_ = 1;
  uint64_t next_request_ = 1;
  std::vector<std::pair<uint64_t, std::string>> sent_;
  std::map<uint64_t, std::pair<uint64_t, std::string>> proposals_;
  std::map<uint64_t, std::set<uint64_t>> acked_indexes_;
  std::vector<Acked> acked_;
  std::map<uint64_t, Committed> committed_;
  std::map<uint64_t, NodeId> leaders_;
};

TEST(RaftCoreHarnessTest, SafetyHoldsAcrossSeedsFaultsAndCrashes) {
  size_t acked = 0;
  size_t elections = 0;
  for (size_t n : {3u, 5u}) {
    for (uint64_t seed = 1; seed <= 200; ++seed) {
      Harness h(n, seed);
      h.Run(600);
      ASSERT_FALSE(::testing::Test::HasFailure()) << "n=" << n;
      acked += h.acked();
      elections += h.elections();
    }
  }
  // The faults must leave room for progress, or the run proves nothing.
  EXPECT_GT(acked, 2000u);
  EXPECT_GT(elections, 800u);
}

}  // namespace
}  // namespace memdb::txlog
