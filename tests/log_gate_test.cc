// LogGate with no driver: one test per rule of the write-behind gate, then
// a seeded harness that runs the gate against a model log with a foreign
// writer, kNoop barriers, a trimmed prefix, dropped requests, indeterminate results that did and did not land, copies of a
// request that arrive late, tails from a deposed leader, and duplicate
// acks. It checks that no two different records go out under one request
// id, and after each run that every seq completed OK is in the log exactly
// once and in seq order, that no seq completes twice or is logged twice,
// that replay verifies every kChecksum record, and that a foreign record
// fences.
//
// Links only memdb_log_gate: the core needs no clock, socket, thread, rpc
// or simulator.

#include "replication/log_gate.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/crc.h"
#include "common/rng.h"
#include "replication/effect_batch.h"

namespace memdb::replication {
namespace {

using txlog::LogEntry;
using txlog::LogRecord;
using txlog::RecordType;
using Output = LogGate::Output;
using ReadKind = LogGate::ReadKind;

constexpr uint64_t kWriter = 5;
constexpr uint64_t kForeign = 9;

// One SET per submission, so a record's seqs can be read back from the log.
std::string Batch(uint64_t seq, size_t value_bytes = 1) {
  return EncodeEffectBatch(
      "7.0.7", {{"SET", "k" + std::to_string(seq), std::string(value_bytes, 'v')}});
}

std::vector<uint64_t> SeqsIn(const std::string& payload) {
  std::string version;
  std::vector<engine::Argv> effects;
  EXPECT_TRUE(DecodeEffectBatch(Slice(payload), &version, &effects));
  std::vector<uint64_t> seqs;
  for (const engine::Argv& argv : effects) {
    seqs.push_back(std::stoull(argv[1].substr(1)));
  }
  return seqs;
}

std::string Fixed64(uint64_t v) {
  std::string out;
  PutFixed64(&out, v);
  return out;
}

LogGate::Options Opts(uint64_t checksum_every = 0) {
  LogGate::Options o;
  o.writer_id = kWriter;
  o.checksum_every = checksum_every;
  return o;
}

LogEntry Entry(uint64_t index, RecordType type, uint64_t writer,
               uint64_t request_id = 0, std::string payload = "") {
  LogEntry e;
  e.index = index;
  e.record.type = type;
  e.record.writer = writer;
  e.record.request_id = request_id;
  e.record.payload = std::move(payload);
  return e;
}

txlog::wire::ClientTailResponse Tail(uint64_t commit, uint64_t last) {
  txlog::wire::ClientTailResponse r;
  r.result = txlog::wire::ClientResult::kOk;
  r.commit_index = commit;
  r.last_index = last;
  return r;
}

txlog::wire::ClientReadResponse Read(std::vector<LogEntry> entries,
                                     uint64_t first_index = 1) {
  txlog::wire::ClientReadResponse r;
  r.entries = std::move(entries);
  r.first_index = first_index;
  return r;
}

Status TimedOut() { return Status::TimedOut("append unresolved"); }
Status Unavailable() { return Status::Unavailable("log unreachable"); }
Status ConditionFailed() { return Status::ConditionFailed("log tail moved"); }

void ExpectCompletion(const LogGate::Completion& c, uint64_t first,
                      uint64_t last, bool ok, uint64_t index = 0) {
  EXPECT_EQ(c.first_seq, first);
  EXPECT_EQ(c.last_seq, last);
  EXPECT_EQ(c.status.ok(), ok) << c.status.ToString();
  if (ok) {
    EXPECT_EQ(c.index, index);
  }
}

// ---------------------------------------------------------------- rules

// Rule 1: one record in flight; queued data batches merge up to the cap;
// typed records travel alone and keep their place.
TEST(LogGateTest, OneRecordInFlightMergesQueuedDataBatches) {
  LogGate g(Opts());
  g.Start(10);
  g.Submit(1, RecordType::kData, Batch(1), 0);
  Output o = g.TakeOutput();
  ASSERT_TRUE(o.append);
  EXPECT_EQ(o.append->prev_index, 10u);
  EXPECT_EQ(o.append->writes, 1u);
  EXPECT_EQ(SeqsIn(o.append->record.payload), std::vector<uint64_t>{1});

  g.Submit(2, RecordType::kData, Batch(2), 0);
  g.Submit(3, RecordType::kData, Batch(3), 77);
  g.Submit(4, RecordType::kSlotOwnership, "flip", 0);
  g.Submit(5, RecordType::kData, Batch(5), 0);
  g.Submit(6, RecordType::kData, Batch(6, LogGate::kMaxRecordBytes), 0);
  EXPECT_FALSE(g.TakeOutput().append);  // one record in flight
  EXPECT_EQ(g.queued(), 5u);

  g.OnAppend(Status::OK(), 11);
  o = g.TakeOutput();
  ASSERT_EQ(o.completions.size(), 1u);
  ExpectCompletion(o.completions[0], 1, 1, true, 11);
  EXPECT_EQ(o.landed, 11u);
  ASSERT_TRUE(o.append);
  EXPECT_EQ(o.append->prev_index, 11u);
  EXPECT_EQ(o.append->writes, 2u);
  EXPECT_EQ(SeqsIn(o.append->record.payload), (std::vector<uint64_t>{2, 3}));
  EXPECT_EQ(o.append->record.trace_id, 77u);  // first nonzero trace id
  ASSERT_EQ(o.append->traced.size(), 1u);
  EXPECT_EQ(o.append->traced[0], (std::pair<uint64_t, uint64_t>{3, 77}));

  g.OnAppend(Status::OK(), 12);
  o = g.TakeOutput();
  ExpectCompletion(o.completions.at(0), 2, 3, true, 12);
  ASSERT_TRUE(o.append);
  EXPECT_EQ(o.append->record.type, RecordType::kSlotOwnership);
  EXPECT_EQ(o.append->record.payload, "flip");

  g.OnAppend(Status::OK(), 13);
  o = g.TakeOutput();
  ExpectCompletion(o.completions.at(0), 4, 4, true, 13);
  ASSERT_TRUE(o.append);  // seq 6 would overflow the cap: 5 goes alone
  EXPECT_EQ(SeqsIn(o.append->record.payload), std::vector<uint64_t>{5});

  g.OnAppend(Status::OK(), 14);
  o = g.TakeOutput();
  ASSERT_TRUE(o.append);  // a write over the cap still goes, alone
  EXPECT_EQ(SeqsIn(o.append->record.payload), std::vector<uint64_t>{6});
  g.OnAppend(Status::OK(), 15);
  o = g.TakeOutput();
  ExpectCompletion(o.completions.at(0), 6, 6, true, 15);
  EXPECT_FALSE(o.append);
  EXPECT_TRUE(g.idle());
}

// Rule 2: every append is conditional on the last index this writer knows,
// from the driver's anchor or a settled leader Tail.
TEST(LogGateTest, EveryAppendIsChainedOnTheLastKnownIndex) {
  LogGate g(Opts());
  g.Start();
  g.Submit(1, RecordType::kData, Batch(1), 0);
  Output o = g.TakeOutput();
  EXPECT_FALSE(o.append);
  EXPECT_EQ(o.read.kind, ReadKind::kTail);
  EXPECT_FALSE(o.read.later);

  g.OnTail(Unavailable(), {});
  o = g.TakeOutput();
  EXPECT_EQ(o.read.kind, ReadKind::kTail);
  EXPECT_TRUE(o.read.later);
  g.OnTail(Status::OK(), Tail(4, 6));  // an uncommitted suffix: wait
  o = g.TakeOutput();
  EXPECT_FALSE(o.append);
  EXPECT_TRUE(o.read.later);

  g.OnTail(Status::OK(), Tail(6, 6));
  o = g.TakeOutput();
  ASSERT_TRUE(o.append);
  EXPECT_EQ(o.append->prev_index, 6u);
  g.OnAppend(Status::OK(), 7);
  g.Submit(2, RecordType::kData, Batch(2), 0);
  o = g.TakeOutput();
  ASSERT_TRUE(o.append);
  EXPECT_EQ(o.append->prev_index, 7u);
  EXPECT_EQ(g.prev_index(), 7u);
}

// Rule 3: a record's request id is the index it is chained to; a re-issue
// at a new tail takes that tail's id.
TEST(LogGateTest, RequestIdIsTheChainedIndex) {
  LogGate g(Opts());
  g.Start(20);
  g.Submit(1, RecordType::kData, Batch(1), 0);
  Output o = g.TakeOutput();
  ASSERT_TRUE(o.append);
  EXPECT_EQ(o.append->record.writer, kWriter);
  EXPECT_EQ(o.append->record.request_id, 21u);
  const std::string payload = o.append->record.payload;

  // A noop barrier and this writer's own lease renewal moved the tail.
  g.OnAppend(ConditionFailed(), 22);
  o = g.TakeOutput();
  EXPECT_EQ(o.read.kind, ReadKind::kTail);
  EXPECT_TRUE(o.completions.empty());
  g.OnTail(Status::OK(), Tail(22, 22));
  o = g.TakeOutput();
  EXPECT_EQ(o.read.kind, ReadKind::kGap);
  EXPECT_EQ(o.read.from, 21u);
  g.OnRead(Status::OK(),
           Read({Entry(21, RecordType::kNoop, 0),
                 Entry(22, RecordType::kLease, kWriter)}));
  o = g.TakeOutput();
  EXPECT_TRUE(o.completions.empty());
  ASSERT_TRUE(o.append);
  EXPECT_TRUE(o.append->reissue);
  EXPECT_EQ(o.append->prev_index, 22u);
  EXPECT_EQ(o.append->record.request_id, 23u);
  EXPECT_EQ(o.append->record.payload, payload);  // the same record, whole
  EXPECT_EQ(o.append->writes, 0u);
  g.OnAppend(Status::OK(), 23);
  ExpectCompletion(g.TakeOutput().completions.at(0), 1, 1, true, 23);
}

// Rule 4: after any failed append the gap decides: the in-flight record
// found there landed; otherwise its seqs fail with the failure and the
// queue goes on. A trimmed prefix is skipped, a lagging read retried.
TEST(LogGateTest, AFailedAppendReadsTheGapBeforeCompletingAnything) {
  LogGate g(Opts());
  g.Start(10);
  g.Submit(1, RecordType::kData, Batch(1), 0);
  g.Submit(2, RecordType::kData, Batch(2), 0);
  Output o = g.TakeOutput();
  ASSERT_TRUE(o.append);
  const LogRecord landed = o.append->record;

  // Timed out, yet it landed: found by (writer, request id).
  g.OnAppend(TimedOut(), 0);
  o = g.TakeOutput();
  EXPECT_TRUE(o.completions.empty());
  EXPECT_EQ(o.read.kind, ReadKind::kTail);
  g.OnTail(Status::OK(), Tail(11, 11));
  o = g.TakeOutput();
  ASSERT_EQ(o.read.kind, ReadKind::kGap);
  EXPECT_EQ(o.read.from, 11u);
  g.OnRead(Status::OK(), Read({Entry(11, landed.type, landed.writer,
                                     landed.request_id, landed.payload)}));
  o = g.TakeOutput();
  ASSERT_EQ(o.completions.size(), 1u);
  ExpectCompletion(o.completions[0], 1, 2, true, 11);
  EXPECT_EQ(o.landed, 11u);

  // Unavailable and absent: the seq fails; the queue goes on at the tail.
  g.Submit(3, RecordType::kData, Batch(3), 0);
  ASSERT_TRUE(g.TakeOutput().append);
  g.Submit(4, RecordType::kData, Batch(4), 0);
  g.OnAppend(Unavailable(), 0);
  EXPECT_EQ(g.TakeOutput().read.kind, ReadKind::kTail);
  g.OnTail(Status::OK(), Tail(12, 12));
  EXPECT_EQ(g.TakeOutput().read.from, 12u);
  g.OnRead(Unavailable(), {});  // no replica answered: retry later
  o = g.TakeOutput();
  EXPECT_EQ(o.read.kind, ReadKind::kGap);
  EXPECT_TRUE(o.read.later);
  g.OnRead(Status::OK(), Read({}, 1));  // a lagging replica: retry later
  o = g.TakeOutput();
  EXPECT_TRUE(o.read.later);
  EXPECT_EQ(o.read.from, 12u);
  g.OnRead(Status::OK(), Read({Entry(12, RecordType::kNoop, 0)}));
  o = g.TakeOutput();
  ASSERT_EQ(o.completions.size(), 1u);
  EXPECT_TRUE(o.completions[0].status.IsUnavailable());
  ExpectCompletion(o.completions[0], 3, 3, false);
  EXPECT_EQ(o.landed, 0u);
  ASSERT_TRUE(o.append);
  EXPECT_EQ(o.append->prev_index, 12u);
  EXPECT_EQ(SeqsIn(o.append->record.payload), std::vector<uint64_t>{4});

  // A trimmed prefix is skipped.
  g.OnAppend(TimedOut(), 0);
  g.TakeOutput();
  g.OnTail(Status::OK(), Tail(16, 16));
  EXPECT_EQ(g.TakeOutput().read.from, 13u);
  g.OnRead(Status::OK(), Read({}, 15));
  o = g.TakeOutput();
  EXPECT_EQ(o.read.kind, ReadKind::kGap);
  EXPECT_EQ(o.read.from, 15u);
  EXPECT_FALSE(o.read.later);
  g.OnRead(Status::OK(),
           Read({Entry(15, RecordType::kNoop, 0),
                 Entry(16, RecordType::kNoop, 0)},
                15));
  o = g.TakeOutput();
  ASSERT_EQ(o.completions.size(), 1u);
  EXPECT_TRUE(o.completions[0].status.IsTimedOut());
  EXPECT_FALSE(g.fenced());
  EXPECT_EQ(g.prev_index(), 16u);
  EXPECT_TRUE(g.idle());
}

// Rule 5: the chain folds a payload in only once its record is in the log,
// and a kChecksum record carrying it goes right after every N-th data
// record.
TEST(LogGateTest, ChainFoldsOnlyRecordsKnownToBeInTheLog) {
  LogGate::Options opts = Opts(/*checksum_every=*/2);
  opts.checksum_seed = 99;
  LogGate g(opts);
  g.Start(5);
  g.Submit(1, RecordType::kData, Batch(1), 0);
  ASSERT_TRUE(g.TakeOutput().append);
  g.OnAppend(TimedOut(), 0);
  g.TakeOutput();
  g.OnTail(Status::OK(), Tail(6, 6));
  g.TakeOutput();
  g.OnRead(Status::OK(), Read({Entry(6, RecordType::kNoop, 0)}));  // not it
  Output o = g.TakeOutput();
  ASSERT_EQ(o.completions.size(), 1u);
  EXPECT_FALSE(o.completions[0].status.ok());
  EXPECT_FALSE(o.append);
  EXPECT_EQ(g.chain(), 99u);

  uint64_t chain = 99;
  for (uint64_t seq = 2; seq <= 3; ++seq) {
    g.Submit(seq, RecordType::kData, Batch(seq), 0);
    o = g.TakeOutput();
    ASSERT_TRUE(o.append);
    EXPECT_EQ(g.chain(), chain);  // not before it lands
    chain = Crc64(chain, Slice(o.append->record.payload));
    g.OnAppend(Status::OK(), 5 + seq);
  }
  EXPECT_EQ(g.chain(), chain);
  g.Submit(4, RecordType::kData, Batch(4), 0);
  o = g.TakeOutput();
  ASSERT_TRUE(o.append);
  EXPECT_EQ(o.append->record.type, RecordType::kChecksum);
  EXPECT_EQ(o.append->record.payload, Fixed64(chain));
  EXPECT_EQ(o.append->prev_index, 8u);
  EXPECT_EQ(o.append->writes, 0u);
  g.OnAppend(Status::OK(), 9);
  o = g.TakeOutput();
  EXPECT_TRUE(o.completions.empty());  // no seq rides a checksum record
  EXPECT_EQ(o.landed, 9u);
  ASSERT_TRUE(o.append);
  EXPECT_EQ(SeqsIn(o.append->record.payload), std::vector<uint64_t>{4});
}

// Rule 4: a failed record may still land at prev + 1 while that place is
// empty. Its seqs fail, but only it goes out again there, under its id, so
// a late copy that lands first answers the re-send, the chain folds it in,
// and no later record can be answered with that copy's index. Once another
// record holds the place, it can never land and is dropped.
TEST(LogGateTest, AFailedRecordKeepsItsPlaceUntilTheLogShowsItsFate) {
  LogGate g(Opts());
  g.Start(10);
  g.Submit(1, RecordType::kData, Batch(1), 0);
  Output o = g.TakeOutput();
  ASSERT_TRUE(o.append);
  const LogRecord first = o.append->record;
  g.Submit(2, RecordType::kData, Batch(2), 0);
  g.OnAppend(TimedOut(), 0);
  g.TakeOutput();
  g.OnTail(Status::OK(), Tail(10, 10));  // nothing at 11 yet
  o = g.TakeOutput();
  ASSERT_EQ(o.completions.size(), 1u);
  ExpectCompletion(o.completions[0], 1, 1, false);
  EXPECT_TRUE(o.completions[0].status.IsTimedOut());
  ASSERT_TRUE(o.append);
  EXPECT_TRUE(o.append->reissue);
  EXPECT_EQ(o.append->prev_index, 10u);
  EXPECT_EQ(o.append->record.request_id, first.request_id);
  EXPECT_EQ(o.append->record.payload, first.payload);
  EXPECT_EQ(g.queued(), 1u);  // seq 2 waits behind it

  // A late copy of the first request landed: dedup answers the re-send.
  g.OnAppend(Status::OK(), 11);
  o = g.TakeOutput();
  EXPECT_TRUE(o.completions.empty());
  EXPECT_EQ(o.landed, 11u);
  const uint64_t chain = Crc64(0, Slice(first.payload));
  EXPECT_EQ(g.chain(), chain);
  ASSERT_TRUE(o.append);
  EXPECT_EQ(o.append->prev_index, 11u);
  EXPECT_EQ(o.append->record.request_id, 12u);
  EXPECT_EQ(SeqsIn(o.append->record.payload), std::vector<uint64_t>{2});

  // Open again, until a barrier takes the place: the record is dropped.
  g.OnAppend(Unavailable(), 0);
  g.TakeOutput();
  g.OnTail(Status::OK(), Tail(11, 11));
  o = g.TakeOutput();
  ExpectCompletion(o.completions.at(0), 2, 2, false);
  ASSERT_TRUE(o.append);
  EXPECT_EQ(o.append->record.request_id, 12u);
  g.OnAppend(ConditionFailed(), 12);
  g.TakeOutput();
  g.OnTail(Status::OK(), Tail(12, 12));
  EXPECT_EQ(g.TakeOutput().read.from, 12u);
  g.OnRead(Status::OK(), Read({Entry(12, RecordType::kNoop, 0)}));
  o = g.TakeOutput();
  EXPECT_TRUE(o.completions.empty());
  EXPECT_FALSE(o.append);
  EXPECT_EQ(o.landed, 0u);
  EXPECT_TRUE(g.idle());
  EXPECT_EQ(g.prev_index(), 12u);
  EXPECT_EQ(g.chain(), chain);
}

// Rule 4: a settled tail behind the last index this writer knows comes
// from a deposed leader; the chain never moves back to it. An append that
// timed out but landed then completes OK and the next checksum covers it.
TEST(LogGateTest, ADeposedLeadersTailNeverMovesTheChainBack) {
  LogGate g(Opts(/*checksum_every=*/1));
  g.Start(10);
  g.Submit(1, RecordType::kData, Batch(1), 0);
  Output o = g.TakeOutput();
  ASSERT_TRUE(o.append);
  const LogRecord r = o.append->record;
  g.OnAppend(TimedOut(), 0);  // it landed at 11; the ack was lost
  g.TakeOutput();
  g.OnTail(Status::OK(), Tail(8, 8));
  o = g.TakeOutput();
  EXPECT_TRUE(o.completions.empty());
  EXPECT_FALSE(o.append);
  EXPECT_EQ(o.read.kind, ReadKind::kTail);
  EXPECT_TRUE(o.read.later);
  EXPECT_EQ(g.prev_index(), 10u);

  g.OnTail(Status::OK(), Tail(11, 11));
  o = g.TakeOutput();
  ASSERT_EQ(o.read.kind, ReadKind::kGap);
  EXPECT_EQ(o.read.from, 11u);
  g.OnRead(Status::OK(),
           Read({Entry(11, r.type, r.writer, r.request_id, r.payload)}));
  o = g.TakeOutput();
  ASSERT_EQ(o.completions.size(), 1u);
  ExpectCompletion(o.completions[0], 1, 1, true, 11);
  ASSERT_TRUE(o.append);
  EXPECT_EQ(o.append->record.type, RecordType::kChecksum);
  EXPECT_EQ(o.append->prev_index, 11u);
  EXPECT_EQ(o.append->record.payload, Fixed64(Crc64(0, Slice(r.payload))));
}

// Rule 6: a foreign record in the gap fences for good. A record found ahead
// of it landed; everything else fails with ConditionFailed.
TEST(LogGateTest, AForeignRecordFencesForGood) {
  LogGate g(Opts());
  g.Start(10);
  g.Submit(1, RecordType::kData, Batch(1), 0);
  ASSERT_TRUE(g.TakeOutput().append);
  g.Submit(2, RecordType::kData, Batch(2), 0);
  g.Submit(3, RecordType::kSlotOwnership, "flip", 0);
  g.OnAppend(ConditionFailed(), 12);
  g.TakeOutput();
  g.OnTail(Status::OK(), Tail(12, 12));
  g.TakeOutput();
  // Another writer claimed the shard.
  g.OnRead(Status::OK(),
           Read({Entry(11, RecordType::kNoop, 0),
                 Entry(12, RecordType::kLeadership, kForeign, 12)}));
  Output o = g.TakeOutput();
  EXPECT_EQ(o.fenced_by, kForeign);
  EXPECT_TRUE(g.fenced());
  EXPECT_EQ(g.fenced_by(), kForeign);
  ASSERT_EQ(o.completions.size(), 1u);
  ExpectCompletion(o.completions[0], 1, 3, false);
  EXPECT_TRUE(o.completions[0].status.IsConditionFailed());
  EXPECT_FALSE(o.append);

  g.Submit(4, RecordType::kData, Batch(4), 0);
  g.OnAppend(Status::OK(), 13);  // a stale result changes nothing
  o = g.TakeOutput();
  ASSERT_EQ(o.completions.size(), 1u);
  ExpectCompletion(o.completions[0], 4, 4, false);
  EXPECT_TRUE(o.completions[0].status.IsConditionFailed());
  EXPECT_FALSE(o.append);
  EXPECT_EQ(o.fenced_by, 0u);  // reported once

  // The in-flight record found ahead of the foreign one landed.
  LogGate h(Opts());
  h.Start(10);
  h.Submit(1, RecordType::kData, Batch(1), 0);
  const LogRecord r = h.TakeOutput().append->record;
  h.Submit(2, RecordType::kData, Batch(2), 0);
  h.OnAppend(TimedOut(), 0);
  h.TakeOutput();
  h.OnTail(Status::OK(), Tail(12, 12));
  h.TakeOutput();
  h.OnRead(Status::OK(),
           Read({Entry(11, r.type, r.writer, r.request_id, r.payload),
                 Entry(12, RecordType::kData, kForeign, 12, Batch(100))}));
  o = h.TakeOutput();
  ASSERT_EQ(o.completions.size(), 2u);
  ExpectCompletion(o.completions[0], 1, 1, true, 11);
  ExpectCompletion(o.completions[1], 2, 2, false);
  EXPECT_EQ(o.fenced_by, kForeign);
}

// ---------------------------------------------------------------- harness

// The log as the gate sees it: committed entries, a trimmed prefix, and
// the log service's (writer, request id) dedup ahead of the precondition.
struct ModelLog {
  std::vector<LogEntry> entries;  // entries[i] has index i + 1
  uint64_t base = 0;              // entries <= base are trimmed
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> dedup;

  uint64_t last() const { return entries.size(); }
  void Add(LogRecord record) {
    LogEntry e;
    e.index = last() + 1;
    e.record = std::move(record);
    if (e.record.writer != 0 && e.record.request_id != 0) {
      dedup[{e.record.writer, e.record.request_id}] = e.index;
    }
    entries.push_back(std::move(e));
  }
  // As RaftCore::Propose: OK carries the index, ConditionFailed the tail.
  Status Propose(uint64_t prev, const LogRecord& record, uint64_t* index) {
    const auto it = dedup.find({record.writer, record.request_id});
    if (it != dedup.end()) {
      *index = it->second;
      return Status::OK();
    }
    if (prev != last()) {
      *index = last();
      return ConditionFailed();
    }
    Add(record);
    *index = last();
    return Status::OK();
  }
};

class Harness {
 public:
  explicit Harness(uint64_t seed)
      : rng_(seed), gate_(Opts(1 + rng_.Uniform(3))) {
    for (uint64_t i = rng_.Uniform(3); i > 0; --i) Noop();
    if (rng_.OneIn(2)) {
      LogRecord lead;
      lead.type = RecordType::kLeadership;
      lead.writer = kWriter;
      lead.request_id = log_.last() + 1;
      log_.Add(lead);
      gate_.Start(log_.last());
    } else {
      gate_.Start();
    }
    Drain();
  }

  void Run(int steps) {
    for (int i = 0; i < steps; ++i) Step(/*faults=*/true);
    // Settle: no more faults or log traffic until every call resolved, and
    // then every late copy arrives.
    for (int i = 0; i < 1000 && call_ != Call::kNone; ++i) Resolve(false);
    while (!late_.empty()) DeliverLate();
  }

  void Check() {
    ASSERT_EQ(call_, Call::kNone);
    // Every submission completed, exactly once (Drain checks "once").
    EXPECT_EQ(done_.size(), submitted_);
    EXPECT_TRUE(gate_.idle() || gate_.fenced());
    if (appended_after_foreign_) {
      EXPECT_TRUE(gate_.fenced());
      EXPECT_EQ(gate_.fenced_by(), kForeign);
    }
    // Where each of our seqs is in the log.
    std::map<uint64_t, std::vector<uint64_t>> at;  // seq -> indexes
    uint64_t prev_seq = 0;
    uint64_t chain = 0;
    for (const LogEntry& e : log_.entries) {
      const LogRecord& r = e.record;
      if (r.type == RecordType::kData) {
        chain = Crc64(chain, Slice(r.payload));
      } else if (r.type == RecordType::kChecksum) {
        EXPECT_EQ(r.payload, Fixed64(chain)) << "checksum at " << e.index;
      }
      if (r.writer != kWriter) continue;
      std::vector<uint64_t> seqs;
      if (r.type == RecordType::kData) {
        seqs = SeqsIn(r.payload);
      } else if (r.type == RecordType::kSlotOwnership) {
        seqs.push_back(std::stoull(r.payload));
      }
      for (uint64_t seq : seqs) {
        EXPECT_GT(seq, prev_seq) << "seq order at " << e.index;
        prev_seq = seq;
        at[seq].push_back(e.index);
      }
    }
    for (const auto& [seq, c] : done_) {
      const auto it = at.find(seq);
      if (c.status.ok()) {
        ASSERT_NE(it, at.end()) << "acked seq " << seq << " not in the log";
        ASSERT_EQ(it->second.size(), 1u) << "seq " << seq << " logged twice";
        EXPECT_EQ(it->second[0], c.index) << "seq " << seq;
        if (foreign_index_ != 0) {
          EXPECT_LT(c.index, foreign_index_);
        }
      } else if (it != at.end()) {
        // Failed while its place was empty, then landed there.
        EXPECT_EQ(it->second.size(), 1u) << "seq " << seq << " logged twice";
      }
    }
  }

 private:
  enum class Call { kNone, kAppend, kTail, kRead };

  void Noop() {
    LogRecord r;
    r.type = RecordType::kNoop;
    log_.Add(r);
  }

  void Drain() {
    Output o = gate_.TakeOutput();
    for (const LogGate::Completion& c : o.completions) {
      for (uint64_t seq = c.first_seq; seq <= c.last_seq; ++seq) {
        EXPECT_TRUE(done_.emplace(seq, c).second) << "seq " << seq << " twice";
      }
    }
    if (o.append) {
      ASSERT_EQ(call_, Call::kNone);
      EXPECT_EQ(o.append->record.request_id, o.append->prev_index + 1);
      const auto [sent, fresh] = sent_.emplace(
          o.append->record.request_id,
          std::make_pair(o.append->record.type, o.append->record.payload));
      EXPECT_TRUE(fresh || sent->second == std::make_pair(
                                               o.append->record.type,
                                               o.append->record.payload))
          << "two records under request id " << o.append->record.request_id;
      call_ = Call::kAppend;
      appended_ = true;
      append_ = std::move(*o.append);
      if (foreign_index_ != 0) appended_after_foreign_ = true;
    }
    if (o.read.kind != ReadKind::kNone) {
      ASSERT_EQ(call_, Call::kNone);
      call_ = o.read.kind == ReadKind::kTail ? Call::kTail : Call::kRead;
      read_from_ = o.read.from;
    }
  }

  void Step(bool faults) {
    const uint64_t r = rng_.Uniform(100);
    if (r < 35) {
      const uint64_t seq = next_seq_++;
      ++submitted_;
      if (rng_.OneIn(10)) {
        gate_.Submit(seq, RecordType::kSlotOwnership, std::to_string(seq), 0);
      } else {
        gate_.Submit(seq, RecordType::kData, Batch(seq), rng_.OneIn(3) ? seq : 0);
      }
      Drain();
    } else if (r < 78) {
      Resolve(faults);
    } else if (r < 83) {
      if (!late_.empty()) DeliverLate();
    } else if (r < 93) {
      Noop();
    } else if (r < 98) {
      Trim();
    } else if (appended_ && foreign_index_ == 0 && rng_.OneIn(4)) {
      // Another writer takes the log over, once this one chained on it.
      LogRecord foreign;
      foreign.type = RecordType::kData;
      foreign.writer = kForeign;
      foreign.request_id = log_.last() + 1;
      foreign.payload = Batch(1u << 30);
      log_.Add(foreign);
      foreign_index_ = log_.last();
    }
  }

  // Trims up to a random point that removes nothing the gate must still
  // see: its known prefix, then only barriers.
  void Trim() {
    uint64_t upto = log_.base;
    while (upto < log_.last()) {
      const bool benign =
          log_.entries[upto].record.type == RecordType::kNoop;
      if (upto + 1 > gate_.prev_index() && !benign) break;
      ++upto;
    }
    if (upto > log_.base) {
      log_.base += 1 + rng_.Uniform(upto - log_.base);
    }
  }

  // A copy of an earlier request reaches the log now, as that attempt's
  // retry or a delayed packet would.
  void DeliverLate() {
    const size_t i = rng_.Uniform(late_.size());
    uint64_t index = 0;
    (void)log_.Propose(late_[i].first, late_[i].second, &index);
    late_.erase(late_.begin() + static_cast<ptrdiff_t>(i));
  }

  void Resolve(bool faults) {
    const Call call = call_;
    call_ = Call::kNone;
    switch (call) {
      case Call::kNone:
        return;
      case Call::kAppend: {
        const uint64_t r = faults ? rng_.Uniform(100) : 99;
        uint64_t index = 0;
        Status status;
        if (r < 10) {  // dropped on the way, or held up until later
          status = rng_.OneIn(2) ? TimedOut() : Unavailable();
          if (rng_.OneIn(2)) {
            late_.emplace_back(append_.prev_index, append_.record);
          }
        } else if (r < 20) {  // reached the log (or not), answer lost
          (void)log_.Propose(append_.prev_index, append_.record, &index);
          status = rng_.OneIn(2) ? TimedOut() : Unavailable();
          index = 0;
        } else if (r < 30) {  // landed, ack lost, the retry dedups
          (void)log_.Propose(append_.prev_index, append_.record, &index);
          status = log_.Propose(append_.prev_index, append_.record, &index);
        } else {
          status = log_.Propose(append_.prev_index, append_.record, &index);
        }
        gate_.OnAppend(status, index);
        Drain();
        if (faults && call_ != Call::kAppend && rng_.OneIn(8)) {
          gate_.OnAppend(status, index);  // a duplicate delivery
          Drain();
        }
        return;
      }
      case Call::kTail: {
        const uint64_t r = faults ? rng_.Uniform(100) : 99;
        if (r < 15) {
          gate_.OnTail(Unavailable(), {});
        } else if (r < 30 && log_.last() > 0) {
          gate_.OnTail(Status::OK(), Tail(log_.last() - 1, log_.last()));
        } else if (r < 40) {  // a deposed leader's settled, older tail
          const uint64_t old_tail = rng_.Uniform(log_.last() + 1);
          gate_.OnTail(Status::OK(), Tail(old_tail, old_tail));
        } else {
          gate_.OnTail(Status::OK(), Tail(log_.last(), log_.last()));
        }
        Drain();
        return;
      }
      case Call::kRead: {
        const uint64_t r = faults ? rng_.Uniform(100) : 99;
        txlog::wire::ClientReadResponse resp;
        resp.first_index = log_.base + 1;
        resp.commit_index = log_.last();
        if (r < 15) {
          gate_.OnRead(Unavailable(), {});
          Drain();
          return;
        }
        if (r >= 30) {  // else a lagging replica that serves nothing
          const uint64_t n = 1 + rng_.Uniform(4);
          for (uint64_t i = std::max(read_from_, log_.base + 1);
               i <= log_.last() && resp.entries.size() < n; ++i) {
            resp.entries.push_back(log_.entries[i - 1]);
          }
        }
        gate_.OnRead(Status::OK(), resp);
        Drain();
        return;
      }
    }
  }

  Rng rng_;
  ModelLog log_;
  LogGate gate_;
  Call call_ = Call::kNone;
  LogGate::Append append_;
  uint64_t read_from_ = 0;
  uint64_t next_seq_ = 1;
  size_t submitted_ = 0;
  std::map<uint64_t, LogGate::Completion> done_;
  bool appended_ = false;
  uint64_t foreign_index_ = 0;
  bool appended_after_foreign_ = false;
  std::vector<std::pair<uint64_t, LogRecord>> late_;  // (prev, record)
  std::map<uint64_t, std::pair<RecordType, std::string>> sent_;  // by id
};

TEST(LogGateTest, SeededHarnessAgainstAModelLog) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Harness h(seed);
    h.Run(400);
    h.Check();
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace memdb::replication
