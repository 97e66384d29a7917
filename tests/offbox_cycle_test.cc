// OffboxCycle with no driver: one test per rule of the §4.2.2 off-box cycle
// core (see replication/offbox_cycle.h), fed canned log reads, snapshot
// blobs and I/O results.
//
// Links only memdb_offbox_cycle: the core needs no clock, socket, store,
// rpc or simulator.

#include "replication/offbox_cycle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/crc.h"
#include "replication/effect_batch.h"

namespace memdb::replication {
namespace {

// The I/O a driver does, in the cycle's order.
enum class Io { kTail, kFetch, kRead, kUpload, kTrim, kDone };

constexpr uint64_t kSlack = 4;

// A shard's log as the core reads it: entries from first_index on, with the
// §7.2.1 chain a primary would have logged.
struct Log {
  void Add(txlog::RecordType type, std::string payload) {
    txlog::LogEntry e;
    e.index = entries.size() + 1;
    e.record.type = type;
    e.record.payload = std::move(payload);
    entries.push_back(std::move(e));
  }
  void Set(const std::string& key, const std::string& value,
           const std::string& engine_version = "7.0.7") {
    const std::string batch =
        EncodeEffectBatch(engine_version, {{"SET", key, value}});
    chain = Crc64(chain, Slice(batch));
    Add(txlog::RecordType::kData, batch);
  }
  void Checksum() {
    std::string payload;
    PutFixed64(&payload, chain);
    Add(txlog::RecordType::kChecksum, payload);
  }
  void Leases(int n) {
    for (int i = 0; i < n; ++i) Add(txlog::RecordType::kLease, "");
  }
  uint64_t commit() const { return entries.size(); }

  txlog::wire::ClientReadResponse Read(uint64_t from) const {
    txlog::wire::ClientReadResponse r;
    r.first_index = first_index;
    r.commit_index = commit();
    for (uint64_t i = std::max(from, first_index);
         i <= commit() && r.entries.size() < OffboxCycle::kReadBatch; ++i) {
      r.entries.push_back(entries[i - 1]);
    }
    return r;
  }

  std::vector<txlog::LogEntry> entries;
  uint64_t chain = 0;
  uint64_t first_index = 1;
};

// The object store: the latest snapshot, if any.
struct Store {
  std::optional<std::string> blob;
};

// What the driver did, I/O by I/O.
struct Trace {
  std::vector<Io> steps;
  uint64_t trimmed_to = 0;
  int reads = 0;
};

// Reads from the canned log while the cycle asks; false once it is over.
bool ReadAll(OffboxCycle* cycle, const Log& log, Trace* t) {
  for (uint64_t from; (from = cycle->next_read()) != 0;) {
    t->steps.push_back(Io::kRead);
    ++t->reads;
    if (!cycle->OnRead(1000, Status::OK(), log.Read(from))) return false;
  }
  return true;
}

// Drives a full cycle in order from the canned log and store until it is
// over. `upload` and `trim` are the statuses those I/Os return.
Trace Drive(OffboxCycle* cycle, Log* log, Store* store,
            const Status& upload = Status::OK(),
            const Status& trim = Status::OK()) {
  Trace t;
  [&] {
    t.steps.push_back(Io::kTail);
    if (!cycle->OnTail(Status::OK(), log->commit())) return;
    t.steps.push_back(Io::kFetch);
    if (!(store->blob ? cycle->OnSnapshot(Status::OK(), *store->blob)
                      : cycle->OnSnapshot(Status::NotFound("none"), ""))) {
      return;
    }
    if (!ReadAll(cycle, *log, &t) || !cycle->Rehearse(1000)) return;
    t.steps.push_back(Io::kUpload);
    if (upload.ok()) store->blob = cycle->blob();
    if (!cycle->OnUpload(upload)) return;
    t.steps.push_back(Io::kTrim);
    t.trimmed_to = cycle->trim_index();
    if (trim.ok()) log->first_index = t.trimmed_to + 1;
    cycle->OnTrim(trim, log->first_index);
  }();
  t.steps.push_back(Io::kDone);
  return t;
}

// Drives a replay-only cycle as ReplayLogTail does: a target of 0 asks the
// log's Tail first.
Trace DriveReplay(OffboxCycle* cycle, const Log& log, uint64_t target) {
  Trace t;
  if (target == 0) t.steps.push_back(Io::kTail);
  if (cycle->OnTail(Status::OK(), target == 0 ? log.commit() : target)) {
    ReadAll(cycle, log, &t);
  }
  t.steps.push_back(Io::kDone);
  return t;
}

OffboxCycle::Options Opts(bool trim = true) {
  return {.trim = trim, .trim_slack = kSlack};
}

bool Uploads(const Trace& t) {
  return std::count(t.steps.begin(), t.steps.end(), Io::kUpload) > 0;
}

// Loads `blob` into a fresh engine and reads `key` back.
std::string ValueIn(const std::string& blob, const std::string& key,
                    RestoreResult* restored = nullptr) {
  engine::Engine engine;
  RestoreResult r;
  engine::SnapshotMeta meta;
  EXPECT_TRUE(
      OffboxCycle::LoadSnapshot(Status::OK(), blob, &engine, &r, &meta).ok());
  if (restored != nullptr) *restored = r;
  engine::ExecContext ctx;
  const resp::Value v = engine.Execute({"GET", key}, &ctx);
  return v.IsNull() ? "(nil)" : v.str;
}

// A cold start (no snapshot in the store) replays from index 1, verifies
// every checksum record on the way, uploads the rehearsed snapshot at the
// target, and trims the slack behind it.
TEST(OffboxCycleTest, ColdStartReplaysTheWholeLogAndUploads) {
  Log log;
  for (int i = 0; i < 6; ++i) log.Set("k" + std::to_string(i), "v");
  log.Checksum();
  log.Set("k0", "last");
  Store store;
  OffboxCycle cycle(Opts());
  const Trace t = Drive(&cycle, &log, &store);

  EXPECT_EQ(t.steps, (std::vector<Io>{Io::kTail, Io::kFetch, Io::kRead,
                                      Io::kUpload, Io::kTrim, Io::kDone}));
  ASSERT_TRUE(cycle.status().ok()) << cycle.status().ToString();
  const CycleResult& r = cycle.result();
  EXPECT_EQ(r.snapshot_position, 0u);
  EXPECT_EQ(r.applied_index, 8u);
  EXPECT_EQ(r.entries_replayed, 8u);
  EXPECT_EQ(r.data_records_replayed, 7u);
  EXPECT_EQ(r.checksum_records_verified, 1u);
  EXPECT_EQ(r.running_checksum, log.chain);
  EXPECT_TRUE(r.uploaded);
  EXPECT_EQ(r.snapshot_bytes, store.blob->size());
  EXPECT_EQ(t.trimmed_to, 8 - kSlack);
  EXPECT_EQ(r.trimmed_first_index, 8 - kSlack + 1);

  RestoreResult restored;
  EXPECT_EQ(ValueIn(*store.blob, "k0", &restored), "last");
  EXPECT_EQ(restored.applied_index, 8u);
  EXPECT_EQ(restored.running_checksum, log.chain);
  EXPECT_EQ(cycle.meta().log_position, 8u);
  EXPECT_EQ(cycle.meta().created_at_ms, 1000u);
}

// Rule 1: the target is the Tail when the cycle starts; entries committed
// after it are not applied even when a read returns them.
TEST(OffboxCycleTest, ReplayStopsAtThePinnedTail) {
  Log log;
  log.Set("a", "1");
  log.Set("a", "2");
  OffboxCycle cycle(Opts());
  EXPECT_TRUE(cycle.OnTail(Status::OK(), 1));
  EXPECT_TRUE(cycle.OnSnapshot(Status::NotFound("none"), ""));
  EXPECT_EQ(cycle.next_read(), 1u);
  EXPECT_TRUE(cycle.OnRead(1000, Status::OK(), log.Read(1)));
  EXPECT_EQ(cycle.next_read(), 0u);
  EXPECT_EQ(cycle.result().applied_index, 1u);
  ASSERT_TRUE(cycle.Rehearse(1000));
  EXPECT_EQ(ValueIn(cycle.blob(), "a"), "1");
}

// Table row 1: a latest snapshot that does not load fails the cycle closed
// (Corruption, a verification failure): no read, no upload, no trim.
TEST(OffboxCycleTest, ASnapshotThatDoesNotLoadFailsTheCycle) {
  Log log;
  for (int i = 0; i < 8; ++i) log.Set("k", std::to_string(i));
  Store store;
  {
    OffboxCycle first(Opts());
    Drive(&first, &log, &store);
    ASSERT_TRUE(first.result().uploaded);
  }
  (*store.blob)[store.blob->size() / 2] ^= 0x40;
  const std::string corrupted = *store.blob;
  log.Set("k", "after");

  OffboxCycle cycle(Opts());
  const Trace t = Drive(&cycle, &log, &store);
  EXPECT_TRUE(cycle.status().IsCorruption()) << cycle.status().ToString();
  EXPECT_EQ(t.steps, (std::vector<Io>{Io::kTail, Io::kFetch, Io::kDone}));
  EXPECT_FALSE(cycle.result().uploaded);
  EXPECT_EQ(*store.blob, corrupted);
}

// Table row 2: nothing committed past the snapshot is a no-op — no read, no
// re-upload of the same position, no second trim.
TEST(OffboxCycleTest, NothingPastTheSnapshotIsANoOp) {
  Log log;
  for (int i = 0; i < 8; ++i) log.Set("k", std::to_string(i));
  Store store;
  {
    OffboxCycle first(Opts());
    Drive(&first, &log, &store);
  }
  OffboxCycle idle(Opts());
  const Trace t = Drive(&idle, &log, &store);
  ASSERT_TRUE(idle.status().ok());
  EXPECT_EQ(t.steps, (std::vector<Io>{Io::kTail, Io::kFetch, Io::kDone}));
  EXPECT_FALSE(idle.result().uploaded);
  EXPECT_EQ(idle.result().snapshot_position, 8u);
  EXPECT_EQ(idle.result().applied_index, 8u);
}

// Table row 3: a tail with no kData record uploads only when trimming is on
// and the tail is longer than the slack, so an idle shard's lease records
// are trimmed too; a short one, or any one with trimming off, is replayed
// and dropped.
TEST(OffboxCycleTest, AnIdleTailUploadsOnlyPastTheTrimSlack) {
  Log log;
  for (int i = 0; i < 8; ++i) log.Set("k", std::to_string(i));
  Store store;
  {
    OffboxCycle first(Opts());
    Drive(&first, &log, &store);
  }

  log.Leases(kSlack);  // exactly the slack: no upload
  OffboxCycle short_tail(Opts());
  Trace t = Drive(&short_tail, &log, &store);
  ASSERT_TRUE(short_tail.status().ok());
  EXPECT_FALSE(Uploads(t));
  EXPECT_EQ(short_tail.result().applied_index, 8 + kSlack);
  EXPECT_EQ(short_tail.result().data_records_replayed, 0u);

  log.Leases(1);  // past the slack, but trimming is off: no upload
  OffboxCycle untrimmed(Opts(/*trim=*/false));
  t = Drive(&untrimmed, &log, &store);
  ASSERT_TRUE(untrimmed.status().ok());
  EXPECT_FALSE(Uploads(t));

  OffboxCycle trimming(Opts());  // past the slack: upload, then trim
  t = Drive(&trimming, &log, &store);
  ASSERT_TRUE(trimming.status().ok());
  EXPECT_TRUE(trimming.result().uploaded);
  EXPECT_EQ(trimming.result().applied_index, 8 + kSlack + 1);
  EXPECT_EQ(t.trimmed_to, 9u);
  EXPECT_EQ(log.first_index, 10u);
  RestoreResult restored;
  EXPECT_EQ(ValueIn(*store.blob, "k", &restored), "7");
  EXPECT_EQ(restored.applied_index, 8 + kSlack + 1);
  EXPECT_EQ(restored.running_checksum, log.chain);
}

// Table row 4: an empty read before the target is read again at the same
// index, long-polling; kEmptyReads of them fail the cycle TimedOut, which
// is not a verification failure.
TEST(OffboxCycleTest, EmptyReadsRetryThenTimeOut) {
  Log log;
  log.Set("a", "1");
  txlog::wire::ClientReadResponse empty;

  OffboxCycle late(Opts());
  late.OnTail(Status::OK(), 1);
  late.OnSnapshot(Status::NotFound("none"), "");
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(late.OnRead(1000, Status::OK(), empty));
    EXPECT_EQ(late.next_read(), 1u);
  }
  EXPECT_TRUE(late.OnRead(1000, Status::OK(), log.Read(1)));
  EXPECT_EQ(late.next_read(), 0u);

  OffboxCycle never(Opts());
  never.OnTail(Status::OK(), 1);
  never.OnSnapshot(Status::NotFound("none"), "");
  bool more = true;
  for (int i = 0; i < OffboxCycle::kEmptyReads; ++i) {
    more = never.OnRead(1000, Status::OK(), empty);
  }
  EXPECT_FALSE(more);
  EXPECT_EQ(never.status().code(), StatusCode::kTimedOut);
  EXPECT_FALSE(never.result().uploaded);
}

// Table row 5: the trim goes out only after the upload succeeded, and the
// cycle waits for its answer; a failed trim never fails the cycle.
TEST(OffboxCycleTest, AFailedTrimNeverFailsTheCycle) {
  Log log;
  for (int i = 0; i < 8; ++i) log.Set("k", std::to_string(i));
  Store store;
  OffboxCycle cycle(Opts());
  const Trace t = Drive(&cycle, &log, &store, Status::OK(),
                        Status::Unavailable("no replica answered"));
  EXPECT_TRUE(cycle.status().ok()) << cycle.status().ToString();
  EXPECT_EQ(t.steps.back(), Io::kDone);
  EXPECT_EQ(t.steps[t.steps.size() - 2], Io::kTrim);
  EXPECT_TRUE(cycle.result().uploaded);
  EXPECT_EQ(cycle.result().trimmed_first_index, 0u);
  EXPECT_EQ(log.first_index, 1u);
}

// Rule 7: a position within the slack, or trimming off, sends no trim.
TEST(OffboxCycleTest, NoTrimWithinTheSlackOrWithTrimmingOff) {
  Log log;
  for (int i = 0; i < static_cast<int>(kSlack); ++i) log.Set("k", "v");
  Store store;
  OffboxCycle within(Opts());
  Trace t = Drive(&within, &log, &store);
  EXPECT_TRUE(within.result().uploaded);
  EXPECT_EQ(t.steps.back(), Io::kDone);
  EXPECT_EQ(std::count(t.steps.begin(), t.steps.end(), Io::kTrim), 0);

  log.Set("k", "w");
  Store fresh;
  OffboxCycle off(Opts(/*trim=*/false));
  t = Drive(&off, &log, &fresh);
  EXPECT_TRUE(off.result().uploaded);
  EXPECT_EQ(std::count(t.steps.begin(), t.steps.end(), Io::kTrim), 0);
}

// A failed upload ends the cycle with the upload's status and no trim: the
// log keeps the history no snapshot covers yet.
TEST(OffboxCycleTest, AFailedUploadSendsNoTrim) {
  Log log;
  for (int i = 0; i < 8; ++i) log.Set("k", std::to_string(i));
  Store store;
  OffboxCycle cycle(Opts());
  const Trace t =
      Drive(&cycle, &log, &store, Status::Internal("fsync: EIO"));
  EXPECT_EQ(cycle.status().code(), StatusCode::kInternal);
  EXPECT_FALSE(cycle.result().uploaded);
  EXPECT_EQ(t.steps.back(), Io::kDone);
  EXPECT_EQ(t.steps[t.steps.size() - 2], Io::kUpload);
  EXPECT_EQ(log.first_index, 1u);
  EXPECT_FALSE(store.blob.has_value());
}

// History trimmed past the snapshot cannot be replayed: Corruption, as for
// a restore whose snapshot is too old.
TEST(OffboxCycleTest, HistoryTrimmedPastTheSnapshotFailsTheCycle) {
  Log log;
  for (int i = 0; i < 8; ++i) log.Set("k", std::to_string(i));
  log.first_index = 5;  // trimmed, and the store holds no snapshot
  Store store;
  OffboxCycle cycle(Opts());
  const Trace t = Drive(&cycle, &log, &store);
  EXPECT_TRUE(cycle.status().IsCorruption()) << cycle.status().ToString();
  EXPECT_FALSE(Uploads(t));
  EXPECT_EQ(t.reads, 1);
}

// An entry ReplayEntry rejects — a checksum record that does not match the
// chain, or a batch that does not decode — fails the cycle with Corruption
// before anything is rehearsed or uploaded.
TEST(OffboxCycleTest, ARejectedEntryUploadsNothing) {
  for (const bool bad_checksum : {true, false}) {
    SCOPED_TRACE(bad_checksum ? "checksum" : "batch");
    Log log;
    for (int i = 0; i < 8; ++i) log.Set("k", std::to_string(i));
    if (bad_checksum) {
      log.chain ^= 1;
      log.Checksum();
    } else {
      const std::string batch = EncodeEffectBatch("7.0.7", {{"SET", "x", "1"}});
      log.Add(txlog::RecordType::kData, batch.substr(0, batch.size() - 1));
    }
    log.Set("k", "after");
    Store store;
    OffboxCycle cycle(Opts());
    const Trace t = Drive(&cycle, &log, &store);
    EXPECT_TRUE(cycle.status().IsCorruption()) << cycle.status().ToString();
    EXPECT_TRUE(cycle.blob().empty());
    EXPECT_FALSE(Uploads(t));
    EXPECT_FALSE(store.blob.has_value());
    EXPECT_EQ(cycle.result().applied_index, 8u);
  }
}

// A failed Tail, fetch or read ends the cycle with that status; only rules
// 2, 4 and 6 count as verification failures.
TEST(OffboxCycleTest, IoFailuresPassThrough) {
  OffboxCycle tail(Opts());
  EXPECT_FALSE(tail.OnTail(Status::TimedOut("no leader"), 0));
  EXPECT_EQ(tail.status().code(), StatusCode::kTimedOut);

  OffboxCycle fetch(Opts());
  fetch.OnTail(Status::OK(), 5);
  EXPECT_FALSE(fetch.OnSnapshot(Status::Internal("EIO"), ""));
  EXPECT_EQ(fetch.status().code(), StatusCode::kInternal);

  OffboxCycle read(Opts());
  read.OnTail(Status::OK(), 5);
  read.OnSnapshot(Status::NotFound("none"), "");
  EXPECT_FALSE(read.OnRead(1000, Status::Unavailable("down"), {}));
  EXPECT_EQ(read.status().code(), StatusCode::kUnavailable);
}

// An incremental cycle restores the previous cycle's snapshot and replays
// only the tail past it; the chain carries across.
TEST(OffboxCycleTest, AnIncrementalCycleReplaysOnlyTheTail) {
  Log log;
  for (int i = 0; i < 8; ++i) log.Set("k" + std::to_string(i), "v");
  Store store;
  {
    OffboxCycle first(Opts());
    Drive(&first, &log, &store);
  }
  log.Set("k0", "w");
  log.Checksum();
  OffboxCycle second(Opts());
  const Trace t = Drive(&second, &log, &store);
  ASSERT_TRUE(second.status().ok()) << second.status().ToString();
  EXPECT_EQ(second.result().snapshot_position, 8u);
  EXPECT_EQ(second.result().entries_replayed, 2u);
  EXPECT_EQ(second.result().checksum_records_verified, 1u);
  EXPECT_EQ(t.reads, 1);
  EXPECT_EQ(ValueIn(*store.blob, "k0"), "w");
  EXPECT_EQ(ValueIn(*store.blob, "k7"), "v");
}

// Rule 5: a snapshot names the engine version of the last kData batch it
// replayed, else that of the snapshot it loaded.
TEST(OffboxCycleTest, TheSnapshotNamesTheWritersEngineVersion) {
  Log log;
  log.Set("a", "1");
  log.Set("a", "2", "7.2.0");
  Store store;
  OffboxCycle first(Opts());
  Drive(&first, &log, &store);
  ASSERT_TRUE(first.result().uploaded);
  EXPECT_EQ(first.meta().engine_version, "7.2.0");

  log.Leases(kSlack + 1);
  OffboxCycle leases(Opts());
  Drive(&leases, &log, &store);
  ASSERT_TRUE(leases.result().uploaded);
  engine::SnapshotMeta meta;
  ASSERT_TRUE(engine::ReadSnapshotMeta(Slice(*store.blob), &meta).ok());
  EXPECT_EQ(meta.engine_version, "7.2.0");
  EXPECT_EQ(meta.log_position, 2 + kSlack + 1);
}

// Table row 6: one snapshot key function; keys sort by position.
TEST(OffboxCycleTest, SnapshotKeysSortByPosition) {
  EXPECT_EQ(SnapshotKey("shard-0", 42), "snap/shard-0/00000000000000000042");
  EXPECT_EQ(SnapshotKey("shard-0", 42).rfind(SnapshotPrefix("shard-0"), 0),
            0u);
  EXPECT_LT(SnapshotKey("s", 9), SnapshotKey("s", 10));
}

// The restore path's steps: replay-only into the caller's engine, from the
// restored position, with no fetch and no upload; a target of 0 pins the
// Tail first.
TEST(OffboxCycleTest, ReplayOnlyRunsTheRestoreSteps) {
  Log log;
  for (int i = 0; i < 8; ++i) log.Set("k", std::to_string(i));
  Store store;
  {
    OffboxCycle first(Opts());
    Drive(&first, &log, &store);
  }
  log.Set("k", "tail");
  log.Checksum();

  engine::Engine engine;
  RestoreResult restored;
  engine::SnapshotMeta meta;
  ASSERT_TRUE(OffboxCycle::LoadSnapshot(Status::OK(), *store.blob, &engine,
                                        &restored, &meta)
                  .ok());
  EXPECT_EQ(restored.snapshot_position, 8u);
  EXPECT_EQ(meta.log_position, 8u);
  OffboxCycle replay(&engine, restored);
  const Trace t = DriveReplay(&replay, log, /*target=*/0);
  ASSERT_TRUE(replay.status().ok()) << replay.status().ToString();
  EXPECT_EQ(t.steps, (std::vector<Io>{Io::kTail, Io::kRead, Io::kDone}));
  EXPECT_EQ(replay.result().applied_index, 10u);
  EXPECT_EQ(replay.result().snapshot_position, 8u);
  EXPECT_EQ(replay.result().running_checksum, log.chain);
  engine::ExecContext ctx;
  EXPECT_EQ(engine.Execute({"GET", "k"}, &ctx).str, "tail");

  // A given target needs no Tail, and a restore already there reads nothing.
  OffboxCycle pinned(&engine, replay.result());
  EXPECT_EQ(DriveReplay(&pinned, log, /*target=*/10).steps,
            (std::vector<Io>{Io::kDone}));
  EXPECT_TRUE(pinned.status().ok());

  // The load step: NotFound is a cold start, OK with the result zeroed.
  RestoreResult cold = restored;
  EXPECT_TRUE(OffboxCycle::LoadSnapshot(Status::NotFound("none"), "", &engine,
                                        &cold, &meta)
                  .ok());
  EXPECT_EQ(cold.applied_index, 0u);
  EXPECT_EQ(cold.snapshot_position, 0u);
}

}  // namespace
}  // namespace memdb::replication
