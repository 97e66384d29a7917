// OffboxCycle: the off-box snapshot cycle (§4.2.2) without I/O (no clock,
// socket, store, rpc or simulator). memorydb-snapshotd's OffboxRunner and
// the simulator's OffboxSnapshotter do its I/O in the paper's fixed order
// (Tail, fetch the latest snapshot, reads, upload, trim) and hand each
// answer to the cycle, which decides whether it goes on. The rules:
//  1. The target is the log's Tail (commit index) at the start.
//  2. No snapshot is a cold start, replayed from index 1; a snapshot that
//     does not load fails the cycle (Corruption).
//  3. Reads of kReadBatch entries from applied + 1 long-poll kReadWaitMs. An
//     empty read is read again, kEmptyReads times at most, then TimedOut. A
//     read whose first index is past applied + 1 (the log was trimmed past
//     the snapshot) and an entry ReplayEntry rejects fail with Corruption.
//  4. Upload when the tail replayed a kData record, or when trimming is on
//     and the tail is longer than trim_slack (so an idle shard's lease
//     records are trimmed too); else nothing is uploaded.
//  5. The snapshot must pass its restore rehearsal (Corruption if not). It
//     names the engine version of the last kData batch replayed, else that
//     of the loaded snapshot.
//  6. After an upload, with trimming on and the position past trim_slack,
//     trim up to position - trim_slack and wait for the answer. A failed
//     trim never fails the cycle; a failed upload ends it untrimmed.
// A Corruption is a §7.2.1 verification failure. A restore runs rules 1-3
// alone: RestoreFromStore through LoadSnapshot, ReplayLogTail through the
// replay-only constructor.

#ifndef MEMDB_REPLICATION_OFFBOX_CYCLE_H_
#define MEMDB_REPLICATION_OFFBOX_CYCLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common/slice.h"
#include "common/status.h"
#include "engine/engine.h"
#include "engine/snapshot.h"
#include "txlog/wire.h"

namespace memdb::replication {

struct RestoreResult {
  uint64_t snapshot_position = 0;  // of the loaded snapshot; 0 = cold start
  // The last entry applied, and the kData chain up to it: the seed of the
  // primary's checksum injection or a replica's follow-along verification.
  uint64_t applied_index = 0;
  uint64_t running_checksum = 0;
  uint64_t entries_replayed = 0;
  uint64_t data_records_replayed = 0;  // kData entries among them
  uint64_t checksum_records_verified = 0;
};

// A cycle's outcome; applied_index is the position it reached.
struct CycleResult : RestoreResult {
  size_t snapshot_bytes = 0;
  bool uploaded = false;
  uint64_t trimmed_first_index = 0;  // the log's first index after the trim
};

// Zero-padded positions under the prefix: the last key is the newest.
std::string SnapshotPrefix(const std::string& shard_id);
std::string SnapshotKey(const std::string& shard_id, uint64_t position);

class OffboxCycle {
 public:
  struct Options {
    bool trim = true;
    uint64_t trim_slack = 0;  // entries kept behind the snapshot position
  };
  static constexpr uint64_t kReadBatch = 256;
  static constexpr uint64_t kReadWaitMs = 100;
  static constexpr int kEmptyReads = 100;

  // A full cycle, into a shadow engine of its own; or replay only, as a
  // restore runs it: from `restored` on, into `engine`.
  explicit OffboxCycle(Options options);
  OffboxCycle(engine::Engine* engine, const RestoreResult& restored);

  // The steps, in this order: OnTail, OnSnapshot (not when replaying only),
  // OnRead while next_read() is not 0, Rehearse, then upload blob() and
  // meta() and call OnUpload, then trim up to trim_index() and call OnTrim.
  // Each returns false once the cycle is over: status() and result() hold
  // the outcome. now_ms is the driver's wall clock.
  bool OnTail(const Status& s, uint64_t commit_index);
  bool OnSnapshot(const Status& s, Slice blob);
  bool OnRead(uint64_t now_ms, const Status& s,
              const txlog::wire::ClientReadResponse& read);
  bool Rehearse(uint64_t now_ms);
  bool OnUpload(const Status& s);
  void OnTrim(const Status& s, uint64_t first_index) {
    if (s.ok()) result_.trimmed_first_index = first_index;
  }

  // The load step: a fetched blob into `engine`, its meta into *meta, and
  // *result reset to its position and chain. NotFound is a cold start: OK,
  // *result zeroed.
  static Status LoadSnapshot(const Status& fetched, Slice blob,
                             engine::Engine* engine, RestoreResult* result,
                             engine::SnapshotMeta* meta);

  uint64_t next_read() const {
    return result_.applied_index < target_ ? result_.applied_index + 1 : 0;
  }
  uint64_t trim_index() const {
    return result_.applied_index - options_.trim_slack;
  }
  const Status& status() const { return status_; }
  const CycleResult& result() const { return result_; }
  const std::string& blob() const { return blob_; }
  const engine::SnapshotMeta& meta() const { return meta_; }

 private:
  bool Fail(Status s) {
    status_ = std::move(s);
    return false;
  }

  const Options options_;
  std::unique_ptr<engine::Engine> shadow_;  // null: replay only
  engine::Engine* const engine_;
  uint64_t target_ = 0;
  int empty_reads_ = 0;
  CycleResult result_;
  Status status_;
  std::string blob_;
  engine::SnapshotMeta meta_;
};

}  // namespace memdb::replication

#endif  // MEMDB_REPLICATION_OFFBOX_CYCLE_H_
