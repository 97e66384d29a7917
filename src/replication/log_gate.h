// LogGate: the write-behind durability gate (§3.1, §4.1, §7.2.1) as a
// sans-IO state machine (no clock, socket, thread, rpc or simulator),
// driven by both memorydb-server's net::RemoteLogGate and the simulator's
// memorydb::Node. The driver feeds it submissions and the results of the
// calls it asked for, and drains an Output after each input.
//
// The rules:
//  1. One record in flight, in seq order. kData batches queued behind it
//     merge (replication::AppendEffectBatch) into the next kData record, up
//     to kMaxRecordBytes; typed records and kChecksum records travel alone
//     and keep their place.
//  2. Every append is conditional on the last index this writer knows: the
//     driver's anchor (Start(index)) or a leader Tail (Start()).
//  3. A record's request id is the index it is chained to, prev + 1, so
//     every retry of one attempt dedups in the log service and no earlier
//     incarnation of the same writer can own that id.
//  4. After any failed append, the gate learns the tail with a leader Tail,
//     waits until the commit index reaches it (and until it is no older
//     than prev), and reads the gap (prev, tail], skipping a trimmed
//     prefix. A record by another writer fences (kNoop barriers and kLease
//     records of another shard are exempt). The in-flight record found in
//     the gap by (writer, request id) landed. Otherwise, after
//     ConditionFailed it goes out again at the new tail. After any other
//     failure its seqs fail with that status; if the gap is empty the
//     record may still land at prev + 1, so it goes out again there with
//     the same id, carrying no seqs, until it lands or another record
//     takes its place.
//  5. The §7.2.1 chain folds a payload in only once its record is known to
//     be in the log (acked or found in the gap). A kChecksum record
//     carrying Fixed64(chain) goes right after every checksum_every-th
//     data record.
//  6. Fenced is terminal: the in-flight seqs (unless their record was found
//     ahead of the foreign one), every queued seq and every later
//     submission fail with ConditionFailed.

#ifndef MEMDB_REPLICATION_LOG_GATE_H_
#define MEMDB_REPLICATION_LOG_GATE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "txlog/record.h"
#include "txlog/wire.h"

namespace memdb::replication {

class LogGate {
 public:
  // Merged kData records stop growing at this payload size, far under
  // rpc::kMaxFrameBytes; a single larger write still goes out alone.
  static constexpr size_t kMaxRecordBytes = 256u << 10;

  struct Options {
    uint64_t writer_id = 0;
    // A kChecksum record after every N data records; 0 = off.
    uint64_t checksum_every = 0;
    // Chain basis: the chain through the anchor (0 = fresh log).
    uint64_t checksum_seed = 0;
  };

  // A write's effect batch or a typed record; the gate's own kChecksum
  // records queue with seq 0.
  struct Submission {
    uint64_t seq = 0;
    txlog::RecordType type = txlog::RecordType::kData;
    std::string payload;
    uint64_t trace_id = 0;
  };
  // A conditional append to issue; record.request_id is prev_index + 1.
  struct Append {
    uint64_t prev_index = 0;
    txlog::LogRecord record;
    bool reissue = false;  // the record in flight again, after a failure
    // Fresh records only: the submissions it carries (0 for kChecksum), and
    // the (seq, trace id) of each traced one.
    size_t writes = 0;
    std::vector<std::pair<uint64_t, uint64_t>> traced;
  };
  enum class ReadKind : uint8_t { kNone, kTail, kGap };
  // A leader Tail, or a committed read from `from` (any replica).
  struct Read {
    ReadKind kind = ReadKind::kNone;
    uint64_t from = 0;
    bool later = false;  // retry: issue it after a delay the driver picks
  };
  // Every submitted seq in [first_seq, last_seq] resolved; OK = committed
  // in the record at `index`.
  struct Completion {
    uint64_t first_seq = 0;
    uint64_t last_seq = 0;
    Status status;
    uint64_t index = 0;
  };
  struct Output {
    std::optional<Append> append;
    Read read;
    std::vector<Completion> completions;
    // The record in flight is known to be in the log, at this index (0 =
    // none): its ack, or the gap read that found it.
    uint64_t landed = 0;
    uint64_t fenced_by = 0;  // the foreign writer, on the input that fenced
  };

  explicit LogGate(Options options);

  // --- inputs ---------------------------------------------------------------
  // The chain starts at the tail a leader Tail reports, with no gap scan.
  void Start();
  // The chain starts after `index`, a committed record this writer owns.
  void Start(uint64_t index);
  // Seqs must increase. Nothing is issued before the next TakeOutput, so
  // submissions made between two drains can share a record.
  void Submit(uint64_t seq, txlog::RecordType type, std::string payload,
              uint64_t trace_id);
  // The result of the append in flight (OK carries its index).
  void OnAppend(const Status& status, uint64_t index);
  void OnTail(const Status& status, const txlog::wire::ClientTailResponse& r);
  void OnRead(const Status& status, const txlog::wire::ClientReadResponse& r);

  // Issues the next record first when the gate may append.
  Output TakeOutput();

  // --- queries --------------------------------------------------------------
  // Nothing queued, in flight or being resolved.
  bool idle() const { return queue_.empty() && !inflight(); }
  size_t queued() const { return queue_.size(); }
  bool inflight() const {
    return phase_ == Phase::kInFlight || phase_ == Phase::kTail ||
           phase_ == Phase::kGap;
  }
  bool fenced() const { return fenced_by_ != 0; }
  uint64_t fenced_by() const { return fenced_by_; }
  // The last seq taken from the queue into a record (0 = none yet).
  uint64_t taken_seq() const { return taken_seq_; }
  uint64_t chain() const { return chain_; }
  uint64_t prev_index() const { return prev_; }

 private:
  enum class Phase : uint8_t {
    kAnchoring,  // learning the chain's start
    kReady,      // may append when a record is due
    kInFlight,   // the append is out
    kTail,       // resolving a failure: waiting for a settled tail
    kGap,        // resolving a failure: reading (prev, gap_tail_]
    kFenced,
  };

  void Pump();
  // Outputs record_ chained on prev_ (a re-issue unless Pump filled the
  // append).
  void Issue();
  void ReadGap();
  void ResolveGap();
  // Completes the in-flight record's seqs with `status`; the record itself
  // may still go out again, carrying none.
  void Fail(const Status& status);
  // The in-flight record is in the log at `index`.
  void Land(uint64_t index);
  void Fence(uint64_t writer);
  bool Foreign(const txlog::LogRecord& record) const;

  const Options options_;
  Phase phase_ = Phase::kAnchoring;
  std::deque<Submission> queue_;
  uint64_t prev_ = 0;  // chain position: last committed index known
  // The record in flight, kept whole for a re-issue.
  txlog::LogRecord record_;
  uint64_t first_seq_ = 0;  // seqs it carries; 0 for a kChecksum record
  uint64_t last_seq_ = 0;
  bool carried_ = false;  // its seqs failed: it goes out only at its place
  uint64_t taken_seq_ = 0;
  // Failure resolution.
  Status failure_;
  uint64_t gap_tail_ = 0;
  uint64_t gap_next_ = 0;
  uint64_t found_ = 0;  // index where the gap read found the record
  uint64_t chain_;
  uint64_t data_since_checksum_ = 0;
  uint64_t fenced_by_ = 0;
  Output out_;
};

}  // namespace memdb::replication

#endif  // MEMDB_REPLICATION_LOG_GATE_H_
