// RemoteLogGate: connects the RESP front end to an out-of-process
// transaction-log group (memorydb-txlogd processes) — the real-socket
// version of the §3.1/§3.2 durability gate. The RespServer submits one
// append per write and parks the client's reply; the gate reports
// completions (commit or terminal failure) back to the server loop, which
// releases the parked replies in order.
//
// Group commit: submissions wait in a submit queue until Flush() hands
// them to the gate thread (the server flushes once per loop iteration).
// One log record is in flight at a time, in submission order, so the log's
// entry order equals local execution order. Every data batch queued behind
// the in-flight record is merged (replication::AppendEffectBatch) into the
// next kData record, up to kMaxRecordBytes — as in §3.1, where a log record
// carries a chunk of the replication stream. Each submission still has its
// own seq: when a record resolves, every seq it carried completes with the
// record's outcome and index, in seq order, behind one on_complete wakeup.
// Typed records (kSlotOwnership) and the gate's own kChecksum records always
// travel alone and keep their place in the order. Retries, leader
// redirects, and (writer, request_id) dedup live inside txlog::RemoteClient;
// the gate sees each record complete exactly once.
//
// Threading: SubmitAppend/SubmitTyped/Flush/DrainCompletions are called
// from the RespServer loop thread; the append machinery runs on the gate's
// own rpc::LoopThread; the submit and completion queues are the
// mutex-protected bridges between them. The on_complete callback
// (RespServer's EventLoop::Wakeup) may be invoked from the gate thread.

#ifndef MEMDB_NET_REMOTE_LOG_GATE_H_
#define MEMDB_NET_REMOTE_LOG_GATE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/trace.h"
#include "rpc/loop.h"
#include "txlog/remote_client.h"

namespace memdb::net {

class RemoteLogGate {
 public:
  struct Options {
    std::vector<std::string> endpoints;  // host:port per txlogd replica
    uint64_t writer_id = 1;              // this database node's identity
    uint64_t rpc_timeout_ms = 300;
    uint64_t backoff_base_ms = 20;
    uint64_t backoff_cap_ms = 1000;
    int max_attempts = 8;
    int max_redirects = 4;
    // Inject a kChecksum record carrying the running CRC64 of all data
    // payloads after every N data records (§7.2.1); 0 = off. Consumers
    // (replicas, the off-box snapshotter) verify the chain as they replay.
    uint64_t checksum_every = 0;
    // Chain basis, from the snapshot the primary restored from (0 = fresh).
    uint64_t checksum_seed = 0;
    // Poll txlog.Tail every N ms for commit index + observable consumer
    // count (repl_log_consumers / txlog_tail_commit_index gauges); 0 = off.
    uint64_t tail_poll_ms = 0;
    // Fenced appends (§4.1): chain every append on the previous one's index
    // (prev_index conditional) instead of kUnconditional. On a stale
    // precondition the gate reads the gap: benign tail movement (kNoop
    // election barriers, this writer's own lease renewals) re-chains and
    // re-issues the same record whole; a foreign writer's record — another
    // primary's data append or a lease grant to a different owner — means
    // this node lost the shard lease, and the gate goes terminally fenced:
    // every write the in-flight record carried and everything queued fail
    // with ConditionFailed, and the embedding server demotes. Off (default)
    // preserves the pre-failover unconditional path.
    bool fence = false;
    // With fence: kLease records for a different shard are benign (multi-
    // shard logs). Empty matches every shard (single-shard deployments).
    std::string shard_id;
    // Optional write-path tracing: the gate records gate.append.issue for
    // every traced write when its record goes on the wire, and the
    // RemoteClient's channels record rpc.send/rpc.recv under the record's
    // trace id. Owned by the embedding RespServer.
    TraceLog* trace = nullptr;
  };

  struct Completion {
    uint64_t seq = 0;    // sequence handed out by SubmitAppend
    Status status;       // OK = committed at `index`; else terminal failure
    uint64_t index = 0;  // index of the log record that carried it
  };

  // Merged kData records stop growing at this payload size, far under
  // rpc::kMaxFrameBytes; a single larger write still goes out alone.
  static constexpr size_t kMaxRecordBytes = 256u << 10;

  // Instruments (rpc_* client metrics plus gate counters) are resolved from
  // `registry` at construction — before any loop thread exists.
  RemoteLogGate(Options options, MetricsRegistry* registry);
  ~RemoteLogGate();
  RemoteLogGate(const RemoteLogGate&) = delete;
  RemoteLogGate& operator=(const RemoteLogGate&) = delete;

  // on_complete fires (from the gate thread) whenever a completion is
  // queued; wire it to the RespServer's EventLoop::Wakeup.
  Status Start(std::function<void()> on_complete);
  void Stop();

  // Thread-safe. Queues one durable append carrying `payload` (an encoded
  // effect batch) and returns its seq (monotonic from 1). Nothing is sent
  // before the next Flush(). `trace_id` rides the log record and the rpc
  // frame (write-path tracing); a merged record carries the first nonzero
  // trace id among its writes.
  uint64_t SubmitAppend(std::string payload, uint64_t trace_id);

  // Thread-safe. Like SubmitAppend but with an explicit record type — used
  // for kSlotOwnership flips (§5): the append rides the same serialized,
  // fenced chain as data, so a committed completion proves this writer
  // still held the shard lease when the flip landed. Non-data records are
  // never merged and do not advance the §7.2.1 checksum chain (replicas
  // skip them too).
  uint64_t SubmitTyped(txlog::RecordType type, std::string payload,
                       uint64_t trace_id);

  // Thread-safe and non-blocking: hands everything submitted so far to the
  // gate thread (at most one hand-off task is pending at a time).
  void Flush();

  // Thread-safe; returns queued completions in seq order.
  std::vector<Completion> DrainCompletions();

  // Appends submitted but not yet completed (thread-safe).
  uint64_t inflight() const {
    return submitted_.load(std::memory_order_acquire) -
           completed_.load(std::memory_order_acquire);
  }
  size_t replica_count() const { return options_.endpoints.size(); }

  // Fence mode only (thread-safe): true once a foreign record proved this
  // node lost the shard lease. Terminal — every subsequent append fails.
  bool fenced() const { return fenced_.load(std::memory_order_acquire); }
  // Writer id of the foreign record that fenced us (0 until fenced, or if
  // fencing came from a ConditionFailed append rather than a gap scan).
  uint64_t fenced_by() const {
    return fenced_by_.load(std::memory_order_acquire);
  }

  // Test access to the underlying client (backoff hook, sync reads).
  txlog::RemoteClient* client() { return client_.get(); }

 private:
  struct PendingAppend {
    uint64_t seq = 0;  // 0 for the gate's own kChecksum records
    uint64_t trace_id = 0;
    std::string payload;
    txlog::RecordType type = txlog::RecordType::kData;
  };

  // Gate-loop-thread only (loop_.AssertOnLoopThread() on entry).
  void TakeSubmissions();
  void Pump();
  void OnAppendDone(const Status& status, uint64_t index);
  void ScheduleTailPoll();
  // Fence machinery (gate-loop thread): (re)learn the chain position from
  // txlog.Tail; scan_gap additionally classifies (prev, tail] — required
  // whenever the tail moved while this writer wasn't looking (a stale
  // precondition, or an indeterminate append). Scans wait for the commit
  // index to catch the tail first, so a mid-commit foreign grant cannot be
  // chained past. reissue_after re-sends the still-in-flight record once
  // the chain is re-learned (ConditionFailed path); otherwise Pump resumes.
  void ResolveChain(bool scan_gap, bool reissue_after);
  // Classify [from, tail]; benign -> on_benign(), foreign -> EnterFenced().
  void ScanGap(uint64_t from, uint64_t tail, std::function<void()> on_benign);
  bool ForeignRecord(const txlog::LogEntry& entry) const;
  // Terminal: fail the in-flight record (if any) and everything queued.
  void EnterFenced();
  // Resolves the in-flight record: every seq it carried completes.
  void CompleteInflight(const Status& status, uint64_t index);
  // Publishes completions for `seqs` (in order) with one wakeup.
  void Complete(const std::vector<uint64_t>& seqs, const Status& status,
                uint64_t index);
  void ReissueInflight();

  Options options_;
  rpc::LoopThread loop_;
  std::unique_ptr<txlog::RemoteClient> client_;
  std::function<void()> on_complete_;
  bool started_ = false;

  Counter* appends_submitted_ = nullptr;
  Counter* appends_failed_ = nullptr;
  Counter* records_sent_ = nullptr;
  Histogram* record_writes_ = nullptr;
  Gauge* queue_depth_ = nullptr;
  Counter* checksum_records_ = nullptr;
  Gauge* log_consumers_ = nullptr;
  Gauge* tail_commit_ = nullptr;

  // Bridge between the submitting RespServer loop (producer) and the gate
  // loop (consumer via TakeSubmissions). Seqs are handed out under the
  // same lock, so the queue is in seq order whoever submits.
  memdb::Mutex submit_mu_;
  std::vector<PendingAppend> submits_ GUARDED_BY(submit_mu_);
  uint64_t next_seq_ GUARDED_BY(submit_mu_) = 1;
  bool take_posted_ GUARDED_BY(submit_mu_) = false;

  // Gate-loop-thread state (thread-affine, no lock; see Pump/OnAppendDone).
  std::deque<PendingAppend> queue_;
  bool append_inflight_ = false;
  // Seqs carried by the in-flight record (empty for a checksum record).
  std::vector<uint64_t> inflight_seqs_;
  // --- fence-mode chain state (gate-loop thread) ---------------------------
  bool prev_known_ = false;    // chain position learned from txlog.Tail
  uint64_t prev_index_ = 0;    // last index this writer observed/appended
  // Copy of the record on the wire, for re-issue after a benign race.
  txlog::LogRecord inflight_record_;
  std::atomic<bool> fenced_{false};
  std::atomic<uint64_t> fenced_by_{0};
  // Running CRC64 over data records as sent — which is log order, because
  // records are strictly serialized.
  uint64_t running_checksum_ = 0;
  uint64_t data_since_checksum_ = 0;
  std::atomic<bool> stopping_{false};

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};

  // Bridge between the gate loop (producer) and the RespServer loop
  // (consumer via DrainCompletions).
  memdb::Mutex done_mu_;
  std::vector<Completion> done_ GUARDED_BY(done_mu_);
};

}  // namespace memdb::net

#endif  // MEMDB_NET_REMOTE_LOG_GATE_H_
