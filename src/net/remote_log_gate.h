// RemoteLogGate: connects the RESP front end to an out-of-process
// transaction-log group (memorydb-txlogd processes) — the real-socket
// driver of the §3.1 write-behind gate, replication::LogGate. The
// RespServer submits one append per write and parks the client's reply;
// the gate reports completions (commit or terminal failure) back to the
// server, which releases the parked replies in order.
//
// The core decides what goes on the wire: one chained record in flight,
// group commit, the §7.2.1 checksum records, the gap read after a failed
// append and fencing (see replication/log_gate.h). This driver hands it the
// submissions and the RemoteClient's results, issues the appends and reads
// it asks for, and records the gate's metrics and spans. Retries, leader
// redirects, and (writer, request_id) dedup live inside txlog::RemoteClient.
//
// Threading: the gate is loop-affine. It, its RemoteClient and the client's
// channels run on the rpc::LoopThread it is given — memorydb-server's own
// loop, which also runs the RESP connections — so a write reaches the log
// and its completion reaches the server with no thread hop and no lock.
// Every method runs on that loop's thread, except the queries marked
// thread-safe (Stop()'s drain and tests read them from other threads).

#ifndef MEMDB_NET_REMOTE_LOG_GATE_H_
#define MEMDB_NET_REMOTE_LOG_GATE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "replication/log_gate.h"
#include "rpc/loop.h"
#include "txlog/remote_client.h"

namespace memdb::net {

class RemoteLogGate {
 public:
  // The log client's options (writer id, timeouts, backoff, attempts,
  // tracing), then the gate's own.
  struct Options : txlog::RemoteClient::Options {
    Options() { writer_id = 1; }  // this database node's identity
    std::vector<std::string> endpoints;  // host:port per txlogd replica
    // Inject a kChecksum record carrying the running CRC64 of all data
    // payloads after every N data records (§7.2.1); 0 = off. Consumers
    // (replicas, the off-box snapshotter) verify the chain as they replay.
    uint64_t checksum_every = 0;
    // Chain basis, from the snapshot the primary restored from (0 = fresh).
    uint64_t checksum_seed = 0;
    // Poll txlog.Tail every N ms for commit index + observable consumer
    // count (repl_log_consumers / txlog_tail_commit_index gauges); 0 = off.
    uint64_t tail_poll_ms = 0;
  };

  struct Completion {
    uint64_t seq = 0;    // sequence handed out by SubmitAppend
    Status status;       // OK = committed at `index`; else terminal failure
    uint64_t index = 0;  // index of the log record that carried it
  };
  using CompletionCallback = std::function<void(const Completion&)>;

  static constexpr size_t kMaxRecordBytes =
      replication::LogGate::kMaxRecordBytes;

  // Instruments (rpc_* client metrics plus gate counters) are resolved from
  // `registry` at construction.
  RemoteLogGate(rpc::LoopThread* loop, Options options,
                MetricsRegistry* registry);
  ~RemoteLogGate();
  RemoteLogGate(const RemoteLogGate&) = delete;
  RemoteLogGate& operator=(const RemoteLogGate&) = delete;

  // on_complete runs once per seq, in seq order, as the gate learns its
  // fate; it only records the completion (the gate is not re-entrant). The
  // chain starts after `anchor`, a committed record this writer owns (the
  // kLeadership claim a failover node won), or with 0 at the tail a leader
  // Tail reports.
  Status Start(CompletionCallback on_complete, uint64_t anchor = 0);
  // Fails every operation still running and stops calling back. Must run
  // before destruction while the loop still runs.
  void Stop();

  // Queues one durable append carrying `payload` (an encoded effect batch)
  // and returns its seq (monotonic from 1). Nothing is sent before the next
  // Flush(), so the writes of one loop iteration can share a record.
  // `trace_id` rides the log record and the rpc frame (write-path
  // tracing); a merged record carries the first nonzero trace id among its
  // writes.
  uint64_t SubmitAppend(std::string payload, uint64_t trace_id);

  // Like SubmitAppend but with an explicit record type — used for
  // kSlotOwnership flips (§5): the append rides the same serialized, fenced
  // chain as data, so a committed completion proves this writer still held
  // the shard lease when the flip landed. Non-data records are never merged
  // and do not advance the §7.2.1 checksum chain (replicas skip them too).
  // A failover primary's kLease renewals ride it as well.
  uint64_t SubmitTyped(txlog::RecordType type, std::string payload,
                       uint64_t trace_id);

  // Issues whatever the submissions so far let the gate send.
  void Flush() { Drive(); }

  // Appends submitted but not yet completed (thread-safe).
  uint64_t inflight() const {
    return submitted_.load(std::memory_order_acquire) -
           completed_.load(std::memory_order_acquire);
  }
  size_t replica_count() const { return options_.endpoints.size(); }

  // Thread-safe: true once a foreign record in the append chain proved this
  // node lost the shard lease. Terminal — every subsequent append fails.
  bool fenced() const { return fenced_by() != 0; }
  // Writer id of the foreign record that fenced us (0 until fenced).
  uint64_t fenced_by() const {
    return fenced_by_.load(std::memory_order_acquire);
  }

  // Test access to the underlying client (backoff hook, sync reads).
  txlog::RemoteClient* client() { return client_.get(); }

 private:
  // Acts on everything the core asks for after an input.
  void Drive();
  void Send(replication::LogGate::Append append);
  void IssueRead(replication::LogGate::Read read);
  // Reports completions, one per seq in seq order.
  void Complete(const std::vector<replication::LogGate::Completion>& done);
  void ScheduleTailPoll();

  rpc::LoopThread* const loop_;
  Options options_;
  std::unique_ptr<txlog::RemoteClient> client_;
  CompletionCallback on_complete_;
  bool started_ = false;
  bool stopping_ = false;
  uint64_t next_seq_ = 1;

  Counter* appends_submitted_ = nullptr;
  Counter* appends_failed_ = nullptr;
  Counter* records_sent_ = nullptr;
  Histogram* record_writes_ = nullptr;
  Gauge* queue_depth_ = nullptr;
  Counter* checksum_records_ = nullptr;
  Gauge* log_consumers_ = nullptr;
  Gauge* tail_commit_ = nullptr;

  replication::LogGate core_;
  std::atomic<uint64_t> fenced_by_{0};
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
};

}  // namespace memdb::net

#endif  // MEMDB_NET_REMOTE_LOG_GATE_H_
