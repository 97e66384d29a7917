// txlog::RemoteClient: the database node's handle to an out-of-process
// transaction-log group (a set of memorydb-txlogd endpoints), speaking the
// rpc frame protocol. It mirrors TxLogClient's contract over real sockets:
//
//   OK               -> entry committed at `index`
//   ConditionFailed  -> precondition stale; `index` holds the actual tail
//   Unavailable      -> determinate failure (entry NOT appended)
//   TimedOut         -> INDETERMINATE after retries: the entry may or may
//                       not have committed; the caller must keep the client
//                       reply blocked and resolve by reading the log
//
// Retry machinery:
//   * leader redirects — kNotLeader carries the leader's node id (1-based
//     position in the endpoint list); redirects are bounded per operation
//     (max_redirects) and don't burn backoff.
//   * exponential backoff with jitter — delay = min(cap, base << attempt)
//     scaled by uniform [0.5, 1.0), so a fleet of retrying nodes doesn't
//     thundering-herd a recovering leader.
//   * idempotent retries — every attempt of one Append carries the same
//     (writer, request_id); the daemon's dedup table maps a retried append
//     whose first ack was lost back to the original log index, so retries
//     can never double-commit.
//
// Async callbacks run on the client's LoopThread; *Sync wrappers block the
// calling thread (never call them from the loop thread).

#ifndef MEMDB_TXLOG_REMOTE_CLIENT_H_
#define MEMDB_TXLOG_REMOTE_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/trace.h"
#include "rpc/channel.h"
#include "rpc/loop.h"
#include "txlog/record.h"
#include "txlog/rpc_wire.h"
#include "txlog/wire.h"

namespace memdb::txlog {

class RemoteClient {
 public:
  using AppendCallback = std::function<void(const Status&, uint64_t index)>;
  using ReadCallback =
      std::function<void(const Status&, const wire::ClientReadResponse&)>;
  using TailCallback =
      std::function<void(const Status&, const wire::ClientTailResponse&)>;
  // first_index = highest "first index still present" among replicas that
  // answered (how far trimming actually got).
  using TrimCallback = std::function<void(const Status&, uint64_t first_index)>;

  struct Options {
    uint64_t writer_id = 0;  // stamped into records whose writer is 0
    uint64_t rpc_timeout_ms = 300;
    uint64_t backoff_base_ms = 20;
    uint64_t backoff_cap_ms = 1000;
    int max_attempts = 8;
    int max_redirects = 4;  // bounded leader-chase per operation
    uint64_t seed = 0;      // jitter rng; 0 = derived from writer_id
    // Optional write-path tracing: traced calls record rpc.send/rpc.recv
    // spans into this log (owned by the embedding process).
    TraceLog* trace = nullptr;
  };

  // Endpoints as "host:port"; position i serves txlogd node id i+1 (that is
  // how kNotLeader hints resolve to an endpoint). `registry` (optional)
  // receives rpc_requests_total / rpc_errors_total / rpc_rtt_us /
  // rpc_inflight plus txlog_retries_total / txlog_redirects_total.
  RemoteClient(rpc::LoopThread* loop, std::vector<std::string> endpoints,
               Options options, MetricsRegistry* registry = nullptr);
  ~RemoteClient();
  RemoteClient(const RemoteClient&) = delete;
  RemoteClient& operator=(const RemoteClient&) = delete;

  // Must be called before destruction while the loop still runs.
  void Shutdown();

  // --- async API (callbacks on the loop thread) ----------------------------
  void Append(uint64_t prev_index, LogRecord record, AppendCallback cb);
  void Read(uint64_t from_index, uint64_t max_count, uint64_t wait_ms,
            ReadCallback cb);
  void Tail(TailCallback cb);
  // Broadcasts the trim hint to every endpoint (each replica bounds it by
  // its own commit). Best-effort: OK if at least one replica answered.
  void Trim(uint64_t upto_index, TrimCallback cb);

  // --- blocking wrappers (not from the loop thread) ------------------------
  Status AppendSync(uint64_t prev_index, LogRecord record, uint64_t* index);
  Status ReadSync(uint64_t from_index, uint64_t max_count, uint64_t wait_ms,
                  wire::ClientReadResponse* out);
  Status TailSync(wire::ClientTailResponse* out);
  Status TrimSync(uint64_t upto_index, uint64_t* first_index);

  // Allocates a writer-unique request id (thread-safe); used to stamp
  // records before Append so retries stay idempotent.
  uint64_t NextRequestId() {
    return next_request_id_.fetch_add(1, std::memory_order_relaxed);
  }

  size_t endpoint_count() const { return channels_.size(); }

  // Test hook, fired on the loop thread before every backoff sleep with the
  // attempt ordinal and the jittered delay actually scheduled.
  std::function<void(int attempt, uint64_t delay_ms)> backoff_hook;

 private:
  struct LeaderOp;  // one leader-directed operation's retry state

  rpc::Channel* ChannelFor(size_t index) { return channels_[index].get(); }
  size_t PickTarget();  // leader hint if known, else round-robin
  uint64_t BackoffMs(int attempt);

  void StartLeaderOp(std::shared_ptr<LeaderOp> op);
  void FinishAttempt(std::shared_ptr<LeaderOp> op, Status status,
                     std::string payload);
  void RetryLater(std::shared_ptr<LeaderOp> op);

  void ReadAttempt(uint64_t from_index, uint64_t max_count, uint64_t wait_ms,
                   ReadCallback cb, int attempts_left);

  rpc::LoopThread* const loop_;
  Options options_;
  std::unique_ptr<rpc::RpcStats> stats_;
  std::vector<std::unique_ptr<rpc::Channel>> channels_;
  Counter* retries_ = nullptr;
  Counter* redirects_ = nullptr;

  // Loop-thread state.
  size_t leader_hint_ = SIZE_MAX;  // endpoint index
  size_t round_robin_ = 0;
  Rng rng_;

  std::atomic<uint64_t> next_request_id_{1};
  std::atomic<bool> shutdown_{false};
};

}  // namespace memdb::txlog

#endif  // MEMDB_TXLOG_REMOTE_CLIENT_H_
