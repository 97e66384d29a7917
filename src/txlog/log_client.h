// txlog::LogClient: a database node's handle to one shard's transaction log
// (§3.1, §4.1), the one client both drivers run. The real processes reach
// txlogd through RemoteClient (rpc::Channel calls on a LoopThread); the
// simulator reaches its RaftReplica actors through ActorTransport
// (sim::Actor::Rpc and After). Both speak txlogd's method names and bodies
// (txlog/rpc_wire.h, txlog/wire.h).
//
// Append results:
//   OK               -> entry committed at `index`
//   ConditionFailed  -> precondition stale; `index` holds the actual tail
//   Unavailable      -> NOT appended: every attempt was refused by a
//                       replica's answer (not the leader, or no leader yet)
//   TimedOut         -> INDETERMINATE: an attempt failed in transport (a
//                       deadline, a lost or refused connection, a replica
//                       that stopped), so the entry may have committed; the
//                       caller keeps the reply blocked and resolves by
//                       reading the log (match on writer and request id)
//   InvalidArgument  -> a replica has no such method or could not decode
//                       the body; never retried
//
// One rule per case:
//   * Append and Tail go to the leader hint, else round-robin; a replica
//     that accepts one becomes the hint. A kNotLeader answer naming a
//     replica (hint h = the transport's replica h - 1) redirects there at
//     once, costing no attempt and no backoff, up to max_redirects per
//     operation.
//   * Any other refusal or failure costs an attempt, then a backoff of
//     min(cap, base << n) scaled by uniform [0.5, 1), from an rng seeded
//     with the writer id (one seed, one simulated run).
//   * Read goes to the replicas round-robin; a failed read retries on the
//     next one after the same backoff.
//   * Trim fans out to every replica and reports the highest first index
//     among the answers; OK if any replica answered.
//   * Append stamps the writer (0 -> writer_id) and the request id (0 ->
//     NextRequestId()) once; every attempt sends the same bytes, so txlogd's
//     (writer, request id) dedup answers a retry whose first ack was lost
//     with the original index.
//   * CancelAppends: no append made so far is sent again or calls back.
//
// Threading: every public call may come from any thread the transport's
// Post accepts. The client's state, its transport calls and every callback
// run on the transport's thread (the rpc loop, the simulated actor).

#ifndef MEMDB_TXLOG_LOG_CLIENT_H_
#define MEMDB_TXLOG_LOG_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "txlog/record.h"
#include "txlog/wire.h"

namespace memdb::txlog {

class LogClient {
 public:
  using AppendCallback = std::function<void(const Status&, uint64_t index)>;
  using ReadCallback =
      std::function<void(const Status&, const wire::ClientReadResponse&)>;
  using TailCallback =
      std::function<void(const Status&, const wire::ClientTailResponse&)>;
  using TrimCallback = std::function<void(const Status&, uint64_t first_index)>;

  // How the client reaches the replicas.
  class Transport {
   public:
    using Callback = std::function<void(Status, std::string body)>;
    virtual ~Transport() = default;
    virtual size_t size() const = 0;
    // Runs `fn` on the client's thread.
    virtual void Post(std::function<void()> fn) = 0;
    virtual void After(uint64_t delay_ms, std::function<void()> fn) = 0;
    // Sends one request to replica `i`. `cb` runs once on the client's
    // thread with the answer's body, InvalidArgument when the replica could
    // not run the method, or the transport's failure.
    virtual void Call(size_t i, const std::string& method, std::string body,
                      uint64_t timeout_ms, uint64_t trace_id,
                      Callback cb) = 0;
  };

  struct Options {
    uint64_t writer_id = 0;  // stamped into records whose writer is 0
    uint64_t rpc_timeout_ms = 300;
    uint64_t backoff_base_ms = 20;
    uint64_t backoff_cap_ms = 1000;
    int max_attempts = 8;
    int max_redirects = 4;  // free leader redirects per operation
  };

  // Stamped request ids start above any log index, so they never collide
  // with the ids the gate and the election derive from log positions
  // (prev index + 1) under the same writer.
  static constexpr uint64_t kFirstStampedRequestId = uint64_t{1} << 48;

  // `registry` (optional) receives txlog_retries_total and
  // txlog_redirects_total.
  LogClient(std::unique_ptr<Transport> transport, Options options,
            MetricsRegistry* registry = nullptr);
  ~LogClient();
  LogClient(const LogClient&) = delete;
  LogClient& operator=(const LogClient&) = delete;

  // Conditional append (wire::kUnconditional skips the precondition).
  void Append(uint64_t prev_index, LogRecord record, AppendCallback cb);
  // Committed entries from `from_index`; wait_ms > 0 long-polls a replica
  // that has none yet.
  void Read(uint64_t from_index, uint64_t max_count, uint64_t wait_ms,
            ReadCallback cb);
  // Linearizable tail query (leader only).
  void Tail(TailCallback cb);
  // Compaction hint for every replica (each bounds it by its own commit).
  void Trim(uint64_t upto_index, TrimCallback cb);
  void CancelAppends();
  // Every operation from now on fails at once, as after its last attempt.
  void Stop() { stopped_.store(true, std::memory_order_release); }

  uint64_t NextRequestId() {
    return next_request_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // The longest backoff before attempt n + 1 (the jitter draws from the
  // upper half).
  static uint64_t BackoffCeilingMs(const Options& options, int n);

  // Test hook, on the client's thread before every backoff with the attempt
  // ordinal and the jittered delay actually scheduled.
  std::function<void(int attempt, uint64_t delay_ms)> backoff_hook;

 private:
  struct Op;
  void Start(std::shared_ptr<Op> op);
  void Attempt(std::shared_ptr<Op> op);
  void OnAnswer(std::shared_ptr<Op> op, const Status& status,
                const std::string& body);
  void Retry(std::shared_ptr<Op> op);
  // The op's last word after its attempts ran out (or the client stopped).
  void GiveUp(Op& op, const char* why);
  void Finish(Op& op, const Status& status);

  const std::unique_ptr<Transport> transport_;
  const Options options_;
  Counter* retries_ = nullptr;
  Counter* redirects_ = nullptr;

  // Client-thread state.
  size_t leader_ = SIZE_MAX;  // replica index; SIZE_MAX = unknown
  size_t round_robin_ = 0;
  uint64_t append_epoch_ = 0;  // bumped by CancelAppends
  Rng rng_;

  std::atomic<uint64_t> next_request_id_{kFirstStampedRequestId};
  std::atomic<bool> stopped_{false};
};

}  // namespace memdb::txlog

#endif  // MEMDB_TXLOG_LOG_CLIENT_H_
