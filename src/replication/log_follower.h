// LogFollower: a replica's feed from the transaction log (§4.2.1 — replicas
// are log consumers, not primary peers). It owns an rpc::LoopThread running
// a txlog::RemoteClient that long-polls txlog.ReadStream for committed
// entries past the replica's applied index and hands them to the embedding
// server through a mutex-bridged queue — the mirror image of
// net::RemoteLogGate on the write side.
//
// Threading: the fetch machinery (long-poll issue, retry backoff, link
// state) runs on the follower's own LoopThread; the embedding RespServer
// loop calls DrainEntries()/NoteApplied() from its thread. on_entries (the
// server's EventLoop::Wakeup) may be invoked from the follower thread.
//
// Backpressure: when fetched-but-undrained entries exceed
// kMaxQueuedBytes, the follower stops issuing reads until a drain brings
// the queue back under the cap — a slow replica lags (visible in the lag
// gauges) instead of buffering without bound.
//
// Failure surfaces:
//   * link_up() false while reads are erroring (log group unreachable /
//     quorum lost); polling continues with backoff and the flag recovers
//     on the next successful read.
//   * log_trimmed() true is terminal: the group trimmed past our applied
//     index, so the replica can never catch up by following and must be
//     restarted with --restore to reseed from the snapshot store.
//
// The follower's client also carries a replica's one write: its §4.1
// leadership claim (Append). The result comes back the way entries do:
// queued under the same lock, with an on_entries wakeup.

#ifndef MEMDB_REPLICATION_LOG_FOLLOWER_H_
#define MEMDB_REPLICATION_LOG_FOLLOWER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/sync.h"
#include "rpc/loop.h"
#include "txlog/record.h"
#include "txlog/remote_client.h"

namespace memdb::replication {

class LogFollower {
 public:
  struct Options {
    std::vector<std::string> endpoints;  // host:port per txlogd replica
    uint64_t start_index = 1;            // first log index to fetch
    uint64_t poll_wait_ms = 200;         // server-side long-poll window
    uint64_t rpc_timeout_ms = 300;
  };
  static constexpr uint64_t kMaxBatch = 256;  // entries per read
  static constexpr size_t kMaxQueuedBytes = 64u << 20;
  // Delay after a read failed (the client already retried it).
  static constexpr uint64_t kRetryBackoffMs = 100;

  // Instruments are resolved from `registry` at construction. The follower
  // registers: gauges repl_lag_records / repl_lag_bytes / repl_link_up /
  // repl_last_commit_index, counter repl_fetch_errors_total. (The applied-
  // index gauge belongs to the applier; see NoteApplied.)
  LogFollower(Options options, MetricsRegistry* registry);
  ~LogFollower();
  LogFollower(const LogFollower&) = delete;
  LogFollower& operator=(const LogFollower&) = delete;

  // on_entries fires (from the follower thread) whenever new entries are
  // queued; wire it to the embedding server's EventLoop::Wakeup.
  Status Start(std::function<void()> on_entries);
  void Stop();

  // Thread-safe; returns fetched entries in log order, at-most-once each.
  std::vector<txlog::LogEntry> DrainEntries();

  // Thread-safe: one conditional append through the follower's client.
  void Append(uint64_t prev_index, txlog::LogRecord record);
  struct AppendResult {
    Status status;
    uint64_t index = 0;
  };
  // Thread-safe: the last Append's result, once, after it arrived.
  std::optional<AppendResult> TakeAppendResult();

  // The applier reports progress after applying drained entries; updates
  // the lag gauges. Thread-safe (called from the applier's thread).
  void NoteApplied(uint64_t applied_index);

  // Last commit index observed on the log group (acquire; 0 until the
  // first successful read).
  uint64_t last_commit_index() const {
    return last_commit_index_.load(std::memory_order_acquire);
  }
  // True once a read succeeded: last_commit_index() is one the log reported.
  bool fed() const { return fed_.load(std::memory_order_acquire); }
  bool link_up() const { return link_up_.load(std::memory_order_acquire); }
  bool log_trimmed() const {
    return log_trimmed_.load(std::memory_order_acquire);
  }

  txlog::RemoteClient* client() { return client_.get(); }

 private:
  // Follower-loop-thread only.
  void IssueRead();
  void OnReadDone(const Status& status,
                  const txlog::wire::ClientReadResponse& resp);

  Options options_;
  rpc::LoopThread loop_;
  std::unique_ptr<txlog::RemoteClient> client_;
  std::function<void()> on_entries_;
  bool started_ = false;

  Gauge* lag_records_ = nullptr;
  Gauge* lag_bytes_ = nullptr;
  Gauge* link_gauge_ = nullptr;
  Gauge* commit_gauge_ = nullptr;
  Counter* fetch_errors_ = nullptr;

  // Follower-loop-thread state.
  uint64_t next_index_ = 1;    // next log index to request
  bool read_inflight_ = false;
  bool paused_ = false;        // over the queued-bytes cap

  std::atomic<uint64_t> last_commit_index_{0};
  std::atomic<bool> fed_{false};
  std::atomic<uint64_t> applied_index_{0};
  std::atomic<bool> link_up_{false};
  std::atomic<bool> log_trimmed_{false};
  std::atomic<bool> stopping_{false};

  // Bridge between the follower loop (producer) and the applier (consumer).
  memdb::Mutex mu_;
  std::deque<txlog::LogEntry> queue_ GUARDED_BY(mu_);
  size_t queued_bytes_ GUARDED_BY(mu_) = 0;
  std::optional<AppendResult> append_result_ GUARDED_BY(mu_);
};

}  // namespace memdb::replication

#endif  // MEMDB_REPLICATION_LOG_FOLLOWER_H_
