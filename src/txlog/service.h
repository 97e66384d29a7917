// LogService: one memorydb-txlogd replica — the out-of-process transaction
// log service. It drives the RaftCore (txlog/raft_core.h) the simulator
// runs, adding what a real process needs: an rpc::Server, a channel per
// peer, loop timers, and write-ahead files whose fsync gates every ack.
//
// Service API (see txlog/rpc_wire.h for method names):
//   * ConditionalAppend — leader-only CAS append; acks only after quorum
//     persistence; idempotent under retry via (writer, request_id) dedup.
//   * ReadStream — committed entries from any replica, with long-poll
//     follow (wait_ms) so replicas can tail the log without busy polling.
//   * Tail — linearizable tail query (leader, post-barrier).
//   * Trim — discard committed history a durable snapshot covers (§4.2.3).
//
// Leader election among database nodes (§4.1) needs nothing more: claims
// and lease renewals are ordinary conditional appends of kLeadership and
// kLease records (replication/election.h), fenced like every other record.
//
// Persistence is fail-stop: once a meta or log write, fsync or rename
// fails, the replica grants no vote, acks no AppendEntries and no client
// append, and failed() reads true (memorydb-txlogd then exits non-zero).
//
// Threading: the entire replica runs on one rpc::LoopThread; every member
// below is loop-thread state unless noted, enforced at runtime by
// loop_.AssertOnLoopThread() at every handler entry point
// (common/sync.h ThreadAffinity). Cross-thread observers (tests, the stats
// banner) read the *_atomic_ mirrors.

#ifndef MEMDB_TXLOG_SERVICE_H_
#define MEMDB_TXLOG_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "rpc/channel.h"
#include "rpc/loop.h"
#include "rpc/server.h"
#include "txlog/raft_core.h"
#include "txlog/rpc_wire.h"

namespace memdb::txlog {

class LogService {
 public:
  struct Options {
    uint64_t node_id = 1;  // 1-based replica id (one per simulated AZ)
    std::string listen_host = "127.0.0.1";
    uint16_t listen_port = 0;  // 0 = kernel-assigned
    // Durable state directory; empty = memory-only (tests). With a data
    // dir, every append is fsynced before it counts toward the quorum.
    std::string data_dir;
    bool fsync = true;

    uint64_t heartbeat_ms = 40;
    uint64_t election_min_ms = 150;
    uint64_t election_max_ms = 300;
    uint64_t raft_rpc_timeout_ms = 150;
    // Cap on the (writer, request_id) idempotency table; see
    // RaftConfig::dedup_max_entries. Size it to cover the longest plausible
    // retry window. 0 = unbounded (tests).
    size_t dedup_max_entries = kDefaultDedupEntries;
    // When set, the daemon's TraceLog is exported as JSONL (proc label
    // "txlogd-<node_id>") to this path at Stop(); the offline analogue of
    // the svc.TraceDump scrape.
    std::string trace_file;
  };

  explicit LogService(Options options);
  ~LogService();
  LogService(const LogService&) = delete;
  LogService& operator=(const LogService&) = delete;

  // Opens the listener (port() valid afterwards) and loads persistent
  // state; fails if that state cannot be read. Raft stays dormant until
  // SetPeers().
  Status Start();
  // Full membership as (node_id, "host:port"); entries matching node_id are
  // skipped. Starts the election timer — call on every replica once all
  // ports are known.
  void SetPeers(std::vector<std::pair<uint64_t, std::string>> peers);
  void Stop();

  uint16_t port() const { return port_; }

  // Cross-thread-safe observers.
  bool IsLeader() const {
    return role_atomic_.load(std::memory_order_acquire) ==
           static_cast<uint8_t>(RaftCore::Role::kLeader);
  }
  uint64_t commit_index() const {
    return commit_atomic_.load(std::memory_order_acquire);
  }
  // True once a persist failed and the replica stopped.
  bool failed() const { return failed_atomic_.load(std::memory_order_acquire); }

  MetricsRegistry& metrics() { return metrics_; }
  rpc::FaultInjector& fault() { return server_->fault(); }
  // Thread-safe: TraceLog::Snapshot tolerates concurrent loop-thread
  // recording (lock-free slot versioning).
  const TraceLog& trace_log() const { return trace_; }

 private:
  // Answers a request the core has yet to answer.
  using Respond = std::function<void(rpc::Code, std::string)>;

  // --- core driver (loop thread) -------------------------------------------
  uint64_t Hold(Respond respond);
  // Applies the core's output after an input: persist (fsync), then send,
  // then answer; stops at the first failed persist. Then refreshes the
  // cross-thread mirrors.
  void Pump();
  bool Persist(const RaftCore::Output& out);
  void SendToPeer(RaftCore::Send&& send);
  void Answer(const RaftCore::Outcome& outcome);
  void FailStop(const Status& status);
  void ScheduleTick();

  // --- message handlers (loop thread) --------------------------------------
  // Decodes a request for the core; answers kBadRequest, or kShutdown once
  // halted, and returns false instead.
  template <typename Request>
  bool Accept(rpc::Server::Call& call, Request* req);
  void HandleRaftVote(rpc::Server::Call&& call);
  void HandleRaftAppendEntries(rpc::Server::Call&& call);
  void HandleClientAppend(rpc::Server::Call&& call);
  void HandleReadStream(rpc::Server::Call&& call);
  void HandleTail(rpc::Server::Call&& call);
  void HandleTrim(rpc::Server::Call&& call);
  void HandleMetricsScrape(rpc::Server::Call&& call);
  void HandleTraceDump(rpc::Server::Call&& call);

  std::string TraceProcLabel() const {
    return "txlogd-" + std::to_string(options_.node_id);
  }

  void ServeRead(const rpcwire::ReadStreamRequest& req,
                 rpc::Server::Call& call);
  void WakeLongPolls();

  // --- persistence (loop thread) -------------------------------------------
  // *rewrite: the log file holds frames to drop (a torn tail, or history
  // an interrupted trim left below the base).
  Status LoadDisk(RaftPersistentState* state, bool* rewrite);
  Status Fsync(int fd, const std::string& what);
  // Replaces `path` atomically: tmp file, fsync, rename, directory fsync.
  Status ReplaceFile(const std::string& path, const std::string& body);
  // Appends log entries [from, to] to the log file.
  Status AppendLog(uint64_t from, uint64_t to);
  Status RewriteLog();
  std::string MetaPath() const;
  std::string LogPath() const;

  Options options_;
  uint16_t port_ = 0;
  bool started_ = false;

  // Declared before raft_stats_/server_: both are constructed against this
  // registry in the member-init list.
  MetricsRegistry metrics_;
  TraceLog trace_;

  rpc::LoopThread loop_;
  std::unique_ptr<rpc::Server> server_;
  // Peer raft channels; key = peer node id.
  std::map<uint64_t, std::unique_ptr<rpc::Channel>> peer_channels_;
  rpc::RpcStats raft_stats_;

  std::unique_ptr<RaftCore> core_;
  int log_fd_ = -1;
  // The core takes no more input: a persist failed, or Stop() ran.
  bool halted_ = false;
  std::map<uint64_t, Respond> held_;
  uint64_t next_token_ = 1;
  uint64_t timer_id_ = 0;  // the next tick

  // Long-poll readers parked until commit reaches from_index.
  struct Waiter {
    uint64_t id = 0;
    rpcwire::ReadStreamRequest req;
    rpc::Server::Call call;
    uint64_t timer_id = 0;
  };
  std::map<uint64_t, Waiter> read_waiters_;
  uint64_t next_waiter_id_ = 1;

  // Cross-thread mirrors.
  std::atomic<uint8_t> role_atomic_{0};
  std::atomic<uint64_t> commit_atomic_{0};
  std::atomic<bool> failed_atomic_{false};

  // Observability: the core records the Raft instruments; these are the
  // process's own.
  Counter* fsyncs_ = nullptr;
  Counter* persist_errors_ = nullptr;
  Gauge* read_waiters_gauge_ = nullptr;
  Histogram* fsync_us_ = nullptr;
};

}  // namespace memdb::txlog

#endif  // MEMDB_TXLOG_SERVICE_H_
