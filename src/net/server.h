// RespServer: the real-socket front end for engine::Engine — the paper's
// "enhanced I/O multiplexing" layer. One event-loop thread owns an epoll
// instance, a TCP listener, and every Connection. Each loop iteration:
//
//   1. epoll_wait for readiness,
//   2. read+parse every ready connection (fanned out to io threads),
//   3. ONE batched dispatch of all decoded commands into the
//      single-threaded engine (replies encoded into per-connection
//      output buffers); the batch's writes reach the durability gate in
//      one hand-off, so they can share a log record,
//   4. release replies whose transaction-log appends committed (the
//      replication::CommitTracker decides which, in per-connection order),
//   5. flush output buffers (fanned out to io threads),
//   6. housekeeping: client-output-buffer limits (soft over time / hard
//      immediate) with slow-client eviction, EPOLLOUT arming, reaping,
//      active expiry, gauge refresh.
//
// The engine runs exclusively on the loop thread; io threads only touch
// sockets and per-connection buffers, exactly like Redis io-threads and
// the multiplexing design in the MemoryDB paper.
//
// With txlog_endpoints configured, the server becomes a durable primary
// (§3.1/§3.2): every write's effect batch is appended to the out-of-process
// transaction log through a RemoteLogGate, the client's reply is parked
// until the append commits on a majority of log replicas, and reads that
// touch a not-yet-durable key are parked behind that write. The §3.2 client
// blocking tracker itself is replication::CommitTracker; the server is its
// driver, and a connection is its owner.

#ifndef MEMDB_NET_SERVER_H_
#define MEMDB_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/trace.h"
#include "engine/engine.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/io_threads.h"
#include "net/listener.h"
#include "net/remote_log_gate.h"
#include "replication/commit_tracker.h"
#include "replication/election.h"
#include "replication/log_follower.h"
#include "replication/recovery.h"
#include "shard/migration.h"
#include "shard/slot_table.h"

namespace memdb::net {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 6379;  // 0 = kernel-assigned (tests); see RespServer::port
  int tcp_backlog = 511;
  size_t maxclients = 10000;
  // Total io threads including the loop thread (Redis io-threads semantics):
  // 1 = all socket I/O on the loop thread, N>1 spawns N-1 workers.
  int io_threads = 1;

  // Protocol guard rails applied per connection.
  resp::DecodeLimits decode;
  // Query buffer cap: a client whose unparsed input exceeds this is evicted.
  size_t input_hard_bytes = 1u << 30;

  // Client output buffer limits (Redis client-output-buffer-limit): a
  // client over the soft limit for soft_ms, or over the hard limit at all,
  // is evicted rather than allowed to stall memory.
  size_t output_soft_bytes = 8u << 20;
  uint64_t output_soft_ms = 1000;
  size_t output_hard_bytes = 32u << 20;

  // epoll_wait tick; bounds how stale housekeeping can get when idle.
  int loop_timeout_ms = 100;

  // Out-of-process transaction log (memorydb-txlogd endpoints, one per
  // simulated AZ). Empty = no durability gate: write effects are dropped
  // and replies return immediately (the pre-durable standalone server).
  std::vector<std::string> txlog_endpoints;
  uint64_t txlog_writer_id = 1;
  uint64_t txlog_rpc_timeout_ms = 300;
  uint64_t txlog_backoff_base_ms = 20;
  uint64_t txlog_backoff_cap_ms = 1000;
  // Stop() keeps the loop alive up to this long so in-flight appends can
  // commit and their parked replies can be flushed before teardown.
  uint64_t shutdown_drain_ms = 5000;

  // Primary checksum-chain injection: one kChecksum record per N data
  // appends (§7.2.1); 0 disables.
  uint64_t txlog_checksum_every = 64;
  // Primary-side txlog.Tail poll cadence for the repl_log_consumers /
  // txlog_tail_commit_index gauges; 0 disables.
  uint64_t txlog_tail_poll_ms = 1000;

  // Replica mode (§4.2.1): follow the committed log at these txlogd
  // endpoints instead of writing to one. Mutually exclusive with
  // txlog_endpoints. Writes answer -READONLY; WAIT answers 0.
  std::vector<std::string> replica_of_log;
  uint64_t replica_poll_wait_ms = 200;

  // Peer-less recovery (§4.2.1): before accepting traffic, load the latest
  // snapshot for `shard_id` from the FsObjectStore at `store_dir` and
  // replay the committed log tail past its position.
  bool restore = false;
  std::string store_dir;
  std::string shard_id = "shard-0";

  // --- automatic failover (§4.1/§4.2) -------------------------------------
  // Leader election through the log (replication::Election). The node
  // follows the log as a replica (of txlog_endpoints or replica_of_log) and,
  // once the holder has been silent for lease_duration_ms +
  // failover_grace_ms, claims the shard with one conditional kLeadership
  // append at its applied index; it then renews with kLease records through
  // its gate every lease_renew_ms, and is fenced when the gate finds a
  // foreign record in its chain. With txlog_endpoints, Start() returns once
  // this node holds the shard.
  bool failover = false;
  uint64_t lease_duration_ms = 1500;
  uint64_t lease_renew_ms = 500;
  uint64_t failover_grace_ms = 300;

  // --- cluster data plane (§5) --------------------------------------------
  // Hash-slot routing: every keyed command checks the 16384-entry slot
  // table; slots owned elsewhere answer -MOVED, slots mid-migration follow
  // the MOVED/ASK protocol. Off (default) keeps the single-shard behaviour.
  bool cluster = false;
  // Slot ranges this shard serves at bootstrap ("0-8191,9000"); empty with
  // cluster on = all 16384 slots.
  std::string cluster_slots;
  // host:port advertised in redirects and CLUSTER SLOTS; empty = bind:port.
  std::string cluster_announce;
  // Static peer directory: other shards and the slots they serve at
  // bootstrap (live migrations update the table afterwards).
  struct ClusterPeer {
    std::string shard_id;
    std::string endpoint;  // host:port
    std::string slots;     // range spec
  };
  std::vector<ClusterPeer> cluster_peers;
  // Keys per migration-channel round-trip (CLUSTER SETSLOT ... MIGRATE).
  size_t migration_batch_keys = 64;

  // --- write-path tracing + slowlog ---------------------------------------
  // 1-in-N durable writes get a trace id (0 disables tracing, 1 = every
  // write). Unsampled writes carry trace id 0, which every downstream
  // Record() ignores — sampling costs one counter increment.
  uint64_t trace_sample_rate = 1;
  // JSONL span export at Stop() (common/trace_export.h line format);
  // empty = no file export (TRACE DUMP still serves live scrapes).
  std::string trace_file;
  // proc label stamped on exported spans; empty = "server" / "replica"
  // by role.
  std::string trace_proc;
  // Durable writes whose cmd.receive -> reply.release latency is at least
  // this land in SLOWLOG (backed by the same spans). 0 = log every write.
  uint64_t slowlog_slower_than_us = 10000;
  size_t slowlog_max_len = 128;
};

// What this node currently is on the data plane. Transitions happen on the
// loop thread only, driven by MaintainFailover():
//   kReplica -> kPrimary   (its kLeadership claim landed)
//   kPrimary -> kFenced    (the gate hit a foreign record; terminal)
enum class ServerRole : uint8_t { kPrimary, kReplica, kFenced };

class RespServer : private shard::MigrationHost {
 public:
  // The server shares its metrics registry with the engine (set_metrics),
  // so one INFO/METRICS scrape covers engine and net series.
  RespServer(engine::Engine* engine, ServerConfig config);
  ~RespServer();
  RespServer(const RespServer&) = delete;
  RespServer& operator=(const RespServer&) = delete;

  // Binds, listens, and spawns the event-loop thread. After OK, port()
  // reports the bound port (meaningful when config.port == 0). When
  // txlog_endpoints is set, also starts the RemoteLogGate; with failover,
  // returns only once this node holds the shard (AwaitPrimary).
  Status Start();

  // Idempotent, thread-safe: drains in-flight log appends (bounded by
  // shutdown_drain_ms), wakes the loop, joins it, closes the listener and
  // every connection, and joins the io threads.
  void Stop();

  uint16_t port() const { return listener_.port(); }
  // Test access (loop-thread discipline applies once the loop runs).
  shard::SlotTable* slot_table() { return slot_table_.get(); }
  MetricsRegistry& metrics() { return metrics_; }
  const ServerConfig& config() const { return config_; }
  RemoteLogGate* gate() { return gate_.get(); }
  replication::LogFollower* follower() { return follower_.get(); }
  // Thread-safe: TraceLog::Snapshot tolerates concurrent recording from
  // the loop and gate threads (lock-free slot versioning).
  const TraceLog& trace_log() const { return trace_; }

 private:
  // One durable write in flight between gate.submit and reply release,
  // keyed by gate seq. Carries the spans' trace id, the stamps that back
  // the durable-ack histogram and SLOWLOG, and the (truncated) argv for
  // SLOWLOG entries.
  struct PendingWrite {
    uint64_t trace_id = 0;
    uint64_t receive_us = 0;  // cmd.receive
    uint64_t submit_us = 0;   // gate.submit
    std::vector<std::string> argv;
  };

  // SLOWLOG entry (Redis reply shape: id, unix ts, duration, argv).
  struct SlowlogEntry {
    uint64_t id = 0;
    uint64_t unix_ts = 0;      // seconds
    uint64_t duration_us = 0;  // cmd.receive -> reply.release
    std::vector<std::string> argv;
  };

  void LoopMain();
  // Startup-thread, before the listener opens: snapshot-store restore +
  // log-tail replay into the engine (§4.2.1).
  Status RestoreAtStartup(replication::RestoreResult* result);
  // Loop thread, replica mode: drain the follower and apply committed
  // entries to the engine, maintaining/verifying the checksum chain.
  void ApplyFollowerEntries(uint64_t now_ms);
  // The txlogd group this node writes to or follows.
  const std::vector<std::string>& LogEndpoints() const {
    return config_.replica_of_log.empty() ? config_.txlog_endpoints
                                          : config_.replica_of_log;
  }
  // Startup thread: with failover and txlog_endpoints, waits until the
  // election made this node the primary; OK at once otherwise.
  Status AwaitPrimary();
  // Loop thread, once per iteration when failover is on: feeds the election
  // its clock, the claim's result and the feed's state, and acts on what it
  // asks for (see ServerRole).
  void MaintainFailover();
  // Builds and starts the gate on LogEndpoints(), chained after `anchor`
  // (0 = from the tail) and seeded with the §7.2.1 chain verified through
  // applied_index. On error the server has no gate.
  Status StartGate(uint64_t anchor);
  // Loop thread: our claim landed at `leadership_index` — tear down the
  // follower, start a RemoteLogGate chained on the claim, and begin serving
  // writes as the new primary.
  void PromoteToPrimary(uint64_t leadership_index);
  // Loop thread, terminal: this primary lost the shard lease. Fail every
  // parked reply, retire the gate, answer all further writes -READONLY.
  void DemoteFenced();
  void AcceptPending();
  // Executes every pending command of every readable connection as one
  // engine batch; encodes replies into connection output buffers (or parks
  // them behind the durability gate).
  void DispatchBatch(const std::vector<Connection*>& readable,
                     uint64_t now_ms);
  void ExecutePending(Connection* c, uint64_t now_ms);
  // Feeds gate completions to the tracker and delivers the replies it
  // releases; connections that gained output are appended to *released.
  void ProcessLogCompletions(std::vector<Connection*>* released);
  // The one way a command's reply leaves ExecutePending and DispatchBatch:
  // at once when the connection has nothing parked and no key in `keys` is
  // hazarded, else parked in the tracker behind both (§3.2). Returns the
  // hazarding write's seq when a key hazard parked it, else 0.
  uint64_t Reply(Connection* c, std::string* encoded,
                 replication::KeySpan keys = {});
  void Reply(Connection* c, std::string encoded) { Reply(c, &encoded); }
  // A reply or write reply just parked: count it and publish the depth.
  void NoteParked();
  void Housekeeping(uint64_t now_ms);
  void CloseConnection(Connection* c);
  // Admin-plane commands served directly from loop state: in the
  // connection's reply order, but never behind a key hazard.
  void HandleTraceCommand(Connection* c, const std::vector<std::string>& argv);
  void HandleSlowlogCommand(Connection* c,
                            const std::vector<std::string>& argv);
  // Cluster control plane: CLUSTER SLOTS/SHARDS/MYID/KEYSLOT/SETSLOT/....
  void HandleClusterCommand(Connection* c,
                            const std::vector<std::string>& argv);
  // Hash-slot routing (§5): true when the command was fully answered here
  // (-MOVED/-ASK/-CROSSSLOT/-TRYAGAIN/-CLUSTERDOWN); false = execute
  // locally, with the first key's slot in *slot_out when it has keys (the
  // engine reuses it). `asking` is the connection's consumed one-shot
  // ASKING flag.
  bool RouteClusterCommand(Connection* c, const engine::CommandSpec* spec,
                           const std::vector<std::string>& argv, bool asking,
                           int32_t* slot_out);
  // Refresh the cluster_slots_* gauges after any slot-table change.
  void RefreshClusterGauges();

  // shard::MigrationHost (loop thread, except MigrationWakeup).
  std::vector<std::string> MigrationKeys(uint16_t slot, size_t max) override;
  bool MigrationDump(const std::string& key, uint64_t* expire_at_ms,
                     std::string* blob) override;
  uint64_t MigrationDelete(const std::vector<std::string>& keys) override;
  uint64_t MigrationSubmitOwnership(uint16_t slot, uint64_t epoch,
                                    const std::string& to_shard,
                                    const std::string& to_endpoint) override;
  void MigrationWakeup() override { loop_.Wakeup(); }
  std::string TraceProcLabel() const;
  static uint64_t NowMs();
  static uint64_t NowUs();

  engine::Engine* const engine_;
  ServerConfig config_;
  MetricsRegistry metrics_;
  engine::ServerInfo server_info_;
  TraceLog trace_;

  EventLoop loop_;
  Listener listener_;
  std::unique_ptr<IoThreadPool> pool_;
  std::unique_ptr<RemoteLogGate> gate_;
  std::unique_ptr<replication::LogFollower> follower_;
  // Non-null iff config_.failover; loop-thread state once the loop runs.
  std::unique_ptr<replication::Election> election_;
  uint64_t renew_seq_ = 0;      // the kLease renewal on the gate, or 0
  bool lease_expired_ = false;  // primary past its §4.2 validity horizon
  // Demotion parks the old gate here (its loop is stopped, but completions
  // may still be referenced); destroyed with the server.
  std::unique_ptr<RemoteLogGate> retired_gate_;
  // gate_ mutates on the loop thread after promotion/demotion; Stop()'s
  // drain loop (caller thread) reads this mirror instead.
  std::atomic<RemoteLogGate*> gate_for_drain_{nullptr};
  std::unordered_map<Connection*, std::unique_ptr<Connection>> connections_;
  uint64_t next_conn_id_ = 1;

  std::thread loop_thread_;
  // Bound by LoopMain at startup; every loop-thread-only method asserts it,
  // so touching connection/gate state off the loop aborts instead of racing.
  ThreadAffinity loop_affinity_;
  std::atomic<bool> stop_requested_{false};
  bool started_ = false;

  // --- durability-gate state (loop thread) ---------------------------------
  // Owners are connections (OwnerOf); CloseConnection forgets them.
  replication::CommitTracker tracker_;
  std::vector<replication::CommitTracker::Release> releases_;  // reused
  // Live from gate.submit until its seq completes, which is also when its
  // reply leaves the tracker.
  std::unordered_map<uint64_t, PendingWrite> pending_writes_;
  uint64_t next_trace_id_ = 1;
  TraceSampler sampler_;

  // --- slowlog (loop thread) -----------------------------------------------
  std::deque<SlowlogEntry> slowlog_;  // newest at the front
  uint64_t slowlog_next_id_ = 0;

  // --- cluster data plane (loop thread) ------------------------------------
  // Non-null iff config_.cluster; the migrator streams slots out of this
  // node and the table answers every keyed command's routing question.
  std::unique_ptr<shard::SlotTable> slot_table_;
  std::unique_ptr<shard::SlotMigrator> migrator_;
  Counter* cluster_redirects_total_ = nullptr;
  Counter* cluster_redirects_moved_ = nullptr;
  Counter* cluster_redirects_ask_ = nullptr;
  Gauge* cluster_slots_owned_ = nullptr;
  Gauge* cluster_slots_migrating_ = nullptr;
  Gauge* cluster_slots_importing_ = nullptr;

  // --- replication state (loop thread, except the restore seed written
  // once on the startup thread before the loop exists) --------------------
  // Entries drained from the follower but not yet applied: large backlogs
  // are applied in bounded chunks (one per loop iteration, with a zero poll
  // timeout while non-empty) so replay cannot starve the rest of the loop —
  // reads keep flowing and MaintainFailover keeps ticking the election.
  std::deque<txlog::LogEntry> follower_backlog_;
  // Running CRC64 over applied data payloads — a replica's follow-along
  // half of the §7.2.1 chain, verified against kChecksum records.
  uint64_t repl_running_checksum_ = 0;
  bool repl_trim_fatal_reported_ = false;
  // Data-plane role (loop thread; seeded in Start before the loop spawns).
  ServerRole role_ = ServerRole::kPrimary;
  // Mirror of tracker_.parked() for the shutdown drain (written on the loop
  // thread).
  std::atomic<uint64_t> parked_atomic_{0};

  // Instruments (all owned by metrics_, updated on the loop thread only).
  Gauge* connected_clients_;
  Gauge* blocked_clients_;
  Gauge* recent_max_input_;
  Gauge* maxclients_gauge_;
  Counter* bytes_in_;
  Counter* bytes_out_;
  Counter* accepted_;
  Counter* closed_;
  Counter* evicted_;
  Counter* rejected_;
  Counter* protocol_errors_;
  Counter* log_blocked_replies_;
  Histogram* batch_commands_;
  Histogram* durable_ack_us_;
  Gauge* repl_applied_gauge_;
  Counter* repl_entries_applied_;
  Counter* repl_bytes_applied_;
  Counter* repl_checksum_failures_;
  // Failover instruments (config_.failover only).
  struct FailoverMetrics {
    Gauge* state = nullptr;
    Counter* failovers = nullptr;
    Counter* elections = nullptr;
    Counter* renewals = nullptr;
    Counter* lease_losses = nullptr;
    Gauge* last_duration = nullptr;
    Gauge* last_detect = nullptr;
    Gauge* last_lease = nullptr;
    Gauge* last_replay = nullptr;
    Gauge* last_promote = nullptr;
  } failover_metrics_;

  // Rolling two-window high-water mark for client_recent_max_input_buffer.
  size_t input_hwm_cur_ = 0;
  size_t input_hwm_prev_ = 0;
  uint64_t input_hwm_window_start_ms_ = 0;
  uint64_t last_expire_ms_ = 0;

  // cmd_latency_us{cmd}, by CommandSpec::id; bound on first use.
  std::vector<Histogram*> latency_by_id_;
};

}  // namespace memdb::net

#endif  // MEMDB_NET_SERVER_H_
