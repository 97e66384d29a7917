// MemoryDB node: the paper's core contribution in executable form.
//
// A node embeds the in-memory execution engine (src/engine) and offloads
// durability to the shard's transaction log (src/txlog):
//
//  * Primary path (§3.1/§3.2): commands execute immediately on the engine;
//    the resulting effect stream is chunked into log records (group commit)
//    and conditionally appended. Replies are parked in the client blocking
//    tracker (replication::CommitTracker, shared with memorydb-server; each
//    request is its own owner) until the record commits to a majority of
//    AZs. Reads consult the tracker for key-level hazards: a read touching
//    a key with an unacknowledged mutation is delayed until that mutation
//    is durable.
//
//  * Replica path: tails the log, applies data records, observes lease
//    renewals (starting the backoff timer), verifies the running checksum
//    chain, and reports caught-up-ness.
//
//  * Leader election (§4.1): replication::Election, the core memorydb-server
//    runs too. Leadership is a conditional append. Only a fully caught-up
//    replica can win; stale primaries are fenced by the precondition and
//    self-demote at lease expiry.
//
//  * Recovery (§4.2.1): restore = latest snapshot from the object store +
//    log replay; purely local, no peer interaction.

#ifndef MEMDB_MEMORYDB_NODE_H_
#define MEMDB_MEMORYDB_NODE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "client/db_wire.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "engine/engine.h"
#include "engine/snapshot.h"
#include "replication/commit_tracker.h"
#include "replication/election.h"
#include "replication/log_gate.h"
#include "sim/actor.h"
#include "sim/queue_server.h"
#include "storage/object_store.h"
#include "txlog/log_client.h"

namespace memdb::memorydb {

// Version ordering for upgrade protection (§7.1): "7.1.0" > "7.0.7".
int CompareEngineVersions(const std::string& a, const std::string& b);

struct NodeConfig {
  std::string shard_id = "shard-0";
  std::vector<sim::NodeId> log_replicas;
  sim::NodeId object_store = sim::kInvalidNode;
  // Claim leadership at startup (cluster bootstrap path).
  bool bootstrap_as_primary = false;

  // Lease machinery (§4.1.3). Must satisfy renew < lease < backoff, the
  // rule replication::Election::Check enforces.
  sim::Duration lease_duration = 400 * sim::kMs;
  sim::Duration lease_renew_interval = 100 * sim::kMs;
  sim::Duration backoff_duration = 650 * sim::kMs;

  sim::Duration replica_poll_interval = 10 * sim::kMs;
  sim::Duration active_expire_interval = 100 * sim::kMs;

  // Inject a running-checksum record every N data records (§7.2.1).
  uint64_t checksum_every = 64;

  std::string engine_version = "7.0.7";
  uint64_t maxmemory_bytes = 0;
  // Under maxmemory pressure the (simulated) primary evicts per this
  // policy; victims replicate as DEL effects exactly like expiry (§2.1).
  engine::EvictionPolicy eviction_policy = engine::EvictionPolicy::kNoEviction;
  int eviction_samples = 5;

  // CPU cost model (per command), nanoseconds.
  int io_threads = 4;
  uint64_t io_op_cost_ns = 1000;
  uint64_t engine_read_cost_ns = 1900;
  uint64_t engine_write_cost_ns = 5200;
};

class Node : public sim::Actor {
 public:
  enum class DbRole { kReplica, kPrimary, kRecovering };

  Node(sim::Simulation* sim, sim::NodeId id, NodeConfig config);

  void OnRestart() override;

  DbRole db_role() const { return role_; }
  bool IsPrimary() const { return role_ == DbRole::kPrimary; }
  uint64_t applied_index() const { return applied_index_; }
  bool caught_up() const { return applied_index_ >= commit_seen_; }
  sim::NodeId known_primary() const { return known_primary_; }
  bool checksum_violation() const { return checksum_violation_; }
  engine::Engine& engine() { return engine_; }
  const NodeConfig& config() const { return config_; }

  // Counters for tests/benches.
  struct Stats {
    uint64_t commands = 0;
    uint64_t writes = 0;
    uint64_t reads_deferred_by_tracker = 0;
    uint64_t records_appended = 0;
    uint64_t demotions = 0;
    uint64_t promotions = 0;
    uint64_t recoveries = 0;
  };
  const Stats& stats() const { return stats_; }

  // Observability. The registry is shared with the embedded engine (so INFO
  // Commandstats/Latencystats and METRICS cover both layers) and scraped by
  // the monitoring service via the `db.metrics` RPC. The trace log records
  // the write-path stages this node executes; merge it with the log
  // replicas' trace logs (TraceLog::Reconstruct) to follow one write end to
  // end.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  const TraceLog& trace_log() const { return trace_; }

  // Voluntarily stop renewing the lease and demote once it lapses; replicas
  // that apply the release claim at once (§5.2 handover).
  void StepDown();

  // ---- cluster slots (§5.2) ----------------------------------------------
  // Every slot defaults to kOwned (single-shard deployments own the whole
  // keyspace); multi-shard clusters configure ownership at provisioning and
  // adjust it through the migration protocol.
  enum class SlotState : uint8_t {
    kOwned,
    kNotOwned,
    kMigrating,  // source side: serving, streaming to `peer`, ASK misses
    kImporting,  // target side: accepting transferred data + writes
    kBlocked,    // source side: ownership handshake in progress (§5.2)
  };
  void SetSlotState(uint16_t slot, SlotState state,
                    sim::NodeId peer = sim::kInvalidNode);
  SlotState slot_state(uint16_t slot) const;

 private:
  // Per-request trace context, allocated at command receipt and carried to
  // the final reply so per-family latency and span logs line up.
  struct ReqTrace {
    uint64_t id = 0;
    sim::Time received_at = 0;
    std::string family;  // uppercase command name ("SET", "MULTI", ...)
  };
  // A request whose reply the tracker holds, keyed by its tracker owner.
  struct Waiting {
    sim::Message request;
    ReqTrace trace;
  };
  // ---- request plumbing ---------------------------------------------------
  void HandleCommand(const sim::Message& m);
  void HandleMulti(const sim::Message& m);
  void ExecuteOnPrimary(const sim::Message& m,
                        const std::vector<engine::Argv>& commands,
                        bool multi, const ReqTrace& rt);
  void ExecuteReadOnReplica(const sim::Message& m, const engine::Argv& argv,
                            const ReqTrace& rt);
  void ReplyValue(const sim::Message& m, const resp::Value& v);
  // Records the final span + per-family latency, then replies.
  void FinishCommand(const sim::Message& m, const ReqTrace& rt,
                     const std::string& encoded, const char* stage);

  // ---- observability ------------------------------------------------------
  uint64_t NewTraceId() { return (uint64_t{id()} << 32) | next_trace_id_++; }
  Histogram* FamilyHistogram(const std::string& family);
  void SyncDepthGauges();
  void SyncRoleInfo();
  engine::ExecContext MakeContext(engine::Role role);

  // ---- tracker (§3.2) -----------------------------------------------------
  // Registers a request whose reply the tracker will hold; returns its
  // owner id.
  uint64_t AwaitReply(const sim::Message& m, const ReqTrace& rt);
  // Every record up to `batch_seq` committed: deliver what the tracker
  // releases.
  void ReleaseCommitted(uint64_t batch_seq);

  // ---- write-behind gate (replication::LogGate) ---------------------------
  // Queues one record under `seq` (a fresh next_batch_seq_) and issues what
  // the gate allows. Primary only.
  void SubmitToGate(uint64_t seq, txlog::RecordType type, std::string payload,
                    uint64_t trace_id = 0);
  // Acts on everything the gate asks for after an input; a failed
  // completion or a fence demotes.
  void DriveGate();
  void IssueRead(replication::LogGate::Read read);

  // ---- roles --------------------------------------------------------------
  void BecomePrimary(uint64_t leadership_index);
  void Demote(const std::string& reason);
  // The entry at open_index_ is known: OK the open record's seqs if it is
  // that record, then fail every reply still parked.
  void SettleOpenRecord(bool landed);
  void FailParked();
  // Ticks the election (every 50 ms, and on becoming primary) and acts on
  // what it asks for: a claim, a renewal, or a demotion at the horizon.
  void TickElection();
  void Claim(replication::Election::Claim claim);

  // ---- replica ------------------------------------------------------------
  void PollLog();
  // Applies one entry; returns the number of effect commands applied (the
  // replay CPU cost driver).
  size_t ApplyEntry(const txlog::LogEntry& entry);

  // ---- recovery -----------------------------------------------------------
  void StartRecovery();
  void FinishRecovery();
  void StartLoops();

  // ---- slot migration (node_slots.cc) --------------------------------------
  struct SlotInfo {
    SlotState state = SlotState::kOwned;
    sim::NodeId peer = sim::kInvalidNode;
    bool stream_done = false;
  };
  void RegisterSlotHandlers();
  // Validates slot ownership / cross-slot rules for a command batch; fills
  // *keys; returns an error Value (MOVED/ASK/TRYAGAIN/CROSSSLOT) or Null.
  resp::Value CheckSlotAccess(const std::vector<engine::Argv>& commands,
                              bool has_write, std::vector<std::string>* keys,
                              uint16_t* slot_out);
  // Applies effects locally and appends them to the log (import path).
  void ApplyAndReplicate(const std::vector<engine::Argv>& effects);
  void StreamMigratingSlot(uint16_t slot);
  void PumpMigrationQueue(uint16_t slot);
  void ForwardEffects(uint16_t slot, const std::vector<engine::Argv>& effects);
  void HandleSlotOwnership(const sim::Message& m);
  void WaitForDrainThenReply(const sim::Message& m, uint16_t slot);
  void ApplySlotOwnershipRecord(const txlog::LogRecord& record);
  void BackgroundDeleteSlot(uint16_t slot);

  std::map<uint16_t, SlotInfo> slots_;
  // Per-slot FIFO of migration messages (dumps + forwarded effects); one
  // outstanding RPC at a time preserves ordering.
  std::map<uint16_t, std::deque<std::pair<std::string, std::string>>>
      migration_queue_;
  std::map<uint16_t, bool> migration_rpc_inflight_;

  NodeConfig config_;
  engine::Engine engine_;
  txlog::LogClient log_;
  storage::StorageClient s3_;
  sim::QueueServer io_pool_;
  sim::QueueServer workloop_;

  DbRole role_ = DbRole::kReplica;
  sim::NodeId known_primary_ = sim::kInvalidNode;

  // Log position: the last applied entry (replica) or own record (primary),
  // and the last commit index a poll reported (the max until one did).
  uint64_t applied_index_ = 0;
  uint64_t commit_seen_ = UINT64_MAX;
  bool poll_in_flight_ = false;
  bool version_blocked_ = false;  // saw a stream from a newer engine (§7.1)

  // Replica: running checksum over data-record payloads, and verification
  // state.
  uint64_t running_checksum_ = 0;
  bool checksum_violation_ = false;

  // Primary: the write-behind gate, chained from the kLeadership record.
  std::unique_ptr<replication::LogGate> gate_;
  uint64_t next_batch_seq_ = 1;
  sim::Time append_issued_at_ = 0;  // the append in flight
  uint64_t sent_place_ = 0;  // where the last append sent would land
  uint64_t append_trace_id_ = 0;
  uint64_t lease_seq_ = 0;    // the lease renewal on the gate, or 0
  sim::Time lease_enqueued_at_ = 0;
  uint64_t release_seq_ = 0;  // the lease release on the gate, or 0
  // The record a demotion left in flight may still land at open_index_
  // (its request id; 0 = none): replies for seqs up to open_through_ wait
  // for the entry there, and so does every reply parked behind them.
  uint64_t open_index_ = 0;
  uint64_t open_through_ = 0;
  std::string parked_error_;  // what the demotion fails them with

  // The client blocking tracker: key hazards by batch_seq, and every reply
  // parked until its record commits.
  replication::CommitTracker tracker_;
  std::vector<replication::CommitTracker::Release> releases_;  // reused
  std::unordered_map<uint64_t, Waiting> waiting_;  // by tracker owner
  uint64_t next_owner_ = 1;

  // The §4.1 election: renewals and the horizon while primary, the backoff
  // and the claim while a replica.
  replication::Election election_;
  bool stepping_down_ = false;

  Stats stats_;
  uint64_t epoch_ = 0;  // bumped on role change; stale callbacks check it
  // Sub-microsecond cost accumulation (the scheduler's tick is 1 us).
  uint64_t engine_cost_carry_ns_ = 0;
  uint64_t io_cost_carry_ns_ = 0;

  // ---- observability state ------------------------------------------------
  MetricsRegistry metrics_;
  TraceLog trace_;
  engine::ServerInfo server_info_;
  uint64_t next_trace_id_ = 1;
  sim::Time campaign_started_at_ = 0;
  std::map<std::string, Histogram*> family_hists_;  // cmd_latency_us{cmd=}
  Histogram* write_commit_hist_ = nullptr;  // receive -> durable ack
  Histogram* append_hist_ = nullptr;        // append issue -> ack
  Histogram* lease_renew_hist_ = nullptr;
  Histogram* election_hist_ = nullptr;      // campaign -> promoted
  Gauge* pipeline_depth_gauge_ = nullptr;
  Gauge* tracker_keys_gauge_ = nullptr;
  Gauge* deferred_reads_gauge_ = nullptr;
  Gauge* role_gauge_ = nullptr;
  Counter* reads_deferred_counter_ = nullptr;
  Counter* records_appended_counter_ = nullptr;
};

}  // namespace memdb::memorydb

#endif  // MEMDB_MEMORYDB_NODE_H_
