#include "net/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string_view>
#include <thread>

#include "common/coding.h"
#include "common/crc.h"
#include "common/trace_export.h"
#include "engine/snapshot.h"
#include "replication/snapshot_store.h"
#include "shard/slot_wire.h"
#include "storage/fs_object_store.h"

namespace memdb::net {

namespace {
// Rolling window for the client_recent_max_input_buffer gauge.
constexpr uint64_t kInputHwmWindowMs = 5000;
// Active-expiry cadence and per-cycle victim cap (Redis-like).
constexpr uint64_t kExpireEveryMs = 100;
constexpr size_t kExpirePerCycle = 20;
// Follower entries applied per loop iteration. Bounds how long replay can
// occupy the loop in one go: promotion-scale backlogs apply across many
// iterations (with a zero poll timeout) instead of one monolithic stall
// that would starve reads and lease upkeep (ROADMAP 2a).
constexpr size_t kFollowerApplyChunk = 4096;
// How long Start() waits for a failover node given txlog_endpoints to win
// the shard: a live holder's lease legitimately delays it.
constexpr uint64_t kAwaitPrimaryMs = 30000;

// The election's clock: steady, unlike the wall-clock NowMs that TTLs use.
uint64_t SteadyMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Random hex run id (INFO # Server), fresh per process start.
std::string MakeRunId() {
  std::random_device rd;
  static const char kHex[] = "0123456789abcdef";
  std::string id;
  id.reserve(32);
  for (int i = 0; i < 8; ++i) {
    uint32_t w = rd();
    for (int j = 0; j < 4; ++j) {
      id.push_back(kHex[w & 0xF]);
      w >>= 4;
    }
  }
  return id;
}

// SLOWLOG keeps a bounded copy of the command: at most 8 args, each capped
// at 64 bytes (the Redis convention, minus the "... (N more)" marker).
std::vector<std::string> SlowlogArgv(const std::vector<std::string>& argv) {
  std::vector<std::string> out;
  const size_t n = std::min<size_t>(argv.size(), 8);
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(argv[i].size() <= 64 ? argv[i]
                                       : argv[i].substr(0, 61) + "...");
  }
  return out;
}

// Tracker owners are connections, named by address: CloseConnection
// forgets the owner before the Connection is freed.
uint64_t OwnerOf(const Connection* c) {
  return static_cast<uint64_t>(reinterpret_cast<uintptr_t>(c));
}
Connection* ConnectionOf(uint64_t owner) {
  return reinterpret_cast<Connection*>(static_cast<uintptr_t>(owner));
}

// Whether argv names the server-handled command `upper` (none of them is an
// engine command), compared case-insensitively without a copy.
bool IsCommand(const std::vector<std::string>& argv, std::string_view upper) {
  if (argv.empty() || argv[0].size() != upper.size()) return false;
  for (size_t i = 0; i < upper.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(argv[0][i])) != upper[i]) {
      return false;
    }
  }
  return true;
}

// The keys a command reads, per its spec's Redis key positions, as a span
// over argv itself.
replication::KeySpan CommandKeySpan(const engine::CommandSpec* spec,
                                    const std::vector<std::string>& argv) {
  if (spec == nullptr || spec->first_key <= 0 || spec->key_step <= 0) {
    return {};
  }
  const int argc = static_cast<int>(argv.size());
  int last = spec->last_key >= 0 ? spec->last_key : argc + spec->last_key;
  if (last >= argc) last = argc - 1;
  if (last < spec->first_key) return {};
  return {&argv[static_cast<size_t>(spec->first_key)],
          static_cast<size_t>((last - spec->first_key) / spec->key_step + 1),
          static_cast<size_t>(spec->key_step)};
}
}  // namespace

#ifndef MEMDB_BUILD_SHA
#define MEMDB_BUILD_SHA "unknown"
#endif

RespServer::RespServer(engine::Engine* engine, ServerConfig config)
    : engine_(engine),
      config_(std::move(config)),
      sampler_(config_.trace_sample_rate) {
  engine_->set_metrics(&metrics_);
  server_info_.pid = static_cast<uint64_t>(::getpid());
  server_info_.run_id = MakeRunId();
  server_info_.start_unix_ms = NowMs();
  server_info_.build_sha = MEMDB_BUILD_SHA;
  connected_clients_ = metrics_.GetGauge("net_connected_clients");
  blocked_clients_ = metrics_.GetGauge("net_blocked_clients");
  recent_max_input_ =
      metrics_.GetGauge("net_client_recent_max_input_buffer");
  maxclients_gauge_ = metrics_.GetGauge("net_maxclients");
  maxclients_gauge_->Set(static_cast<int64_t>(config_.maxclients));
  bytes_in_ = metrics_.GetCounter("net_input_bytes_total");
  bytes_out_ = metrics_.GetCounter("net_output_bytes_total");
  accepted_ = metrics_.GetCounter("net_connections_accepted_total");
  closed_ = metrics_.GetCounter("net_connections_closed_total");
  evicted_ = metrics_.GetCounter("net_evicted_clients_total");
  rejected_ = metrics_.GetCounter("net_rejected_connections_total");
  protocol_errors_ = metrics_.GetCounter("net_protocol_errors_total");
  log_blocked_replies_ = metrics_.GetCounter("txlog_blocked_replies_total");
  batch_commands_ = metrics_.GetHistogram("net_batch_commands");
  durable_ack_us_ = metrics_.GetHistogram("txlog_durable_ack_us");
  repl_applied_gauge_ = metrics_.GetGauge("repl_applied_index");
  repl_entries_applied_ = metrics_.GetCounter("repl_entries_applied_total");
  repl_bytes_applied_ = metrics_.GetCounter("repl_bytes_applied_total");
  repl_checksum_failures_ =
      metrics_.GetCounter("repl_checksum_failures_total");
  if (!config_.replica_of_log.empty() || config_.failover) {
    server_info_.role = "replica";
  }
  if (config_.failover) {
    FailoverMetrics& m = failover_metrics_;
    metrics_.SetHelp("failover_state",
                     "Election state (0=none 2=holding 3=monitoring "
                     "4=electing 6=fenced)");
    m.state = metrics_.GetGauge("failover_state");
    metrics_.SetHelp("failovers_total",
                     "Claims this node won and was promoted by");
    m.failovers = metrics_.GetCounter("failovers_total");
    m.elections = metrics_.GetCounter("failover_elections_total");
    m.renewals = metrics_.GetCounter("failover_lease_renewals_total");
    m.lease_losses = metrics_.GetCounter("failover_lease_losses_total");
    metrics_.SetHelp("failover_last_duration_ms",
                     "Last promotion: holder last seen alive to serving "
                     "writes");
    m.last_duration = metrics_.GetGauge("failover_last_duration_ms");
    metrics_.SetHelp("failover_last_detect_ms",
                     "Last promotion: holder last seen alive to the "
                     "deadline passing");
    m.last_detect = metrics_.GetGauge("failover_last_detect_ms");
    metrics_.SetHelp("failover_last_lease_ms",
                     "Last promotion: the kLeadership claim's round trip");
    m.last_lease = metrics_.GetGauge("failover_last_lease_ms");
    metrics_.SetHelp("failover_last_replay_ms",
                     "Last promotion: the deadline passing to caught up");
    m.last_replay = metrics_.GetGauge("failover_last_replay_ms");
    metrics_.SetHelp("failover_last_promote_ms",
                     "Last promotion: follower teardown + gate start");
    m.last_promote = metrics_.GetGauge("failover_last_promote_ms");
  }
  server_info_.shard_id = config_.shard_id;
  if (config_.cluster) {
    server_info_.cluster_enabled = true;
    metrics_.SetHelp("cluster_enabled", "1 when hash-slot routing is active");
    metrics_.GetGauge("cluster_enabled")->Set(1);
    metrics_.SetHelp("cluster_slots_owned",
                     "Hash slots this shard currently serves");
    cluster_slots_owned_ = metrics_.GetGauge("cluster_slots_owned");
    metrics_.SetHelp("cluster_slots_migrating",
                     "Slots streaming out to an importing peer");
    cluster_slots_migrating_ = metrics_.GetGauge("cluster_slots_migrating");
    metrics_.SetHelp("cluster_slots_importing",
                     "Slots streaming in from their current owner");
    cluster_slots_importing_ = metrics_.GetGauge("cluster_slots_importing");
    metrics_.SetHelp("cluster_redirects_total",
                     "Keyed commands answered with -MOVED or -ASK");
    cluster_redirects_total_ = metrics_.GetCounter("cluster_redirects_total");
    cluster_redirects_moved_ =
        metrics_.GetCounter("cluster_redirects_total", {{"kind", "moved"}});
    cluster_redirects_ask_ =
        metrics_.GetCounter("cluster_redirects_total", {{"kind", "ask"}});
  }
}

// lint:off-loop -- teardown runs on the embedding thread.
RespServer::~RespServer() { Stop(); }

uint64_t RespServer::NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

uint64_t RespServer::NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// lint:off-loop -- startup runs on the embedding thread; the PostSync
// rendezvous starts the loop-affine gate and follower on the loop.
Status RespServer::Start() {
  if (!config_.replica_of_log.empty() && !config_.txlog_endpoints.empty()) {
    return Status::InvalidArgument(
        "replica_of_log and txlog_endpoints are mutually exclusive");
  }
  if (config_.failover) {
    if (LogEndpoints().empty()) {
      return Status::InvalidArgument(
          "failover requires txlog_endpoints or replica_of_log");
    }
    replication::Election::Options eo;
    eo.writer_id = config_.txlog_writer_id;
    eo.lease = config_.lease_duration_ms;
    eo.renew = config_.lease_renew_ms;
    eo.backoff = config_.lease_duration_ms + config_.failover_grace_ms;
    MEMDB_RETURN_IF_ERROR(replication::Election::Check(eo));
    election_ = std::make_unique<replication::Election>(eo);
  }
  if (config_.restore) {
    if (config_.store_dir.empty()) {
      return Status::InvalidArgument("restore requires store_dir");
    }
    replication::RestoreResult rr;
    MEMDB_RETURN_IF_ERROR(RestoreAtStartup(&rr));
    server_info_.applied_index = rr.applied_index;
    repl_running_checksum_ = rr.running_checksum;
    repl_applied_gauge_->Set(static_cast<int64_t>(rr.applied_index));
    std::fprintf(
        stderr,
        "memorydb-server: restored snapshot position %llu, replayed %llu "
        "log entries (%llu checksum records verified), applied index %llu\n",
        static_cast<unsigned long long>(rr.snapshot_position),
        static_cast<unsigned long long>(rr.entries_replayed),
        static_cast<unsigned long long>(rr.checksum_records_verified),
        static_cast<unsigned long long>(rr.applied_index));
  }
  // A failover node starts as a log-fed replica and wins the shard through
  // the log (§4.1); any other node with txlog_endpoints is the primary now.
  role_ = config_.replica_of_log.empty() && !config_.failover
              ? ServerRole::kPrimary
              : ServerRole::kReplica;
  if (role_ == ServerRole::kReplica) {
    replication::LogFollower::Options fopt;
    fopt.endpoints = LogEndpoints();
    fopt.start_index = server_info_.applied_index + 1;
    fopt.poll_wait_ms = config_.replica_poll_wait_ms;
    fopt.rpc_timeout_ms = config_.txlog_rpc_timeout_ms;
    follower_ =
        std::make_unique<replication::LogFollower>(std::move(fopt), &metrics_);
  }
  if (election_ != nullptr) {
    // The bootstrap rule: a node meant to be the primary claims without a
    // backoff while no lease record was ever seen — but only when it reads
    // the log from its first index. A restored snapshot may hide a live
    // holder's records, so a restored node waits one backoff.
    election_->Monitor(SteadyMs(), !config_.txlog_endpoints.empty() &&
                                       server_info_.applied_index == 0);
  }
  MEMDB_RETURN_IF_ERROR(listener_.Open(config_.bind_address, config_.port,
                                       config_.tcp_backlog));
  if (config_.cluster) {
    // After the listener opens so a kernel-assigned port can be announced.
    const std::string announce =
        !config_.cluster_announce.empty()
            ? config_.cluster_announce
            : config_.bind_address + ":" + std::to_string(listener_.port());
    slot_table_ = std::make_unique<shard::SlotTable>();
    slot_table_->Init(config_.shard_id, announce);
    std::vector<uint16_t> slots;
    MEMDB_RETURN_IF_ERROR(shard::ParseSlotRanges(
        config_.cluster_slots.empty() ? "0-16383" : config_.cluster_slots,
        &slots));
    slot_table_->AssignLocal(slots);
    for (const ServerConfig::ClusterPeer& peer : config_.cluster_peers) {
      std::vector<uint16_t> peer_slots;
      MEMDB_RETURN_IF_ERROR(
          shard::ParseSlotRanges(peer.slots, &peer_slots));
      slot_table_->AssignRemote(peer_slots, peer.shard_id, peer.endpoint);
    }
    shard::SlotMigrator::Options mopt;
    mopt.batch_keys = config_.migration_batch_keys;
    migrator_ = std::make_unique<shard::SlotMigrator>(
        mopt, slot_table_.get(), static_cast<shard::MigrationHost*>(this),
        &metrics_);
    RefreshClusterGauges();
  }
  const int extra = config_.io_threads > 1 ? config_.io_threads - 1 : 0;
  pool_ = std::make_unique<IoThreadPool>(extra);
  input_hwm_window_start_ms_ = NowMs();
  listener_handler_.on_ready = [this](uint32_t) { accept_ready_ = true; };
  MEMDB_RETURN_IF_ERROR(loop_.Start("memdb-loop", [this] { return Step(); }));
  started_ = true;
  // The gate, the follower and their channels live on the loop, so they
  // start there; the loop's steps meanwhile see a follower that has not
  // fed yet and no gate.
  Status started;
  loop_.PostSync([this, &started] {
    if (role_ == ServerRole::kPrimary && !config_.txlog_endpoints.empty()) {
      started = StartGate(/*anchor=*/0);
    } else if (follower_ != nullptr) {
      started = follower_->Start([this] { loop_.Wakeup(); });
    }
  });
  if (!started.ok()) {
    Stop();
    return started;
  }
  // The loop replays the log and runs the election; clients that connect
  // meanwhile wait in the listen backlog.
  MEMDB_RETURN_IF_ERROR(AwaitPrimary());
  Status listening;
  loop_.PostSync([this, &listening] {
    listening = loop_.Watch(listener_.fd(), kReadable, &listener_handler_);
  });
  if (!listening.ok()) Stop();
  MEMDB_RETURN_IF_ERROR(listening);
  return Status::OK();
}

// lint:off-loop -- runs on the startup thread (Start), never on the loop;
// the poll quantum bounds startup latency only.
Status RespServer::AwaitPrimary() {
  if (election_ == nullptr || config_.txlog_endpoints.empty()) {
    return Status::OK();
  }
  // The gate exists from promotion on; a fenced node retires it for good.
  const uint64_t deadline = NowMs() + kAwaitPrimaryMs;
  while (gate_for_drain_.load(std::memory_order_acquire) == nullptr) {
    if (NowMs() >= deadline) {
      Stop();
      return Status::TimedOut("could not win the shard lease");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return Status::OK();
}

// lint:off-loop -- teardown runs on the embedding thread; the PostSync
// rendezvous stops the loop-affine gates on the loop.
void RespServer::Stop() {
  if (!started_) return;
  // gate_ itself mutates on the loop thread (promotion/demotion); the
  // atomic mirror is the only safe cross-thread view of it.
  RemoteLogGate* drain_gate =
      gate_for_drain_.load(std::memory_order_acquire);
  if (drain_gate != nullptr) {
    // Drain: leave the loop running until every in-flight append completed
    // and every parked reply was released (or the deadline passes — e.g.
    // the log group lost its quorum).
    const uint64_t deadline = NowMs() + config_.shutdown_drain_ms;
    while ((drain_gate->inflight() > 0 ||
            parked_atomic_.load(std::memory_order_acquire) > 0) &&
           NowMs() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  // The gate's channels close on the loop, while it still runs.
  loop_.PostSync([this] {
    if (gate_ != nullptr) gate_->Stop();
  });
  loop_.Stop();
  started_ = false;
  // The loop has exited; joining the migration channel worker is safe.
  if (migrator_ != nullptr) migrator_->Shutdown();
  if (follower_ != nullptr) follower_->Stop();
  // The loop has exited: tear down every connection and the accept socket.
  for (auto& [ptr, owned] : connections_) owned->Close();
  connections_.clear();
  listener_.Close();
  pool_.reset();  // joins io threads
  connected_clients_->Set(0);
  if (!config_.trace_file.empty()) {
    // The loop is gone, so the span ring is quiescent; export every
    // surviving span for offline merging (tools/memorydb-trace).
    const std::string jsonl = ExportSpansJsonl(trace_, TraceProcLabel());
    std::FILE* f = std::fopen(config_.trace_file.c_str(), "w");
    if (f != nullptr) {
      std::fwrite(jsonl.data(), 1, jsonl.size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "memorydb-server: cannot write trace file %s\n",
                   config_.trace_file.c_str());
    }
  }
}

Status RespServer::RestoreAtStartup(replication::RestoreResult* result) {
  // Startup thread; the loop thread does not exist yet, so driving the
  // engine and blocking on *Sync client calls here is safe.
  storage::FsObjectStore store(config_.store_dir);
  MEMDB_RETURN_IF_ERROR(store.Open());
  replication::SnapshotStore snapshots(&store, config_.shard_id);
  MEMDB_RETURN_IF_ERROR(
      replication::RestoreFromStore(&snapshots, engine_, result));
  const std::vector<std::string>& endpoints = LogEndpoints();
  if (endpoints.empty()) return Status::OK();  // snapshot-only restore
  // Replay the committed tail through a temporary client; the long-lived
  // follower/gate machinery starts after the engine is caught up.
  rpc::LoopThread loop;
  MEMDB_RETURN_IF_ERROR(loop.Start("log-restore"));
  Status replayed;
  {
    txlog::RemoteClient::Options copt;
    copt.rpc_timeout_ms = config_.txlog_rpc_timeout_ms;
    txlog::RemoteClient client(&loop, endpoints, copt, nullptr);
    replayed = replication::ReplayLogTail(&client, engine_, result,
                                          /*target_tail=*/0);
    client.Shutdown();
  }
  loop.Stop();
  return replayed;
}

void RespServer::ApplyFollowerEntries(uint64_t now_ms) {
  loop_.AssertOnLoopThread();
  if (follower_ == nullptr) return;
  if (follower_->log_trimmed() && !repl_trim_fatal_reported_) {
    repl_trim_fatal_reported_ = true;
    std::fprintf(stderr,
                 "memorydb-server: transaction log trimmed past applied "
                 "index %llu; restart with --restore to reseed from the "
                 "snapshot store\n",
                 static_cast<unsigned long long>(server_info_.applied_index));
  }
  {
    std::vector<txlog::LogEntry> drained = follower_->DrainEntries();
    for (txlog::LogEntry& e : drained) {
      follower_backlog_.push_back(std::move(e));
    }
  }
  if (follower_backlog_.empty()) return;
  // Apply a bounded chunk per iteration: a large backlog must not occupy the
  // loop long enough to starve reads or MaintainFailover — LoopMain polls
  // with a zero timeout while the backlog is non-empty, so replay
  // throughput is unchanged.
  std::vector<txlog::LogEntry> entries;
  const size_t chunk =
      std::min(follower_backlog_.size(), kFollowerApplyChunk);
  entries.reserve(chunk);
  for (size_t i = 0; i < chunk; ++i) {
    entries.push_back(std::move(follower_backlog_.front()));
    follower_backlog_.pop_front();
  }
  uint64_t bytes = 0;
  const uint64_t steady_ms = SteadyMs();
  for (const txlog::LogEntry& e : entries) {
    // A rejected entry is counted, and the replica keeps applying.
    const Status replayed = replication::ReplayEntry(
        e, now_ms, engine_, &repl_running_checksum_);
    if (!replayed.ok()) {
      repl_checksum_failures_->Increment();
      std::fprintf(stderr, "memorydb-server: replica replay: %s\n",
                   replayed.ToString().c_str());
    }
    if (e.record.type == txlog::RecordType::kData) {
      bytes += e.record.payload.size();
      // The primary's trace id rides the log record: a replica's apply spans
      // join the same cross-process chain when trace files are merged.
      trace_.Record(e.record.trace_id, "replica.apply", NowUs(), e.index);
    } else if ((e.record.type == txlog::RecordType::kLease ||
                e.record.type == txlog::RecordType::kLeadership) &&
               election_ != nullptr) {
      // The holder's claim and renewals are its liveness, riding the data
      // plane (§4.1): each pushes the monitor's deadline out.
      election_->OnLeaseRecord(steady_ms, e.record.writer,
                               e.record.payload == "release");
    } else if (e.record.type == txlog::RecordType::kSlotOwnership &&
               slot_table_ != nullptr) {
      // A committed slot flip (§5). Epoch-guarded, so replay after restart
      // or out-of-order observation cannot roll the table backwards. Slot
      // records ride outside the §7.2.1 data checksum chain.
      shard::SlotOwnershipRecord rec;
      if (shard::SlotOwnershipRecord::Decode(Slice(e.record.payload), &rec)) {
        slot_table_->ApplyOwnership(rec.slot, rec.epoch, rec.to_shard,
                                    rec.to_endpoint);
        RefreshClusterGauges();
      }
    }
    server_info_.applied_index = e.index;
  }
  repl_entries_applied_->Increment(entries.size());
  repl_bytes_applied_->Increment(bytes);
  repl_applied_gauge_->Set(static_cast<int64_t>(server_info_.applied_index));
  follower_->NoteApplied(server_info_.applied_index);
}

void RespServer::MaintainFailover() {
  loop_.AssertOnLoopThread();
  if (election_ == nullptr) return;
  const uint64_t now = SteadyMs();
  if (role_ == ServerRole::kReplica) {
    if (std::optional<replication::LogFollower::AppendResult> claim =
            follower_->TakeAppendResult()) {
      election_->OnClaim(now, claim->status.ok());
      if (claim->status.ok()) {
        PromoteToPrimary(claim->index);
      } else {
        std::fprintf(stderr, "memorydb-server: leadership claim failed: %s\n",
                     claim->status.ToString().c_str());
      }
    }
  } else if (role_ == ServerRole::kPrimary && gate_->fenced()) {
    DemoteFenced();
  }
  replication::Election::Feed feed;
  if (follower_ != nullptr) {
    feed.applied = server_info_.applied_index;
    if (follower_->fed()) feed.commit = follower_->last_commit_index();
    feed.trimmed = follower_->log_trimmed();
    feed.diverged = repl_checksum_failures_->value() > 0;
  }
  replication::Election::Output out = election_->Tick(now, feed);
  // §4.2: past the horizon this node may no longer serve linearizable
  // reads; a late renewal alone does not make it terminal.
  lease_expired_ = out.expired;
  if (out.claim) {
    failover_metrics_.elections->Increment();
    follower_->Append(out.claim->prev_index, std::move(out.claim->record));
  }
  if (out.renew) {
    renew_seq_ = gate_->SubmitTyped(txlog::RecordType::kLease, "",
                                    /*trace_id=*/0);
  }
  failover_metrics_.state->Set(static_cast<int64_t>(election_->state()));
}

Status RespServer::StartGate(uint64_t anchor) {
  RemoteLogGate::Options gopt;
  gopt.endpoints = LogEndpoints();
  gopt.writer_id = config_.txlog_writer_id;
  gopt.rpc_timeout_ms = config_.txlog_rpc_timeout_ms;
  gopt.backoff_base_ms = config_.txlog_backoff_base_ms;
  gopt.backoff_cap_ms = config_.txlog_backoff_cap_ms;
  gopt.trace = &trace_;
  gopt.checksum_every = config_.txlog_checksum_every;
  gopt.checksum_seed = repl_running_checksum_;
  gopt.tail_poll_ms = config_.txlog_tail_poll_ms;
  loop_.AssertOnLoopThread();
  gate_ = std::make_unique<RemoteLogGate>(&loop_, std::move(gopt), &metrics_);
  const Status st = gate_->Start(
      [this](const RemoteLogGate::Completion& c) { gate_done_.push_back(c); },
      anchor);
  if (!st.ok()) {
    gate_.reset();
    return st;
  }
  // Published only once started: AwaitPrimary reads it as "promoted".
  gate_for_drain_.store(gate_.get(), std::memory_order_release);
  return st;
}

void RespServer::PromoteToPrimary(uint64_t leadership_index) {
  loop_.AssertOnLoopThread();
  // The claim landed right after the applied index, so nothing committed
  // sits in between: the undrained feed holds at most the claim itself.
  // lint:allow-blocking — Stop joins the follower's loop thread; promotion
  // is a once-per-failover event and the stall is part of measured MTTR.
  follower_->Stop();
  follower_.reset();
  follower_backlog_.clear();
  server_info_.applied_index = leadership_index;
  repl_applied_gauge_->Set(static_cast<int64_t>(leadership_index));
  // The replica-side chain verified through the applied index seeds the
  // primary-side chain: the §7.2.1 checksum survives the failover.
  const Status st = StartGate(leadership_index);
  if (!st.ok()) {
    // Endpoints are non-empty (we were following them), so this is a local
    // resource failure; without a gate this node cannot serve writes.
    std::fprintf(stderr, "memorydb-server: promotion gate start failed: %s\n",
                 st.ToString().c_str());
    DemoteFenced();
    return;
  }
  role_ = ServerRole::kPrimary;
  server_info_.role = "master";
  const uint64_t now = SteadyMs();
  const replication::Election::Stages& stages = election_->stages();
  const FailoverMetrics& m = failover_metrics_;
  m.failovers->Increment();
  m.last_duration->Set(static_cast<int64_t>(now - stages.last_alive));
  m.last_detect->Set(static_cast<int64_t>(stages.detected - stages.last_alive));
  m.last_replay->Set(static_cast<int64_t>(stages.claimed - stages.detected));
  m.last_lease->Set(static_cast<int64_t>(stages.won - stages.claimed));
  m.last_promote->Set(static_cast<int64_t>(now - stages.won));
  std::fprintf(stderr,
               "memorydb-server: promoted to primary at log index %llu\n",
               static_cast<unsigned long long>(leadership_index));
}

void RespServer::DemoteFenced() {
  loop_.AssertOnLoopThread();
  role_ = ServerRole::kFenced;
  server_info_.role = "fenced";
  election_->Fence();
  failover_metrics_.lease_losses->Increment();
  // Every parked reply waits on durability that can never be acknowledged
  // by this node again: fail them and hang up, Redis-style (one error per
  // parked connection; the tracker drops the rest of its queue).
  tracker_.FailAll(&releases_);
  for (const replication::CommitTracker::Release& r : releases_) {
    ConnectionOf(r.owner)->QueueOutput(
        "-READONLY Fenced: this node lost its primary lease; reconnect to "
        "the new primary.\r\n");
  }
  releases_.clear();
  // Hang up on EVERY client, not just the parked ones: a client that saw
  // this node ack a write must not keep reading from it as if it were still
  // the primary — its next read here would be stale the moment the new
  // primary acks anything. Forcing a reconnect forces rediscovery.
  for (auto& [ptr, conn] : connections_) {
    ptr->set_state(Connection::State::kClosing);
  }
  parked_atomic_.store(0, std::memory_order_release);
  pending_writes_.clear();
  gate_done_.clear();
  // Retire the gate: stop it now (cuts background retries), destroy it
  // with the server. gate_ null makes every write path read-only.
  gate_for_drain_.store(nullptr, std::memory_order_release);
  if (gate_ != nullptr) {
    gate_->Stop();
    retired_gate_ = std::move(gate_);
  }
  const uint64_t holder =
      retired_gate_ != nullptr ? retired_gate_->fenced_by() : 0;
  std::fprintf(stderr,
               "memorydb-server: fenced — shard lease lost to writer %llu; "
               "serving reads only\n",
               static_cast<unsigned long long>(holder));
}

void RespServer::AcceptPending() {
  loop_.AssertOnLoopThread();
  for (;;) {
    const int fd = listener_.Accept();
    if (fd < 0) return;
    if (connections_.size() >= config_.maxclients) {
      // Same shape Redis uses: tell the client why, then hang up.
      static const char kErr[] = "-ERR max number of clients reached\r\n";
      [[maybe_unused]] ssize_t n =
          ::send(fd, kErr, sizeof(kErr) - 1, MSG_NOSIGNAL);
      ::close(fd);
      rejected_->Increment();
      continue;
    }
    auto conn =
        std::make_unique<Connection>(fd, next_conn_id_++, config_.decode);
    Connection* raw = conn.get();
    raw->handler.on_ready = [this, raw](uint32_t events) {
      // kClosed surfaces through read() on the next drain; treat as read-
      // ready so the hangup is observed promptly.
      if (events & (kReadable | kClosed)) readable_.push_back(raw);
      if (events & kWritable) flushable_.push_back(raw);
    };
    if (!loop_.Watch(fd, kReadable, &raw->handler).ok()) {
      continue;  // conn destructor closes the fd
    }
    connections_.emplace(raw, std::move(conn));
    accepted_->Increment();
    connected_clients_->Set(static_cast<int64_t>(connections_.size()));
  }
}

uint64_t RespServer::Reply(Connection* c, std::string* encoded,
                           replication::KeySpan keys) {
  loop_.AssertOnLoopThread();
  const replication::CommitTracker::Offer offer =
      tracker_.Reply(OwnerOf(c), keys, encoded);
  if (!offer.parked) {
    c->QueueOutput(*encoded);
    return 0;
  }
  NoteParked();
  return offer.hazard;
}

void RespServer::NoteParked() {
  log_blocked_replies_->Increment();
  parked_atomic_.store(tracker_.parked(), std::memory_order_release);
}

void RespServer::ExecutePending(Connection* c, uint64_t now_ms) {
  // The engine is single-threaded by construction: only the loop thread may
  // dispatch into it.
  loop_.AssertOnLoopThread();
  engine::ExecContext ctx;
  ctx.now_ms = now_ms;
  ctx.role = role_ == ServerRole::kPrimary ? engine::Role::kPrimary
                                           : engine::Role::kReplicaRead;
  ctx.rng = &engine_->rng();
  ctx.server = &server_info_;
  std::string encoded;
  for (const std::vector<std::string>& argv : c->pending()) {
    if (c->state() != Connection::State::kOpen) break;
    // The one lookup of this command. Every server-handled name is unknown
    // to the engine, so those are compared only when the lookup misses.
    const engine::CommandSpec* spec =
        argv.empty() ? nullptr : engine_->FindCommand(argv[0]);
    if (spec == nullptr) {
      if (IsCommand(argv, "QUIT")) {
        Reply(c, "+OK\r\n");
        c->set_state(Connection::State::kClosing);
        break;
      }
      // Admin-plane: answered from loop state, never behind a key hazard —
      // a scrape on its own connection must not wait on quorum while
      // diagnosing a stalled quorum.
      if (IsCommand(argv, "TRACE")) {
        HandleTraceCommand(c, argv);
        continue;
      }
      if (IsCommand(argv, "SLOWLOG")) {
        HandleSlowlogCommand(c, argv);
        continue;
      }
      if (IsCommand(argv, "CLUSTER")) {
        HandleClusterCommand(c, argv);
        continue;
      }
      if (IsCommand(argv, "ASKING")) {
        if (slot_table_ == nullptr) {
          Reply(c, "-ERR This instance has cluster support disabled\r\n");
        } else {
          c->asking = true;
          Reply(c, "+OK\r\n");
        }
        continue;
      }
    }
    // One-shot: ASKING covers exactly the next command, used or not.
    const bool asking = c->asking;
    c->asking = false;
    int32_t routed_slot = -1;
    if (slot_table_ != nullptr &&
        RouteClusterCommand(c, spec, argv, asking, &routed_slot)) {
      continue;
    }
    const bool is_wait = spec == nullptr && IsCommand(argv, "WAIT");
    if (role_ != ServerRole::kPrimary) {
      if (is_wait) {
        // Not the serving primary — there are no acks of ours to count.
        // Answer 0 (Redis replica semantics); after promotion completes the
        // gate path below reports the new primary's real quorum size, never
        // a stale replica answer.
        Reply(c, ":0\r\n");
        continue;
      }
      if (spec != nullptr && spec->is_write) {
        Reply(c, role_ == ServerRole::kFenced
                     ? "-READONLY Fenced: this node lost its primary "
                       "lease.\r\n"
                     : "-READONLY You can't write against a read only "
                       "replica.\r\n");
        continue;
      }
    } else if (lease_expired_) {
      // §4.2: a primary serves linearizable reads without a log round-trip
      // only while its lease is provably unexpired. With the horizon passed
      // (renewals stalled, or this process was frozen and resumed believing
      // it still holds the lease), a data read here could be stale the
      // moment a successor claims the shard — refuse it. Writes stay
      // allowed: they are fenced by the conditional append chain itself.
      if (spec != nullptr && !spec->is_write && spec->first_key > 0) {
        Reply(c,
              "-READONLY Lease expired; this node cannot serve linearizable "
              "reads until it renews.\r\n");
        continue;
      }
    }

    if (gate_ != nullptr && is_wait) {
      // WAIT semantics over the remote log: report the quorum size. It is
      // an ordinary in-order reply: every prior write of this connection
      // keeps its reply parked until a majority of log replicas committed
      // it, so WAIT leaves exactly when they are all durable (§3).
      encoded.clear();
      resp::Value::Integer(
          static_cast<int64_t>(gate_->replica_count() / 2 + 1))
          .EncodeTo(&encoded);
      Reply(c, &encoded);
      continue;
    }

    ctx.slot = routed_slot;
    const auto t0 = std::chrono::steady_clock::now();
    const resp::Value reply = engine_->Execute(spec, argv, &ctx);
    if (spec != nullptr) {
      if (spec->id >= latency_by_id_.size()) {
        latency_by_id_.resize(spec->id + 1, nullptr);
      }
      Histogram*& h = latency_by_id_[spec->id];
      if (h == nullptr) {
        h = metrics_.GetHistogram("cmd_latency_us", {{"cmd", spec->name}});
      }
      h->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    }

    if (gate_ != nullptr && !ctx.effects.empty()) {
      // Durable write: append the effect batch to the remote log and park
      // the reply until a majority of AZ replicas persisted it (§3.1); its
      // keys are hazards for every reader until then.
      const uint64_t receive_us = NowUs();
      const uint64_t trace_id =
          sampler_.Sample()
              ? MakeTraceId(config_.txlog_writer_id, next_trace_id_++)
              : 0;
      trace_.Record(trace_id, "cmd.receive", receive_us, c->id());
      const uint64_t seq = gate_->SubmitAppend(
          replication::EncodeEffectBatch(server_info_.engine_version,
                                         ctx.effects),
          trace_id);
      const uint64_t submit_us = NowUs();
      trace_.Record(trace_id, "gate.submit", submit_us, seq);
      PendingWrite pw;
      pw.trace_id = trace_id;
      pw.receive_us = receive_us;
      pw.submit_us = submit_us;
      pw.argv = SlowlogArgv(argv);
      pending_writes_[seq] = std::move(pw);
      encoded.clear();
      reply.EncodeTo(&encoded);
      tracker_.Write(seq, ctx.dirty_keys, ctx.keyspace_dirty, OwnerOf(c),
                     std::move(encoded));
      NoteParked();
    } else {
      // Read, effect-less write, or no log attached (the effect stream is
      // dropped). §3.2: the value may exist locally but not yet be
      // durable; the tracker parks the reply behind the hazarding append so
      // no client observes a value that could still be lost. A reply with
      // nothing to wait for is encoded straight into the output buffer.
      const replication::KeySpan keys = CommandKeySpan(spec, argv);
      if (!tracker_.has_parked(OwnerOf(c)) && tracker_.Hazard(keys) == 0) {
        reply.EncodeTo(c->output());
      } else {
        encoded.clear();
        reply.EncodeTo(&encoded);
        const uint64_t hazard = Reply(c, &encoded, keys);
        if (hazard != 0) {
          // Attribute the read's wait to the hazarding write's trace: the
          // §3.2 consistency stall is part of that write's latency story.
          const auto hz = pending_writes_.find(hazard);
          if (hz != pending_writes_.end()) {
            trace_.Record(hz->second.trace_id, "hazard.defer", NowUs(),
                          c->id());
          }
        }
      }
    }
    ctx.effects.clear();
    ctx.dirty_keys.clear();
    ctx.keyspace_dirty = false;
    if (c->output_pending() > config_.output_hard_bytes) {
      break;  // hard limit: housekeeping evicts before any flush
    }
  }
  c->ClearPending();
}

void RespServer::ProcessLogCompletions(std::vector<Connection*>* released) {
  loop_.AssertOnLoopThread();
  if (gate_ == nullptr) return;
  if (election_ != nullptr && gate_->fenced()) {
    // The gate publishes its fence before the completions it fails: every
    // parked reply learns of the fence, not of an unavailable log.
    DemoteFenced();
    return;
  }
  if (gate_done_.empty()) return;
  // Taken whole first: releasing replies may submit (a migration's next
  // record), and the gate may report more before the next pass.
  std::vector<RemoteLogGate::Completion>& done = gate_done_batch_;
  done.swap(gate_done_);
  const uint64_t now_us = NowUs();
  for (const RemoteLogGate::Completion& comp : done) {
    const bool ok = comp.status.ok();
    if (comp.seq == renew_seq_) {
      // A landed renewal moves the §4.2 horizon. A failed one only lets the
      // next tick renew again: the gate's fence, not a late renewal, is
      // what ends this node's lease.
      renew_seq_ = 0;
      election_->OnRenewal(ok);
      if (ok) failover_metrics_.renewals->Increment();
    }
    const auto pw = pending_writes_.find(comp.seq);
    if (pw != pending_writes_.end()) {
      trace_.Record(pw->second.trace_id, ok ? "append.ack" : "append.fail",
                    now_us, comp.index);
      if (ok) durable_ack_us_->Record(now_us - pw->second.submit_us);
    }
    // Migration-internal appends have no client reply; the tracker still
    // sees every completion, so the floor passes them too.
    const bool migration =
        migrator_ != nullptr && migrator_->OnGateCompletion(comp.seq, ok);
    if (!ok && !migration) {
      std::fprintf(stderr,
                   "memorydb-server: transaction log append %llu failed: %s\n",
                   static_cast<unsigned long long>(comp.seq),
                   comp.status.ToString().c_str());
    }
    tracker_.Complete(comp.seq, ok, &releases_);
    for (const replication::CommitTracker::Release& r : releases_) {
      Connection* c = ConnectionOf(r.owner);
      if (!r.ok) {
        // The reply depends on a write that is applied locally but not in
        // the durable log: local state has diverged. A production primary
        // would demote and resync from the log (§3.1); here the client
        // learns its write (or the value it read) was not made durable, and
        // the connection is closed — the tracker dropped the rest of its
        // queue.
        c->QueueOutput("-ERR transaction log unavailable\r\n");
        c->set_state(Connection::State::kClosing);
      } else {
        c->QueueOutput(r.body);
      }
      // A write's reply parks at its own seq, so it leaves here, in the
      // completion of that seq.
      if (r.ok && r.write && pw != pending_writes_.end()) {
        const uint64_t release_us = NowUs();
        trace_.Record(pw->second.trace_id, "reply.release", release_us,
                      r.seq);
        const uint64_t duration_us = release_us - pw->second.receive_us;
        if (duration_us >= config_.slowlog_slower_than_us) {
          SlowlogEntry e;
          e.id = slowlog_next_id_++;
          e.unix_ts = NowMs() / 1000;
          e.duration_us = duration_us;
          e.argv = std::move(pw->second.argv);
          slowlog_.push_front(std::move(e));
          if (slowlog_.size() > config_.slowlog_max_len) {
            slowlog_.pop_back();
          }
        }
      }
      if (released->empty() || released->back() != c) released->push_back(c);
    }
    releases_.clear();
    if (pw != pending_writes_.end()) pending_writes_.erase(pw);
  }
  done.clear();
  parked_atomic_.store(tracker_.parked(), std::memory_order_release);
}

void RespServer::DispatchBatch(const std::vector<Connection*>& readable,
                               uint64_t now_ms) {
  loop_.AssertOnLoopThread();
  size_t batch = 0;
  for (Connection* c : readable) {
    bytes_in_->Increment(c->TakeBytesIn());
    const size_t hwm = c->TakeMaxInputBuffered();
    if (hwm > input_hwm_cur_) input_hwm_cur_ = hwm;
    batch += c->pending().size();
  }
  if (batch > 0) batch_commands_->Record(static_cast<uint64_t>(batch));
  for (Connection* c : readable) {
    if (!c->pending().empty()) ExecutePending(c, now_ms);
    if (!c->protocol_error().empty() && !c->protocol_error_reported()) {
      Reply(c, "-ERR Protocol error: " + c->protocol_error() + "\r\n");
      c->set_protocol_error_reported();
      c->set_state(Connection::State::kClosing);
      protocol_errors_->Increment();
    }
  }
}

void RespServer::Housekeeping(uint64_t now_ms) {
  loop_.AssertOnLoopThread();
  // Client-output-buffer limits, EPOLLOUT arming, and reaping. The scan
  // covers every connection because a stalled client never raises another
  // readiness event on its own.
  std::vector<Connection*> doomed;
  for (auto& [raw, owned] : connections_) {
    Connection* c = raw;
    if (c->state() == Connection::State::kClosed) {
      doomed.push_back(c);
      continue;
    }
    const size_t out = c->output_pending();
    if (out > config_.output_hard_bytes ||
        c->input_buffered() > config_.input_hard_bytes) {
      evicted_->Increment();
      doomed.push_back(c);
      continue;
    }
    if (out > config_.output_soft_bytes) {
      if (c->soft_over_since_ms == 0) {
        c->soft_over_since_ms = now_ms;
      } else if (now_ms - c->soft_over_since_ms >= config_.output_soft_ms) {
        evicted_->Increment();
        doomed.push_back(c);
        continue;
      }
    } else {
      c->soft_over_since_ms = 0;
    }
    // A connection with parked replies is not idle: keep it open until the
    // log catches up, even if nothing is buffered for output yet.
    const bool parked = tracker_.has_parked(OwnerOf(c));
    if (c->peer_closed() && out == 0) {
      doomed.push_back(c);
      continue;
    }
    if (c->state() == Connection::State::kClosing && out == 0 && !parked) {
      doomed.push_back(c);
      continue;
    }
    const bool want = out > 0;
    if (want != c->want_write) {
      c->want_write = want;
      Status mod = loop_.Rearm(
          c->fd(), want ? (kReadable | kWritable) : kReadable, &c->handler);
      if (!mod.ok()) {
        // The kernel's interest set no longer matches want_write; this
        // connection would never see another EPOLLOUT and its output would
        // stall forever. Drop it instead of serving a wedged client.
        doomed.push_back(c);
      }
    }
  }
  for (Connection* c : doomed) CloseConnection(c);

  // client_recent_max_input_buffer: max over the current and previous
  // windows, so the gauge reflects "recent" peaks rather than all-time.
  if (now_ms - input_hwm_window_start_ms_ >= kInputHwmWindowMs) {
    input_hwm_prev_ = input_hwm_cur_;
    input_hwm_cur_ = 0;
    input_hwm_window_start_ms_ = now_ms;
  }
  recent_max_input_->Set(static_cast<int64_t>(
      input_hwm_cur_ > input_hwm_prev_ ? input_hwm_cur_ : input_hwm_prev_));
  // Clients whose replies are parked behind the durability gate (§3.2).
  blocked_clients_->Set(static_cast<int64_t>(tracker_.owners()));

  // Replicas never expire keys themselves; they apply the primary's DEL
  // effects from the log (§2.1), keeping both sides bit-identical. Same
  // for promoting/fenced nodes: only the serving primary expires.
  if (role_ == ServerRole::kPrimary &&
      now_ms - last_expire_ms_ >= kExpireEveryMs) {
    last_expire_ms_ = now_ms;
    engine::ExecContext ctx;
    ctx.now_ms = now_ms;
    ctx.role = engine::Role::kPrimary;
    ctx.rng = &engine_->rng();
    engine_->ActiveExpire(&ctx, kExpirePerCycle);
    if (gate_ != nullptr && !ctx.effects.empty()) {
      // The cycle's DELs are themselves a logged write (§2.1): replicas
      // never self-expire, so without this append a log-fed replica or a
      // --restore node would keep every actively-expired key forever. No
      // reply is parked on it, but like every logged write it hazards the
      // keys it touched until durable.
      const uint64_t seq = gate_->SubmitAppend(
          replication::EncodeEffectBatch(server_info_.engine_version,
                                         ctx.effects),
          /*trace_id=*/0);
      tracker_.Write(seq, ctx.dirty_keys, ctx.keyspace_dirty);
    }
  }
}

void RespServer::CloseConnection(Connection* c) {
  loop_.AssertOnLoopThread();
  tracker_.Forget(OwnerOf(c));
  parked_atomic_.store(tracker_.parked(), std::memory_order_release);
  loop_.Unwatch(c->fd());
  c->Close();
  connections_.erase(c);
  closed_->Increment();
  connected_clients_->Set(static_cast<int64_t>(connections_.size()));
}

int RespServer::Step() {
  loop_.AssertOnLoopThread();
  if (accept_ready_) {
    accept_ready_ = false;
    AcceptPending();
  }

  // Stage 1 (io threads): drain sockets and decode commands.
  pool_->Run(readable_.size(),
             [&](size_t i) { readable_[i]->ReadAndParse(); });

  // Stage 2 (loop thread): replica mode first applies committed log
  // entries the follower fetched, so this cycle's reads see them; then
  // one batched dispatch into the engine.
  const uint64_t now_ms = NowMs();
  ApplyFollowerEntries(now_ms);
  MaintainFailover();
  DispatchBatch(readable_, now_ms);
  // Hand the iteration's writes to the gate in one go, so they can share
  // a log record instead of the first one going out alone.
  if (gate_ != nullptr) gate_->Flush();

  // Stage 3 (loop thread): release replies whose log appends committed.
  ProcessLogCompletions(&released_);
  if (migrator_ != nullptr && migrator_->active()) {
    migrator_->Pump();
    RefreshClusterGauges();
  }

  // Stage 4 (io threads): flush whatever has output. Readable conns may
  // have just produced replies, released conns just gained them, and
  // EPOLLOUT-ready conns have leftovers. A connection must be flushed by
  // exactly one io thread, hence the flush_queued mark (EPOLLOUT conns
  // have want_write set, so the !want_write check already excludes them).
  const auto consider = [&](Connection* c) {
    if (c->output_pending() > 0 &&
        c->output_pending() <= config_.output_hard_bytes &&
        !c->want_write && !c->flush_queued) {
      c->flush_queued = true;
      flushable_.push_back(c);
    }
  };
  for (Connection* c : readable_) consider(c);
  for (Connection* c : released_) consider(c);
  pool_->Run(flushable_.size(),
             [&](size_t i) { flushable_[i]->FlushWrites(); });
  for (Connection* c : flushable_) {
    c->flush_queued = false;
    bytes_out_->Increment(c->TakeBytesOut());
  }
  // Housekeeping may close connections these name.
  readable_.clear();
  flushable_.clear();
  released_.clear();

  Housekeeping(now_ms);
  // Active-expiry DELs and migration records submitted since dispatch.
  if (gate_ != nullptr) gate_->Flush();
  // A pending replay backlog, or completions the last Flush reported, means
  // more work is already here: poll without sleeping.
  return follower_backlog_.empty() && gate_done_.empty()
             ? config_.loop_timeout_ms
             : 0;
}

std::string RespServer::TraceProcLabel() const {
  if (!config_.trace_proc.empty()) return config_.trace_proc;
  return role_ == ServerRole::kReplica ? "replica" : "server";
}

void RespServer::HandleTraceCommand(Connection* c,
                                    const std::vector<std::string>& argv) {
  loop_.AssertOnLoopThread();
  const std::string sub =
      argv.size() > 1 ? engine::Engine::Upper(argv[1]) : std::string();
  std::string encoded;
  if (sub == "DUMP" && argv.size() == 2) {
    // One JSONL line per span, same format as the --trace-file export, so
    // live scrapes and post-shutdown files merge interchangeably.
    resp::Value::Bulk(ExportSpansJsonl(trace_, TraceProcLabel()))
        .EncodeTo(&encoded);
  } else if (sub == "RESET" && argv.size() == 2) {
    trace_.Clear();
    encoded = "+OK\r\n";
  } else {
    encoded = "-ERR unknown TRACE subcommand; try TRACE DUMP | TRACE RESET\r\n";
  }
  Reply(c, &encoded);
}

void RespServer::HandleSlowlogCommand(Connection* c,
                                      const std::vector<std::string>& argv) {
  loop_.AssertOnLoopThread();
  const std::string sub =
      argv.size() > 1 ? engine::Engine::Upper(argv[1]) : std::string();
  std::string encoded;
  if (sub == "GET" && argv.size() <= 3) {
    size_t limit = 10;  // Redis default
    if (argv.size() == 3) {
      char* end = nullptr;
      const long long v = std::strtoll(argv[2].c_str(), &end, 10);
      if (end == argv[2].c_str() || *end != '\0') {
        Reply(c, "-ERR value is not an integer or out of range\r\n");
        return;
      }
      limit = v < 0 ? slowlog_.size() : static_cast<size_t>(v);
    }
    std::vector<resp::Value> entries;
    for (const SlowlogEntry& e : slowlog_) {
      if (entries.size() >= limit) break;
      std::vector<resp::Value> fields;
      fields.push_back(resp::Value::Integer(static_cast<int64_t>(e.id)));
      fields.push_back(resp::Value::Integer(static_cast<int64_t>(e.unix_ts)));
      fields.push_back(
          resp::Value::Integer(static_cast<int64_t>(e.duration_us)));
      std::vector<resp::Value> args;
      args.reserve(e.argv.size());
      for (const std::string& a : e.argv) args.push_back(resp::Value::Bulk(a));
      fields.push_back(resp::Value::Array(std::move(args)));
      entries.push_back(resp::Value::Array(std::move(fields)));
    }
    resp::Value::Array(std::move(entries)).EncodeTo(&encoded);
  } else if (sub == "LEN" && argv.size() == 2) {
    resp::Value::Integer(static_cast<int64_t>(slowlog_.size()))
        .EncodeTo(&encoded);
  } else if (sub == "RESET" && argv.size() == 2) {
    slowlog_.clear();
    encoded = "+OK\r\n";
  } else {
    encoded =
        "-ERR unknown SLOWLOG subcommand; try SLOWLOG GET [count] | "
        "SLOWLOG LEN | SLOWLOG RESET\r\n";
  }
  Reply(c, &encoded);
}

bool RespServer::RouteClusterCommand(Connection* c,
                                     const engine::CommandSpec* spec,
                                     const std::vector<std::string>& argv,
                                     bool asking, int32_t* slot_out) {
  loop_.AssertOnLoopThread();
  const replication::KeySpan keys = CommandKeySpan(spec, argv);
  if (keys.count == 0) return false;  // keyless
  const uint16_t slot = KeyHashSlot(Slice(keys[0]));
  // Every path that runs the command here hands the slot to the engine.
  *slot_out = slot;
  for (size_t i = 1; i < keys.count; ++i) {
    if (KeyHashSlot(Slice(keys[i])) != slot) {
      Reply(c, "-CROSSSLOT Keys in request don't hash to the same slot\r\n");
      return true;
    }
  }
  const shard::SlotTable::Entry& entry = slot_table_->at(slot);
  switch (entry.state) {
    case shard::SlotState::kOwned:
      return false;
    case shard::SlotState::kRemote:
      Reply(c, "-" + slot_table_->MovedError(slot) + "\r\n");
      cluster_redirects_total_->Increment();
      cluster_redirects_moved_->Increment();
      return true;
    case shard::SlotState::kImporting:
      // Only ASKING-prefixed commands may touch an importing slot before
      // the owner commits the flip; everyone else is pointed at the owner.
      if (asking) return false;
      Reply(c, "-" + slot_table_->MovedError(slot) + "\r\n");
      cluster_redirects_total_->Increment();
      cluster_redirects_moved_->Increment();
      return true;
    case shard::SlotState::kMigrating: {
      const uint64_t now_ms = NowMs();
      size_t present = 0;
      bool in_flight = false;
      for (size_t i = 0; i < keys.count; ++i) {
        if (migrator_ != nullptr && migrator_->KeyInFlight(keys[i])) {
          in_flight = true;
        }
        if (engine_->keyspace().Find(keys[i], now_ms) != nullptr) ++present;
      }
      if (in_flight && spec->is_write) {
        // The value is mid-transfer: a local write would be shadowed the
        // moment the streamed copy lands on the target.
        Reply(c, "-TRYAGAIN Key is being migrated; retry the command\r\n");
        return true;
      }
      if (present == keys.count) return false;  // still fully local
      if (present == 0) {
        Reply(c, "-" + slot_table_->AskError(slot) + "\r\n");
        cluster_redirects_total_->Increment();
        cluster_redirects_ask_->Increment();
        return true;
      }
      Reply(c,
            "-TRYAGAIN Keys straddle a migrating slot; retry the command\r\n");
      return true;
    }
  }
  return false;
}

void RespServer::HandleClusterCommand(Connection* c,
                                      const std::vector<std::string>& argv) {
  loop_.AssertOnLoopThread();
  if (slot_table_ == nullptr) {
    Reply(c, "-ERR This instance has cluster support disabled\r\n");
    return;
  }
  const auto parse_slot = [](const std::string& s, uint16_t* out) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0' ||
        v >= static_cast<unsigned long>(kNumSlots)) {
      return false;
    }
    *out = static_cast<uint16_t>(v);
    return true;
  };
  const std::string sub =
      argv.size() > 1 ? engine::Engine::Upper(argv[1]) : std::string();
  std::string encoded;
  uint16_t slot = 0;
  if (sub == "MYID" && argv.size() == 2) {
    resp::Value::Bulk(slot_table_->self_shard()).EncodeTo(&encoded);
  } else if (sub == "SLOTS" && argv.size() == 2) {
    slot_table_->SlotsReply().EncodeTo(&encoded);
  } else if (sub == "SHARDS" && argv.size() == 2) {
    slot_table_->ShardsReply().EncodeTo(&encoded);
  } else if (sub == "KEYSLOT" && argv.size() == 3) {
    resp::Value::Integer(KeyHashSlot(Slice(argv[2]))).EncodeTo(&encoded);
  } else if ((sub == "COUNTKEYSINSLOT" || sub == "GETKEYSINSLOT") &&
             argv.size() >= 3) {
    if (!parse_slot(argv[2], &slot)) {
      encoded = "-ERR Invalid slot\r\n";
    } else if (sub == "COUNTKEYSINSLOT" && argv.size() == 3) {
      resp::Value::Integer(static_cast<int64_t>(
                               engine_->keyspace().KeysInSlot(slot).size()))
          .EncodeTo(&encoded);
    } else if (sub == "GETKEYSINSLOT" && argv.size() == 4) {
      char* end = nullptr;
      const unsigned long count = std::strtoul(argv[3].c_str(), &end, 10);
      std::vector<resp::Value> out;
      for (const auto& [k, entry] : engine_->keyspace().KeysInSlot(slot)) {
        if (out.size() >= count) break;
        out.push_back(resp::Value::Bulk(k));
      }
      resp::Value::Array(std::move(out)).EncodeTo(&encoded);
    } else {
      encoded = "-ERR wrong number of arguments\r\n";
    }
  } else if (sub == "SETSLOT" && argv.size() >= 4) {
    if (!parse_slot(argv[2], &slot)) {
      Reply(c, "-ERR Invalid slot\r\n");
      return;
    }
    const std::string op = engine::Engine::Upper(argv[3]);
    if (op == "IMPORTING" && argv.size() == 6) {
      // Handshake from the migrating owner: argv[4]=its shard, [5]=endpoint.
      if (slot_table_->BeginImporting(slot, argv[4], argv[5])) {
        encoded = "+OK\r\n";
      } else {
        encoded = "-ERR slot " + std::to_string(slot) +
                  " is already served by this shard\r\n";
      }
    } else if (op == "MIGRATE" && argv.size() == 6) {
      // Admin trigger: stream the slot to shard argv[4] at argv[5] and
      // commit the flip through the fenced log. Runs asynchronously; +OK
      // means the migration started, progress is visible in INFO # Cluster.
      if (role_ != ServerRole::kPrimary) {
        encoded = "-ERR only the serving primary can migrate a slot\r\n";
      } else {
        const Status st = migrator_->StartMigration(slot, argv[4], argv[5]);
        encoded = st.ok() ? "+OK\r\n" : "-ERR " + st.ToString() + "\r\n";
      }
    } else if (op == "NODE" && (argv.size() == 6 || argv.size() == 7)) {
      uint64_t epoch = slot_table_->at(slot).epoch + 1;
      if (argv.size() == 7) {
        char* end = nullptr;
        epoch = std::strtoull(argv[6].c_str(), &end, 10);
      }
      if (argv[4] == slot_table_->self_shard()) {
        // The owner committed the flip to us: IMPORTING -> OWNED. Publish
        // the flip to our own shard's log too, so our replicas (and a
        // restarted us) learn it.
        if (slot_table_->CommitMigrationIn(slot, epoch)) {
          MigrationSubmitOwnership(slot, epoch, slot_table_->self_shard(),
                                   slot_table_->self_endpoint());
          encoded = "+OK\r\n";
        } else if (slot_table_->at(slot).state == shard::SlotState::kOwned) {
          encoded = "+OK\r\n";  // retried notification; already ours
        } else {
          encoded = "-ERR slot " + std::to_string(slot) +
                    " is not importing here\r\n";
        }
      } else {
        slot_table_->SetRemote(slot, argv[4], argv[5]);
        encoded = "+OK\r\n";
      }
    } else if (op == "STABLE" && argv.size() == 4) {
      encoded = slot_table_->CancelMigration(slot)
                    ? "+OK\r\n"
                    : "-ERR slot is not migrating or importing\r\n";
    } else {
      encoded =
          "-ERR unknown SETSLOT form; try IMPORTING <shard> <endpoint> | "
          "MIGRATE <shard> <endpoint> | NODE <shard> <endpoint> [epoch] | "
          "STABLE\r\n";
    }
    RefreshClusterGauges();
  } else {
    encoded =
        "-ERR unknown CLUSTER subcommand; try SLOTS | SHARDS | MYID | "
        "KEYSLOT | COUNTKEYSINSLOT | GETKEYSINSLOT | SETSLOT\r\n";
  }
  Reply(c, &encoded);
}

void RespServer::RefreshClusterGauges() {
  loop_.AssertOnLoopThread();
  if (slot_table_ == nullptr) return;
  size_t owned = 0, migrating = 0, importing = 0;
  for (int s = 0; s < kNumSlots; ++s) {
    switch (slot_table_->at(static_cast<uint16_t>(s)).state) {
      case shard::SlotState::kOwned: ++owned; break;
      case shard::SlotState::kMigrating: ++migrating; break;
      case shard::SlotState::kImporting: ++importing; break;
      case shard::SlotState::kRemote: break;
    }
  }
  // A migrating slot is still served here until the flip commits.
  cluster_slots_owned_->Set(static_cast<int64_t>(owned + migrating));
  cluster_slots_migrating_->Set(static_cast<int64_t>(migrating));
  cluster_slots_importing_->Set(static_cast<int64_t>(importing));
}

std::vector<std::string> RespServer::MigrationKeys(uint16_t slot,
                                                   size_t max) {
  loop_.AssertOnLoopThread();
  std::vector<std::string> out;
  const uint64_t now_ms = NowMs();
  for (const auto& [key, entry] : engine_->keyspace().KeysInSlot(slot)) {
    if (out.size() >= max) break;
    if (!engine_->keyspace().IsLogicallyExpired(entry, now_ms)) {
      out.push_back(key);
    }
  }
  return out;
}

bool RespServer::MigrationDump(const std::string& key, uint64_t* expire_at_ms,
                               std::string* blob) {
  loop_.AssertOnLoopThread();
  const engine::Keyspace::Entry* e = engine_->keyspace().Find(key, NowMs());
  if (e == nullptr) return false;
  *expire_at_ms = e->expire_at_ms();
  blob->clear();
  engine::SerializeValue(e->value, blob);
  PutFixed64(blob, Crc64(0, blob->data(), blob->size()));
  return true;
}

uint64_t RespServer::MigrationDelete(const std::vector<std::string>& keys) {
  loop_.AssertOnLoopThread();
  engine::Argv del;
  del.reserve(keys.size() + 1);
  del.push_back("DEL");
  for (const std::string& k : keys) del.push_back(k);
  engine_->Apply(del, NowMs());
  if (gate_ == nullptr) return 0;
  // Replicates like any write, and like any write hazards its keys until
  // durable; no client reply is parked on it.
  const std::vector<engine::Argv> effects{del};
  const uint64_t seq = gate_->SubmitAppend(
      replication::EncodeEffectBatch(server_info_.engine_version, effects),
      /*trace_id=*/0);
  tracker_.Write(seq, keys, /*keyspace=*/false);
  return seq;
}

uint64_t RespServer::MigrationSubmitOwnership(uint16_t slot, uint64_t epoch,
                                              const std::string& to_shard,
                                              const std::string& to_endpoint) {
  loop_.AssertOnLoopThread();
  if (gate_ == nullptr) return 0;
  shard::SlotOwnershipRecord rec;
  rec.slot = slot;
  rec.epoch = epoch;
  rec.from_shard = config_.shard_id;
  rec.to_shard = to_shard;
  rec.to_endpoint = to_endpoint;
  // The fencing argument (§5, same shape as DESIGN.md §11): this append is
  // conditional on the chain position of a gate that fences on any foreign
  // record. If this node lost its lease, the append fails and the flip
  // never commits — a stale owner can neither serve the slot nor give it
  // away.
  return gate_->SubmitTyped(txlog::RecordType::kSlotOwnership, rec.Encode(),
                            /*trace_id=*/0);
}

}  // namespace memdb::net
