#include "memorydb/node.h"

#include <algorithm>

#include "common/coding.h"
#include "replication/effect_batch.h"
#include "txlog/actor_transport.h"

namespace memdb::memorydb {

using sim::Duration;
using sim::Message;
using sim::NodeId;
using resp::Value;

int CompareEngineVersions(const std::string& a, const std::string& b) {
  size_t ia = 0, ib = 0;
  while (ia < a.size() || ib < b.size()) {
    long na = 0, nb = 0;
    while (ia < a.size() && a[ia] != '.') na = na * 10 + (a[ia++] - '0');
    while (ib < b.size() && b[ib] != '.') nb = nb * 10 + (b[ib++] - '0');
    if (na != nb) return na < nb ? -1 : 1;
    if (ia < a.size()) ++ia;
    if (ib < b.size()) ++ib;
  }
  return 0;
}

Node::Node(sim::Simulation* sim, NodeId id, NodeConfig config)
    : Actor(sim, id),
      config_(std::move(config)),
      engine_([&] {
        engine::Engine::Config ec;
        ec.maxmemory_bytes = config_.maxmemory_bytes;
        ec.eviction_policy = config_.eviction_policy;
        ec.eviction_samples = config_.eviction_samples;
        ec.rng_seed = 0x9e3779b9 ^ id;
        return ec;
      }()),
      log_(std::make_unique<txlog::ActorTransport>(this, config_.log_replicas),
           {.writer_id = id, .rpc_timeout_ms = 150}),
      io_pool_(&sim->scheduler(), config_.io_threads),
      workloop_(&sim->scheduler(), 1),
      election_({id, config_.lease_duration, config_.lease_renew_interval,
                 config_.backoff_duration}) {
  if (config_.object_store != sim::kInvalidNode) {
    s3_ = storage::StorageClient(this, config_.object_store);
  }
  On(client::kDbCommand, [this](const Message& m) { HandleCommand(m); });
  On(client::kDbMulti, [this](const Message& m) { HandleMulti(m); });
  RegisterSlotHandlers();

  // One registry for the whole process: the engine shares it, so INFO
  // Commandstats/Latencystats and METRICS read node- and engine-level
  // series from the same place.
  engine_.set_metrics(&metrics_);
  server_info_.engine_version = config_.engine_version;
  server_info_.node_id = id;
  write_commit_hist_ = metrics_.GetHistogram("write_commit_latency_us");
  append_hist_ = metrics_.GetHistogram("append_latency_us");
  lease_renew_hist_ = metrics_.GetHistogram("lease_renew_latency_us");
  election_hist_ = metrics_.GetHistogram("election_latency_us");
  pipeline_depth_gauge_ = metrics_.GetGauge("node_pipeline_depth");
  tracker_keys_gauge_ = metrics_.GetGauge("node_tracker_keys");
  deferred_reads_gauge_ = metrics_.GetGauge("node_deferred_reads");
  role_gauge_ = metrics_.GetGauge("node_role");
  reads_deferred_counter_ = metrics_.GetCounter("node_reads_deferred_total");
  records_appended_counter_ =
      metrics_.GetCounter("node_records_appended_total");
  SyncRoleInfo();
  // Scrape endpoint for the monitoring service: refresh the point-in-time
  // gauges, then expose the registry.
  On("db.metrics", [this](const Message& m) {
    SyncRoleInfo();
    metrics_.GetGauge("node_applied_index")
        ->Set(static_cast<int64_t>(applied_index_));
    metrics_.GetGauge("node_caught_up")->Set(caught_up() ? 1 : 0);
    SyncDepthGauges();
    Reply(m, metrics_.ExpositionText());
  });

  StartLoops();
  // Every node starts life as a recovering replica (§4.2); the designated
  // bootstrap node then campaigns immediately without waiting out a backoff.
  StartRecovery();
}

void Node::StartLoops() {
  // Timers are incarnation-guarded, so these loops must be re-armed after
  // every restart.
  //
  // Replica log tailing.
  Periodic(config_.replica_poll_interval, [this] {
    if (role_ == DbRole::kReplica) PollLog();
  });
  // The election: renewals and the lease horizon (a primary that cannot
  // renew stops serving at the end of its lease, §4.1.3), and the
  // replica's backoff and claim.
  Periodic(50 * sim::kMs, [this] { TickElection(); });
  // Active expiry cycle (primary).
  Periodic(config_.active_expire_interval, [this] {
    if (role_ != DbRole::kPrimary) return;
    engine::ExecContext ctx = MakeContext(engine::Role::kPrimary);
    engine_.ActiveExpire(&ctx, 20);
    if (!ctx.effects.empty()) {
      const uint64_t seq = next_batch_seq_++;
      tracker_.Write(seq, ctx.dirty_keys, ctx.keyspace_dirty);
      SubmitToGate(seq, txlog::RecordType::kData,
                   replication::EncodeEffectBatch(config_.engine_version,
                                                  ctx.effects));
    }
  });
}

void Node::OnRestart() {
  Actor::OnRestart();
  ++epoch_;
  engine_.keyspace().Clear();
  role_ = DbRole::kReplica;
  known_primary_ = sim::kInvalidNode;
  applied_index_ = 0;
  commit_seen_ = UINT64_MAX;
  poll_in_flight_ = false;
  version_blocked_ = false;
  running_checksum_ = 0;
  checksum_violation_ = false;
  // The crash took every parked request with it: nothing is answered.
  tracker_.FailAll(&releases_);
  releases_.clear();
  waiting_.clear();
  open_index_ = 0;
  stepping_down_ = false;
  stats_ = Stats{};
  // A restarted process starts its observability state from zero; cached
  // instrument pointers stay valid because ResetAll zeroes in place.
  metrics_.ResetAll();
  trace_.Clear();
  campaign_started_at_ = 0;
  StartLoops();
  // A restarted process comes back as a recovering replica (§4.2): restore
  // from the latest snapshot, then replay the log.
  StartRecovery();
}

// ---------------------------------------------------------------- requests

void Node::ReplyValue(const Message& m, const Value& v) {
  Reply(m, v.Encode());
}

void Node::FinishCommand(const Message& m, const ReqTrace& rt,
                         const std::string& encoded, const char* stage) {
  if (rt.id != 0) {
    trace_.Record(rt.id, stage, Now());
    FamilyHistogram(rt.family)->Record(Now() - rt.received_at);
  }
  Reply(m, encoded);
}

Histogram* Node::FamilyHistogram(const std::string& family) {
  auto it = family_hists_.find(family);
  if (it != family_hists_.end()) return it->second;
  Histogram* h = metrics_.GetHistogram("cmd_latency_us", {{"cmd", family}});
  family_hists_.emplace(family, h);
  return h;
}

void Node::SyncDepthGauges() {
  pipeline_depth_gauge_->Set(
      gate_ == nullptr
          ? 0
          : static_cast<int64_t>(gate_->queued() + gate_->inflight()));
  tracker_keys_gauge_->Set(static_cast<int64_t>(tracker_.hazards()));
  deferred_reads_gauge_->Set(
      static_cast<int64_t>(tracker_.parked() - tracker_.parked_writes()));
}

void Node::SyncRoleInfo() {
  switch (role_) {
    case DbRole::kPrimary:
      server_info_.role = "master";
      role_gauge_->Set(1);
      break;
    case DbRole::kReplica:
      server_info_.role = "replica";
      role_gauge_->Set(0);
      break;
    case DbRole::kRecovering:
      server_info_.role = "loading";
      role_gauge_->Set(2);
      break;
  }
  server_info_.applied_index = applied_index_;
}

engine::ExecContext Node::MakeContext(engine::Role role) {
  server_info_.applied_index = applied_index_;
  engine::ExecContext ctx;
  ctx.now_ms = Now() / 1000;
  ctx.role = role;
  ctx.rng = &engine_.rng();
  ctx.server = &server_info_;
  return ctx;
}

void Node::HandleCommand(const Message& m) {
  client::DbRequest req;
  if (!client::DbRequest::Decode(m.payload, &req) || req.argv.empty()) {
    ReplyValue(m, Value::Error("ERR protocol error"));
    return;
  }
  ++stats_.commands;
  const std::string name = engine::Engine::Upper(req.argv[0]);
  // Session/cluster commands answered without touching the engine thread.
  if (name == "READONLY" || name == "READWRITE") {
    ReplyValue(m, Value::Ok());
    return;
  }
  if (name == "WAIT") {
    // All acknowledged writes are already durable across AZs; WAIT is
    // trivially satisfied (§3).
    ReplyValue(m, Value::Integer(1));
    return;
  }

  const engine::CommandSpec* spec = engine_.FindCommand(name);
  if (spec == nullptr) {
    ReplyValue(m, Value::Error("ERR unknown command '" + req.argv[0] + "'"));
    return;
  }
  ReqTrace rt{NewTraceId(), Now(), name};
  trace_.Record(rt.id, "cmd.receive", Now());
  const bool is_write = spec->is_write;
  // Accumulate nanosecond costs into whole scheduler microseconds.
  io_cost_carry_ns_ += config_.io_op_cost_ns;
  const Duration io_cost = io_cost_carry_ns_ / 1000;
  io_cost_carry_ns_ %= 1000;
  engine_cost_carry_ns_ += is_write ? config_.engine_write_cost_ns
                                    : config_.engine_read_cost_ns;
  const Duration engine_cost = engine_cost_carry_ns_ / 1000;
  engine_cost_carry_ns_ %= 1000;

  const uint64_t epoch = epoch_;
  io_pool_.SubmitAnd(io_cost, [this, m, req = std::move(req), is_write,
                               engine_cost, epoch, rt]() mutable {
    if (!alive() || epoch != epoch_) return;
    workloop_.SubmitAnd(engine_cost, [this, m, req = std::move(req), is_write,
                                      epoch, rt = std::move(rt)]() mutable {
      if (!alive() || epoch != epoch_) return;
      switch (role_) {
        case DbRole::kPrimary:
          ExecuteOnPrimary(m, {req.argv}, /*multi=*/false, rt);
          return;
        case DbRole::kReplica:
          if (req.readonly && !is_write) {
            ExecuteReadOnReplica(m, req.argv, rt);
          } else {
            const sim::NodeId hint =
                known_primary_ != sim::kInvalidNode ? known_primary_ : id();
            const uint16_t slot =
                req.argv.size() > 1 ? KeyHashSlot(req.argv[1]) : 0;
            ReplyValue(m, Value::Error(client::MovedError(slot, hint)));
          }
          return;
        case DbRole::kRecovering:
          ReplyValue(m, Value::Error(
                            "LOADING MemoryDB is loading the dataset in "
                            "memory"));
          return;
      }
    });
  });
}

void Node::HandleMulti(const Message& m) {
  client::DbMultiRequest req;
  if (!client::DbMultiRequest::Decode(m.payload, &req) ||
      req.commands.empty()) {
    ReplyValue(m, Value::Error("ERR protocol error"));
    return;
  }
  ++stats_.commands;
  ReqTrace rt{NewTraceId(), Now(), "MULTI"};
  trace_.Record(rt.id, "cmd.receive", Now());
  const Duration engine_cost =
      std::max<Duration>(1, config_.engine_write_cost_ns / 1000) *
      req.commands.size();
  const uint64_t epoch = epoch_;
  io_pool_.SubmitAnd(std::max<Duration>(1, config_.io_op_cost_ns / 1000),
                     [this, m, req = std::move(req), engine_cost, epoch,
                      rt]() mutable {
                       if (!alive() || epoch != epoch_) return;
                       workloop_.SubmitAnd(
                           engine_cost,
                           [this, m, req = std::move(req), epoch,
                            rt = std::move(rt)]() mutable {
                             if (!alive() || epoch != epoch_) return;
                             if (role_ != DbRole::kPrimary) {
                               ReplyValue(
                                   m, Value::Error(client::MovedError(
                                          0, known_primary_ == sim::kInvalidNode
                                                 ? id()
                                                 : known_primary_)));
                               return;
                             }
                             ExecuteOnPrimary(m, req.commands, /*multi=*/true,
                                              rt);
                           });
                     });
}

void Node::ExecuteOnPrimary(const Message& m,
                            const std::vector<engine::Argv>& commands,
                            bool multi, const ReqTrace& rt) {
  std::vector<std::string> read_keys;
  uint16_t slot = 0;
  bool has_write = false;
  std::vector<const engine::CommandSpec*> specs;
  specs.reserve(commands.size());
  for (const engine::Argv& argv : commands) {
    specs.push_back(engine_.FindCommand(argv[0]));
    if (specs.back() != nullptr && specs.back()->is_write) has_write = true;
  }
  Value verdict = CheckSlotAccess(commands, has_write, &read_keys, &slot);
  if (verdict.IsError()) {
    ReplyValue(m, verdict);
    return;
  }

  engine::ExecContext ctx = MakeContext(engine::Role::kPrimary);

  std::vector<Value> replies;
  for (size_t i = 0; i < commands.size(); ++i) {
    replies.push_back(engine_.Execute(specs[i], commands[i], &ctx));
  }
  Value final_reply =
      multi ? Value::Array(std::move(replies)) : std::move(replies[0]);

  // Source side of a live migration: mutations of already-transferred keys
  // ride along to the target (§5.2 "replication stream mutations of keys
  // already transmitted").
  if (!ctx.effects.empty() && !read_keys.empty()) {
    auto it = slots_.find(slot);
    if (it != slots_.end() && it->second.state == SlotState::kMigrating) {
      ForwardEffects(slot, ctx.effects);
    }
  }

  if (!ctx.effects.empty()) {
    ++stats_.writes;
    // Hand this command's effects to the gate; the tracker parks the reply
    // until their record is durable in a majority of AZs and hazards the
    // written keys until then (§3.2).
    const uint64_t seq = next_batch_seq_++;
    tracker_.Write(seq, ctx.dirty_keys, ctx.keyspace_dirty, AwaitReply(m, rt),
                   final_reply.Encode());
    trace_.Record(rt.id, "pipeline.enqueue", Now());
    SubmitToGate(seq, txlog::RecordType::kData,
                 replication::EncodeEffectBatch(config_.engine_version,
                                                ctx.effects),
                 rt.id);
    return;
  }

  // Non-mutating (or no-op): the tracker defers it behind the latest
  // unacknowledged write to any key it read. Each request is its own
  // owner, so nothing else holds it back.
  const uint64_t owner = next_owner_++;
  std::string encoded = final_reply.Encode();
  const replication::CommitTracker::Offer offer =
      tracker_.Reply(owner, read_keys, &encoded);
  if (offer.parked) {
    ++stats_.reads_deferred_by_tracker;
    reads_deferred_counter_->Increment();
    trace_.Record(rt.id, "read.hazard_defer", Now(), offer.hazard);
    waiting_.emplace(owner, Waiting{m, rt});
    SyncDepthGauges();
    return;
  }
  FinishCommand(m, rt, encoded, "cmd.reply");
}

void Node::ExecuteReadOnReplica(const Message& m, const engine::Argv& argv,
                                const ReqTrace& rt) {
  engine::ExecContext ctx = MakeContext(engine::Role::kReplicaRead);
  // Replica reads never block: data is only visible once committed (§3.2).
  FinishCommand(m, rt, engine_.Execute(argv, &ctx).Encode(), "cmd.reply");
}

// ---------------------------------------------------------------- tracker

uint64_t Node::AwaitReply(const Message& m, const ReqTrace& rt) {
  const uint64_t owner = next_owner_++;
  waiting_.emplace(owner, Waiting{m, rt});
  return owner;
}

void Node::ReleaseCommitted(uint64_t batch_seq) {
  tracker_.Complete(batch_seq, /*ok=*/true, &releases_);
  for (const replication::CommitTracker::Release& r : releases_) {
    const auto it = waiting_.find(r.owner);
    const Waiting w = std::move(it->second);
    waiting_.erase(it);
    if (r.write && w.trace.id != 0) {
      write_commit_hist_->Record(Now() - w.trace.received_at);
    }
    FinishCommand(w.request, w.trace, r.body,
                  r.write ? "cmd.release" : "read.release");
  }
  releases_.clear();
  SyncDepthGauges();
}

// ---------------------------------------------------------------- log gate

void Node::SubmitToGate(uint64_t seq, txlog::RecordType type,
                        std::string payload, uint64_t trace_id) {
  gate_->Submit(seq, type, std::move(payload), trace_id);
  DriveGate();
}

void Node::DriveGate() {
  replication::LogGate::Output out = gate_->TakeOutput();
  if (out.landed != 0) {
    ++stats_.records_appended;
    records_appended_counter_->Increment();
    append_hist_->Record(Now() - append_issued_at_);
    trace_.Record(append_trace_id_, "append.ack", Now(), out.landed);
    applied_index_ = out.landed;
  }
  // Completions first: a demotion must stop the gate before it sends more.
  for (const replication::LogGate::Completion& c : out.completions) {
    if (!c.status.ok()) {
      Demote(c.status.IsConditionFailed() ? "fenced by foreign log entry"
                                          : "log append failed");
      return;
    }
    // Lease records travel alone: a completion names one of them whole.
    if (c.last_seq == release_seq_) {
      // Collaborative handover (§5.2): the release is durable; replicas
      // observing it campaign immediately. Stop serving now.
      ReleaseCommitted(c.last_seq);
      Demote("collaborative handover");
      return;
    }
    if (c.last_seq == lease_seq_) {
      lease_renew_hist_->Record(Now() - lease_enqueued_at_);
      election_.OnRenewal(true);
      lease_seq_ = 0;
    }
    ReleaseCommitted(c.last_seq);
  }
  if (out.fenced_by != 0) {
    Demote("fenced by foreign log entry");
    return;
  }
  const uint64_t epoch = epoch_;
  if (out.append) {
    sent_place_ = out.append->prev_index + 1;
    append_issued_at_ = Now();
    append_trace_id_ = out.append->record.trace_id;
    trace_.Record(append_trace_id_, "append.issue", Now(),
                  out.append->prev_index);
    log_.Append(out.append->prev_index, std::move(out.append->record),
                [this, epoch](const Status& s, uint64_t index) {
                  if (!alive() || epoch != epoch_) return;
                  gate_->OnAppend(s, index);
                  DriveGate();
                });
  }
  if (out.read.kind != replication::LogGate::ReadKind::kNone) {
    IssueRead(out.read);
  }
  SyncDepthGauges();
}

void Node::IssueRead(replication::LogGate::Read read) {
  const uint64_t epoch = epoch_;
  if (read.later) {
    read.later = false;
    After(30 * sim::kMs, [this, epoch, read] {
      if (epoch == epoch_) IssueRead(read);
    });
    return;
  }
  if (read.kind == replication::LogGate::ReadKind::kTail) {
    log_.Tail([this, epoch](const Status& s,
                            const txlog::wire::ClientTailResponse& r) {
      if (!alive() || epoch != epoch_) return;
      gate_->OnTail(s, r);
      DriveGate();
    });
    return;
  }
  log_.Read(read.from, 256, /*wait_ms=*/0,
            [this, epoch](const Status& s,
                          const txlog::wire::ClientReadResponse& r) {
              if (!alive() || epoch != epoch_) return;
              gate_->OnRead(s, r);
              DriveGate();
            });
}

// ---------------------------------------------------------------- roles

void Node::TickElection() {
  if (role_ == DbRole::kRecovering) return;
  replication::Election::Feed feed;
  feed.applied = applied_index_;
  feed.commit = commit_seen_;
  feed.diverged = checksum_violation_;
  feed.blocked = version_blocked_;
  replication::Election::Output out = election_.Tick(Now(), feed);
  if (out.expired) {
    Demote(stepping_down_ ? "stepped down" : "lease expired");
    return;
  }
  if (out.renew) {
    lease_seq_ = next_batch_seq_++;
    lease_enqueued_at_ = Now();
    SubmitToGate(lease_seq_, txlog::RecordType::kLease, "");
  }
  if (out.claim) Claim(std::move(*out.claim));
}

void Node::BecomePrimary(uint64_t leadership_index) {
  // This node's kLeadership record holds the open record's place.
  if (open_index_ != 0) SettleOpenRecord(false);
  ++epoch_;
  poll_in_flight_ = false;
  role_ = DbRole::kPrimary;
  known_primary_ = id();
  ++stats_.promotions;
  if (campaign_started_at_ != 0) {
    election_hist_->Record(Now() - campaign_started_at_);
    campaign_started_at_ = 0;
  }
  metrics_.GetCounter("node_promotions_total")->Increment();
  SyncRoleInfo();
  applied_index_ = leadership_index;
  stepping_down_ = false;
  // The chain starts at our own kLeadership record, and so does the §7.2.1
  // chain: the replica verified it through applied_index_. Each simulated
  // shard has its own log, so every foreign lease record fences.
  replication::LogGate::Options gopt;
  gopt.writer_id = id();
  gopt.checksum_every = config_.checksum_every;
  gopt.checksum_seed = running_checksum_;
  gate_ = std::make_unique<replication::LogGate>(std::move(gopt));
  gate_->Start(leadership_index);
  TickElection();  // the first renewal goes out now
}

void Node::Demote(const std::string& reason) {
  ++epoch_;
  ++stats_.demotions;
  role_ = DbRole::kRecovering;
  poll_in_flight_ = false;
  // Writes executed locally but never acknowledged must not become visible;
  // their clients get an error and the dataset is rebuilt from durable
  // state (§3.2: failed commits are never acknowledged). The record in
  // flight may still land right after the index it is chained to: its
  // writes, and every reply parked behind them, wait until the log shows
  // what holds that place (SettleOpenRecord).
  parked_error_ =
      Value::Error("UNAVAILABLE primary demoted (" + reason + ")").Encode();
  if (gate_ != nullptr && gate_->inflight() &&
      sent_place_ == gate_->prev_index() + 1) {
    open_index_ = sent_place_;
    open_through_ = gate_->taken_seq();
  } else {
    FailParked();
  }
  metrics_.GetCounter("node_demotions_total")->Increment();
  SyncDepthGauges();
  StartRecovery();
}

void Node::SettleOpenRecord(bool landed) {
  open_index_ = 0;
  if (landed) ReleaseCommitted(open_through_);
  FailParked();
}

void Node::FailParked() {
  tracker_.FailAll(&releases_);
  for (const replication::CommitTracker::Release& r : releases_) {
    Reply(waiting_.at(r.owner).request, parked_error_);
  }
  releases_.clear();
  waiting_.clear();
}

void Node::StepDown() {
  if (role_ != DbRole::kPrimary || stepping_down_) return;
  stepping_down_ = true;
  election_.Release();
  // Append a durable lease release; on commit we demote and any replica
  // observing it becomes immediately eligible to campaign.
  release_seq_ = next_batch_seq_++;
  SubmitToGate(release_seq_, txlog::RecordType::kLease, "release");
}

void Node::Claim(replication::Election::Claim claim) {
  campaign_started_at_ = Now();
  metrics_.GetCounter("node_campaigns_total")->Increment();
  // Unless the record a demotion left open owns the claim's request id: its
  // late landing must then fail this append's precondition instead of
  // answering it from the log service's dedup table. The log client stamps
  // an id of 0 with one above any log index.
  if (claim.record.request_id == open_index_) claim.record.request_id = 0;
  const uint64_t epoch = epoch_;
  log_.Append(claim.prev_index, std::move(claim.record),
              [this, epoch](const Status& s, uint64_t index) {
                if (!alive() || epoch != epoch_ ||
                    role_ != DbRole::kReplica) {
                  return;
                }
                // Lost the race or not actually caught up: keep tailing.
                election_.OnClaim(Now(), s.ok());
                if (s.ok()) BecomePrimary(index);
              });
}

// ---------------------------------------------------------------- replica

void Node::PollLog() {
  if (poll_in_flight_ || version_blocked_) return;
  poll_in_flight_ = true;
  const uint64_t epoch = epoch_;
  log_.Read(
      applied_index_ + 1, 256, /*wait_ms=*/0,
      [this, epoch](const Status& s, const txlog::wire::ClientReadResponse& r) {
        if (!alive() || epoch != epoch_) return;
        poll_in_flight_ = false;
        if (role_ != DbRole::kReplica) return;
        if (!s.ok()) return;
        if (r.first_index > applied_index_ + 1) {
          // The log was trimmed past us; we must restore from a snapshot.
          StartRecovery();
          return;
        }
        size_t effects_applied = 0;
        for (const txlog::LogEntry& e : r.entries) {
          effects_applied += ApplyEntry(e);
          if (version_blocked_) break;
        }
        if (effects_applied > 0) {
          metrics_.GetCounter("node_effects_applied_total")
              ->Increment(effects_applied);
        }
        metrics_.GetGauge("node_replication_lag")
            ->Set(static_cast<int64_t>(
                r.commit_index > applied_index_
                    ? r.commit_index - applied_index_
                    : 0));
        commit_seen_ = r.commit_index;
        if (!r.entries.empty() && !caught_up()) {
          // Replay burns replica CPU: throttle the next batch by the
          // engine cost of what was just applied.
          const sim::Duration replay_cost =
              effects_applied * config_.engine_write_cost_ns / 1000;
          After(replay_cost, [this] { PollLog(); });
        }
      });
}

size_t Node::ApplyEntry(const txlog::LogEntry& entry) {
  if (entry.index == open_index_) {
    SettleOpenRecord(entry.record.writer == id() &&
                     entry.record.request_id == open_index_);
  }
  if (entry.record.type == txlog::RecordType::kData) {
    Decoder dec(entry.record.payload);
    std::string version;
    if (dec.GetLengthPrefixed(&version) &&
        CompareEngineVersions(version, config_.engine_version) > 0) {
      // Replication stream produced by a newer engine: stop consuming
      // (§7.1 upgrade protection) — do not advance applied_index_.
      version_blocked_ = true;
      return 0;
    }
  }
  size_t effects_applied = 0;
  if (!replication::ReplayEntry(entry, Now() / 1000, &engine_,
                                &running_checksum_, &effects_applied)
           .ok()) {
    checksum_violation_ = true;
  }
  switch (entry.record.type) {
    case txlog::RecordType::kLease:
    case txlog::RecordType::kLeadership: {
      // The holder's claim and renewals are its liveness (§4.1); a release
      // hands leadership over, so peers claim as soon as caught up.
      const bool release = entry.record.type == txlog::RecordType::kLease &&
                           entry.record.payload == "release";
      election_.OnLeaseRecord(Now(), entry.record.writer, release);
      if (!release) known_primary_ = static_cast<NodeId>(entry.record.writer);
      break;
    }
    case txlog::RecordType::kSlotOwnership:
      // 2PC progress is durable in the log (§5.2): replicas track it so a
      // promoted primary resumes the transfer protocol where it stopped.
      ApplySlotOwnershipRecord(entry.record);
      break;
    default:
      break;
  }
  applied_index_ = entry.index;
  return effects_applied;
}

// ---------------------------------------------------------------- recovery

void Node::StartRecovery() {
  ++stats_.recoveries;
  role_ = DbRole::kRecovering;
  SyncRoleInfo();
  const uint64_t epoch = ++epoch_;
  engine_.keyspace().Clear();
  applied_index_ = 0;
  running_checksum_ = 0;
  commit_seen_ = UINT64_MAX;
  poll_in_flight_ = false;
  gate_.reset();
  log_.CancelAppends();
  lease_seq_ = 0;
  release_seq_ = 0;

  if (!s3_.valid()) {
    FinishRecovery();
    return;
  }
  // Fetch and load the latest snapshot, then replay the log from its
  // recorded position — a purely local process (§4.2.1). No snapshot, or
  // one that does not load, is a cold start: replay from the log's start.
  s3_.GetLatest(
      "snap/" + config_.shard_id + "/",
      [this, epoch](const Status& s, const std::string& blob) {
        if (!alive() || epoch != epoch_) return;
        engine::SnapshotMeta meta;
        if (s.ok() &&
            DeserializeSnapshot(blob, &engine_.keyspace(), &meta).ok()) {
          applied_index_ = meta.log_position;
          running_checksum_ = meta.log_running_checksum;
          // The snapshot covers the open record's place, so the log can no
          // longer show what holds it.
          if (open_index_ != 0 && open_index_ <= applied_index_) {
            SettleOpenRecord(false);
          }
        } else {
          engine_.keyspace().Clear();
        }
        FinishRecovery();
      });
}

void Node::FinishRecovery() {
  role_ = DbRole::kReplica;
  SyncRoleInfo();
  // The designated bootstrap node claims without waiting out a backoff
  // until it first sees a lease record.
  election_.Monitor(Now(), config_.bootstrap_as_primary &&
                               stats_.promotions == 0);
  PollLog();
}

}  // namespace memdb::memorydb
