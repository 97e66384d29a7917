#include "txlog/raft_core.h"

#include <algorithm>
#include <functional>

namespace memdb::txlog {

RaftCore::RaftCore(RaftConfig config, RaftPersistentState state,
                   MetricsRegistry* metrics, TraceLog* trace)
    : config_(config),
      state_(std::move(state)),
      rng_(config.seed),
      metrics_(metrics),
      trace_(trace) {
  elections_started_ = metrics_->GetCounter("raft_elections_started_total");
  leader_elected_ = metrics_->GetCounter("raft_leader_elected_total");
  client_appends_ = metrics_->GetCounter("txlog_client_appends_total");
  entries_replicated_ = metrics_->GetCounter("raft_entries_replicated_total");
  dedup_hits_ = metrics_->GetCounter("txlog_dedup_hits_total");
  dedup_evictions_ = metrics_->GetCounter("txlog_dedup_evictions_total");
  trims_ = metrics_->GetCounter("txlog_trims_total");
  dedup_entries_gauge_ = metrics_->GetGauge("txlog_dedup_entries");
  base_index_gauge_ = metrics_->GetGauge("txlog_base_index");
  term_gauge_ = metrics_->GetGauge("raft_term");
  commit_gauge_ = metrics_->GetGauge("raft_commit_index");
  role_gauge_ = metrics_->GetGauge("raft_role");
  commit_latency_ = metrics_->GetHistogram("txlog_commit_latency_us");

  // Everything loaded is on disk, and history below the base committed
  // before it was trimmed: the base is a committed floor across restarts.
  durable_index_ = last_index();
  commit_index_ = state_.base_index;
  for (const LogEntry& e : state_.log) DedupInsert(e.record, e.index);
  term_gauge_->Set(static_cast<int64_t>(state_.current_term));
  commit_gauge_->Set(static_cast<int64_t>(commit_index_));
  base_index_gauge_->Set(static_cast<int64_t>(state_.base_index));
  SetRole(Role::kFollower);
}

// --------------------------------------------------------------- log access

const LogEntry* RaftCore::entry(uint64_t index) const {
  if (index <= state_.base_index || index > last_index()) return nullptr;
  return &state_.log[index - state_.base_index - 1];
}

uint64_t RaftCore::TermAt(uint64_t index) const {
  if (index == state_.base_index) return state_.base_term;
  const LogEntry* e = entry(index);
  return e != nullptr ? e->term : 0;
}

void RaftCore::AppendEntry(LogEntry&& e) {
  const uint64_t index = e.index;
  DedupInsert(e.record, index);
  state_.log.push_back(std::move(e));
  if (out_.log.from == 0 || index < out_.log.from) out_.log.from = index;
}

uint64_t RaftCore::AppendLocal(LogRecord&& record) {
  AppendEntry({state_.current_term, last_index() + 1, std::move(record)});
  return last_index();
}

void RaftCore::TruncateSuffixFrom(uint64_t index) {
  while (last_index() >= index && !state_.log.empty()) {
    const LogEntry& e = state_.log.back();
    auto d = dedup_.find({e.record.writer, e.record.request_id});
    if (d != dedup_.end() && d->second == e.index) dedup_.erase(d);
    for (uint64_t token : pending_[e.index]) {
      Resolve(token, wire::ClientResult::kNotLeader, 0);
    }
    pending_.erase(e.index);
    received_at_.erase(e.index);
    state_.log.pop_back();
  }
  durable_index_ = std::min(durable_index_, last_index());
  // Acks still waiting on dropped entries vouch for a log that is gone; the
  // truncation came from a newer leader, so they answer no, in its term.
  for (auto it = pending_replies_.begin(); it != pending_replies_.end();) {
    if (it->match < index) {
      ++it;
      continue;
    }
    AnswerAppend(it->token, false, std::min(index - 1, durable_index_));
    it = pending_replies_.erase(it);
  }
  ++log_gen_;
  out_.log.truncated = true;
  if (out_.log.from == 0 || index < out_.log.from) out_.log.from = index;
  dedup_entries_gauge_->Set(static_cast<int64_t>(dedup_.size()));
}

void RaftCore::DedupInsert(const LogRecord& record, uint64_t index) {
  if (record.writer == 0 && record.request_id == 0) return;
  const std::pair<uint64_t, uint64_t> key{record.writer, record.request_id};
  dedup_[key] = index;
  dedup_order_.emplace_back(key, index);
  if (config_.dedup_max_entries > 0) {
    while (dedup_.size() > config_.dedup_max_entries &&
           !dedup_order_.empty()) {
      const auto& [old_key, old_index] = dedup_order_.front();
      auto it = dedup_.find(old_key);
      // Only evict if this slot still describes the live mapping.
      if (it != dedup_.end() && it->second == old_index) {
        dedup_.erase(it);
        dedup_evictions_->Increment();
      }
      dedup_order_.pop_front();
    }
  }
  dedup_entries_gauge_->Set(static_cast<int64_t>(dedup_.size()));
}

size_t RaftCore::BatchSize(uint64_t from, uint64_t until,
                           size_t max_count) const {
  size_t count = 0;
  size_t bytes = 0;
  for (uint64_t i = from; i <= until && count < max_count; ++i) {
    bytes += entry(i)->record.payload.size();
    if (count > 0 && bytes > kMaxBatchBytes) break;
    ++count;
  }
  return count;
}

// --------------------------------------------------------------- roles

void RaftCore::SetRole(Role role) {
  role_ = role;
  role_gauge_->Set(static_cast<int64_t>(role));
}

void RaftCore::ResetElectionTimer(uint64_t now) {
  election_deadline_ =
      now + rng_.UniformRange(config_.election_timeout_min,
                              config_.election_timeout_max);
}

void RaftCore::Start(uint64_t now, std::vector<NodeId> peers) {
  peers_ = std::move(peers);
  started_ = true;
  ResetElectionTimer(now);
}

void RaftCore::Tick(uint64_t now) {
  if (!started_) return;
  if (role_ == Role::kLeader) {
    if (now >= heartbeat_deadline_) {
      BroadcastAppendEntries();
      heartbeat_deadline_ = now + config_.heartbeat_interval;
    }
  } else if (now >= election_deadline_) {
    StartElection(now);
  }
}

void RaftCore::BecomeFollower(uint64_t now, uint64_t term) {
  if (term > state_.current_term) {
    state_.current_term = term;
    state_.voted_for = wire::kNoNode;
    out_.write_meta = true;
    term_gauge_->Set(static_cast<int64_t>(term));
  }
  const bool was_leader = role_ == Role::kLeader;
  SetRole(Role::kFollower);
  ++epoch_;
  votes_.clear();
  barrier_index_ = 0;
  if (was_leader) FailPending();
  ResetElectionTimer(now);
}

void RaftCore::StartElection(uint64_t now) {
  SetRole(Role::kCandidate);
  ++state_.current_term;
  state_.voted_for = config_.self;
  out_.write_meta = true;
  term_gauge_->Set(static_cast<int64_t>(state_.current_term));
  elections_started_->Increment();
  ++epoch_;
  votes_.assign(1, config_.self);
  if (votes_.size() >= Majority()) {
    BecomeLeader(now);
    return;
  }
  ResetElectionTimer(now);

  wire::VoteRequest req;
  req.term = state_.current_term;
  req.candidate = config_.self;
  req.last_log_index = last_index();
  req.last_log_term = TermAt(last_index());
  const std::string payload = req.Encode();
  for (NodeId peer : peers_) {
    out_.sends.push_back({peer, SendKind::kVote, epoch_, payload});
  }
}

void RaftCore::OnVoteRequest(uint64_t now, uint64_t token,
                             const wire::VoteRequest& req) {
  if (req.term > state_.current_term) BecomeFollower(now, req.term);
  wire::VoteResponse resp;
  resp.term = state_.current_term;
  const uint64_t my_last_term = TermAt(last_index());
  const bool up_to_date =
      req.last_log_term > my_last_term ||
      (req.last_log_term == my_last_term &&
       req.last_log_index >= last_index());
  if (req.term == state_.current_term &&
      (state_.voted_for == wire::kNoNode ||
       state_.voted_for == req.candidate) &&
      up_to_date) {
    resp.granted = true;
    if (state_.voted_for != req.candidate) {
      state_.voted_for = req.candidate;
      out_.write_meta = true;
    }
    ResetElectionTimer(now);
  }
  out_.replies.push_back({token, resp.Encode()});
}

void RaftCore::OnVoteResponse(uint64_t now, NodeId from, uint64_t epoch,
                              const wire::VoteResponse& resp) {
  if (epoch != epoch_ || role_ != Role::kCandidate) return;
  if (resp.term > state_.current_term) {
    BecomeFollower(now, resp.term);
    return;
  }
  if (!resp.granted || resp.term != state_.current_term ||
      std::find(votes_.begin(), votes_.end(), from) != votes_.end()) {
    return;
  }
  votes_.push_back(from);
  if (votes_.size() >= Majority()) BecomeLeader(now);
}

void RaftCore::BecomeLeader(uint64_t now) {
  SetRole(Role::kLeader);
  leader_elected_->Increment();
  leader_hint_ = config_.self;
  ++epoch_;
  for (NodeId peer : peers_) {
    Peer& p = peer_state_[peer];
    p.next = last_index() + 1;
    p.match = 0;
    p.inflight = false;
    p.sent = 0;
  }
  // Leader-completeness barrier: a no-op in the new term. Appends, Tail and
  // leases stay Unavailable until it commits, which proves every entry from
  // earlier terms that could have committed is committed.
  LogRecord barrier;
  barrier.type = RecordType::kNoop;
  barrier_index_ = AppendLocal(std::move(barrier));
  BroadcastAppendEntries();
  heartbeat_deadline_ = now + config_.heartbeat_interval;
}

// --------------------------------------------------------------- leader

void RaftCore::BroadcastAppendEntries() {
  for (NodeId peer : peers_) SendAppendEntries(peer);
}

void RaftCore::SendAppendEntries(NodeId peer) {
  Peer& p = peer_state_[peer];
  if (role_ != Role::kLeader || p.inflight) return;
  p.next = std::max(p.next, state_.base_index + 1);
  const uint64_t first = p.next;
  wire::AppendEntriesRequest req;
  req.term = state_.current_term;
  req.leader = config_.self;
  req.prev_index = first - 1;
  req.prev_term = TermAt(first - 1);
  req.commit_index = commit_index_;
  p.sent = BatchSize(first, last_index(), kMaxAppendEntries);
  p.inflight = true;
  out_.sends.push_back(
      {peer, SendKind::kAppendEntries, epoch_,
       req.EncodeWith(p.sent, [this, first](size_t i) -> const LogEntry& {
         return *entry(first + i);
       })});
}

void RaftCore::OnAppendEntriesResponse(
    uint64_t now, NodeId from, uint64_t epoch,
    const wire::AppendEntriesResponse* resp) {
  if (epoch != epoch_ || role_ != Role::kLeader) return;
  auto it = peer_state_.find(from);
  if (it == peer_state_.end()) return;
  Peer& p = it->second;
  p.inflight = false;
  if (resp == nullptr) return;  // the next heartbeat retries
  if (resp->term > state_.current_term) {
    BecomeFollower(now, resp->term);
    return;
  }
  if (resp->success) {
    if (p.sent > 0) entries_replicated_->Increment(p.sent);
    p.match = std::max(p.match, resp->match_index);
    p.next = p.match + 1;
    if (p.lag == nullptr) {
      p.lag = metrics_->GetGauge("raft_replication_lag",
                                 {{"peer", std::to_string(from)}});
    }
    p.lag->Set(static_cast<int64_t>(last_index() - p.match));
    AdvanceCommitIndex(now);
    if (p.next <= last_index()) SendAppendEntries(from);
  } else {
    // The follower's log diverges: back up (bounded below by its hint and
    // by our base) and retry at once.
    p.next = std::max(state_.base_index + 1,
                      std::min(p.next - 1, resp->match_index + 1));
    SendAppendEntries(from);
  }
}

void RaftCore::SetCommit(uint64_t index) {
  commit_index_ = index;
  commit_gauge_->Set(static_cast<int64_t>(index));
  out_.committed = true;
}

void RaftCore::AdvanceCommitIndex(uint64_t now) {
  if (role_ != Role::kLeader) return;
  std::vector<uint64_t> matches{durable_index_};
  for (NodeId peer : peers_) matches.push_back(peer_state_[peer].match);
  std::sort(matches.begin(), matches.end(), std::greater<uint64_t>());
  const uint64_t candidate = matches[Majority() - 1];
  // Only entries of the current term commit by counting replicas (Raft
  // §5.4.2); earlier-term entries commit transitively.
  if (candidate <= commit_index_ ||
      TermAt(candidate) != state_.current_term) {
    return;
  }
  SetCommit(candidate);
  while (!pending_.empty() && pending_.begin()->first <= commit_index_) {
    const uint64_t index = pending_.begin()->first;
    const std::vector<uint64_t> tokens = std::move(pending_.begin()->second);
    pending_.erase(pending_.begin());
    auto t0 = received_at_.find(index);
    if (t0 != received_at_.end()) {
      commit_latency_->Record(now - t0->second);
      received_at_.erase(t0);
    }
    if (const LogEntry* e = entry(index)) {
      trace_->Record(e->record.trace_id, "log.quorum.commit", now, index);
    }
    for (uint64_t token : tokens) {
      Resolve(token, wire::ClientResult::kOk, index);
    }
  }
}

void RaftCore::Resolve(uint64_t token, wire::ClientResult result,
                       uint64_t index) {
  out_.outcomes.push_back({token, result, index, leader_hint_});
}

void RaftCore::FailPending() {
  std::map<uint64_t, std::vector<uint64_t>> pending;
  pending.swap(pending_);
  received_at_.clear();
  for (const auto& [index, tokens] : pending) {
    for (uint64_t token : tokens) {
      Resolve(token, wire::ClientResult::kNotLeader, 0);
    }
  }
}

// --------------------------------------------------------------- follower

void RaftCore::OnAppendEntries(uint64_t now, uint64_t token,
                               wire::AppendEntriesRequest&& req) {
  if (req.term < state_.current_term) {
    AnswerAppend(token, false, 0);
    return;
  }
  if (req.term > state_.current_term || role_ != Role::kFollower) {
    BecomeFollower(now, req.term);
  } else {
    ResetElectionTimer(now);
  }
  leader_hint_ = req.leader;

  // Consistency check on the previous entry.
  if (req.prev_index > last_index() ||
      (req.prev_index > state_.base_index &&
       TermAt(req.prev_index) != req.prev_term)) {
    AnswerAppend(token, false,
                 std::min(req.prev_index > 0 ? req.prev_index - 1 : 0,
                          durable_index_));
    return;
  }

  // Append, resolving conflicts by truncation. `covered` is the last index
  // this request vouches for — the success reply's match (Raft §5.3), never
  // the whole local log, whose tail may still hold a stale term's entries.
  uint64_t covered = req.prev_index;
  size_t appended = 0;
  for (LogEntry& e : req.entries) {
    if (e.index != covered + 1) break;  // not contiguous: ignore the rest
    covered = e.index;
    if (e.index <= state_.base_index) continue;
    if (e.index <= last_index()) {
      if (TermAt(e.index) == e.term) continue;  // already have it
      TruncateSuffixFrom(e.index);
    }
    AppendEntry(std::move(e));
    ++appended;
  }
  if (appended > 0) entries_replicated_->Increment(appended);
  pending_replies_.push_back({token, covered, req.commit_index});
  ReleaseReplies();
}

void RaftCore::AnswerAppend(uint64_t token, bool success, uint64_t match) {
  wire::AppendEntriesResponse resp;
  resp.term = state_.current_term;
  resp.success = success;
  resp.match_index = match;
  out_.replies.push_back({token, resp.Encode()});
}

void RaftCore::ReleaseReplies() {
  for (auto it = pending_replies_.begin(); it != pending_replies_.end();) {
    if (it->match > durable_index_) {
      ++it;
      continue;
    }
    const uint64_t commit = std::min(it->leader_commit, it->match);
    if (role_ != Role::kLeader && commit > commit_index_) SetCommit(commit);
    AnswerAppend(it->token, true, it->match);
    it = pending_replies_.erase(it);
  }
}

void RaftCore::OnPersisted(uint64_t now, uint64_t to, uint64_t gen) {
  if (gen != log_gen_) return;  // a truncation overtook this write
  to = std::min(to, last_index());
  if (to <= durable_index_) return;
  const uint64_t from = std::max(durable_index_, state_.base_index) + 1;
  durable_index_ = to;
  const char* stage = role_ == Role::kLeader ? "log.durable.local"
                                             : "log.follower.durable";
  for (uint64_t i = from; i <= to; ++i) {
    trace_->Record(entry(i)->record.trace_id, stage, now, i);
  }
  AdvanceCommitIndex(now);
  ReleaseReplies();
}

// --------------------------------------------------------------- client API

void RaftCore::Propose(uint64_t now, uint64_t token, uint64_t prev_index,
                       LogRecord&& record) {
  client_appends_->Increment();
  if (role_ != Role::kLeader) {
    Resolve(token, wire::ClientResult::kNotLeader, 0);
    return;
  }
  // Idempotent retry: if this (writer, request_id) already entered the log,
  // answer with the original index instead of appending a duplicate. This
  // is what makes a retried append after a dropped ack safe (§3.1).
  if (record.writer != 0 && record.request_id != 0) {
    auto it = dedup_.find({record.writer, record.request_id});
    if (it != dedup_.end()) {
      dedup_hits_->Increment();
      if (it->second <= commit_index_) {
        Resolve(token, wire::ClientResult::kOk, it->second);
      } else {
        pending_[it->second].push_back(token);
      }
      return;
    }
  }
  if (commit_index_ < barrier_index_) {
    Resolve(token, wire::ClientResult::kUnavailable, 0);
    return;
  }
  if (prev_index != wire::kUnconditional && prev_index != last_index()) {
    Resolve(token, wire::ClientResult::kConditionFailed, last_index());
    return;
  }
  const uint64_t trace_id = record.trace_id;
  const uint64_t index = AppendLocal(std::move(record));
  trace_->Record(trace_id, "log.append.receive", now, index);
  received_at_[index] = now;
  pending_[index].push_back(token);
  BroadcastAppendEntries();
}

uint64_t RaftCore::Trim(uint64_t upto) {
  upto = std::min(upto, commit_index_);
  // A leader keeps everything a lagging follower still needs: there is no
  // snapshot-install path to catch one up once its history is gone.
  if (role_ == Role::kLeader) {
    for (NodeId peer : peers_) upto = std::min(upto, peer_state_[peer].match);
  }
  if (upto > state_.base_index) {
    state_.base_term = TermAt(upto);
    while (state_.base_index < upto && !state_.log.empty()) {
      state_.log.pop_front();
      ++state_.base_index;
    }
    base_index_gauge_->Set(static_cast<int64_t>(state_.base_index));
    trims_->Increment();
    out_.write_meta = true;
    out_.compact = true;
  }
  return state_.base_index + 1;
}

wire::ClientResult RaftCore::LeaderStatus() const {
  if (role_ != Role::kLeader) return wire::ClientResult::kNotLeader;
  if (commit_index_ < barrier_index_) return wire::ClientResult::kUnavailable;
  return wire::ClientResult::kOk;
}

wire::ClientTailResponse RaftCore::Tail() const {
  wire::ClientTailResponse resp;
  resp.result = LeaderStatus();
  resp.commit_index = commit_index_;
  resp.last_index = last_index();
  resp.leader_hint = leader_hint_;
  return resp;
}

std::string RaftCore::EncodeRead(uint64_t from, uint64_t max_count) const {
  wire::ClientReadResponse resp;
  resp.commit_index = commit_index_;
  resp.first_index = state_.base_index + 1;
  const uint64_t first = std::max(from, state_.base_index + 1);
  if (first <= commit_index_) {
    resp.entries = CommittedEntries(
        first, BatchSize(first, commit_index_,
                         std::min<uint64_t>(max_count, kMaxReadEntries)));
  }
  return resp.Encode();
}

std::vector<LogEntry> RaftCore::CommittedEntries(uint64_t from,
                                                 size_t count) const {
  std::vector<LogEntry> out;
  for (uint64_t i = std::max(from, state_.base_index + 1);
       i <= commit_index_ && out.size() < count; ++i) {
    out.push_back(*entry(i));
  }
  return out;
}

// --------------------------------------------------------------- output

bool RaftCore::HasOutput() const {
  return out_.write_meta || out_.compact || out_.log.from != 0 ||
         !out_.sends.empty() || !out_.replies.empty() ||
         !out_.outcomes.empty() || out_.committed;
}

RaftCore::Output RaftCore::TakeOutput() {
  Output out = std::move(out_);
  out_ = Output();
  if (out.log.from != 0) {
    out.log.to = last_index();
    out.log.gen = log_gen_;
  }
  return out;
}

RaftPersistentState RaftCore::TakeDurableState() && {
  const uint64_t keep = durable_index_ > state_.base_index
                            ? durable_index_ - state_.base_index
                            : 0;
  while (state_.log.size() > keep) state_.log.pop_back();
  return std::move(state_);
}

}  // namespace memdb::txlog
