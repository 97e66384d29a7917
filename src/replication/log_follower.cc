#include "replication/log_follower.h"

#include <utility>

namespace memdb::replication {

namespace {
size_t EntryBytes(const txlog::LogEntry& e) {
  // Payload dominates; the fixed fields are noise for backpressure purposes.
  return e.record.payload.size() + 32;
}
}  // namespace

LogFollower::LogFollower(Options options, MetricsRegistry* registry)
    : options_(std::move(options)), next_index_(options_.start_index) {
  if (registry != nullptr) {
    lag_records_ = registry->GetGauge("repl_lag_records");
    lag_bytes_ = registry->GetGauge("repl_lag_bytes");
    link_gauge_ = registry->GetGauge("repl_link_up");
    commit_gauge_ = registry->GetGauge("repl_last_commit_index");
    fetch_errors_ = registry->GetCounter("repl_fetch_errors_total");
  }
  // RemoteClient resolves its rpc_* instruments before Start() spawns the
  // loop thread, so registry mutation stays single-threaded.
  txlog::RemoteClient::Options copt;
  copt.writer_id = 0;  // pure reader; never appends
  copt.rpc_timeout_ms = options_.rpc_timeout_ms;
  client_ = std::make_unique<txlog::RemoteClient>(&loop_, options_.endpoints,
                                                  copt, registry);
  applied_index_.store(
      options_.start_index > 0 ? options_.start_index - 1 : 0,
      std::memory_order_relaxed);
}

LogFollower::~LogFollower() { Stop(); }

Status LogFollower::Start(std::function<void()> on_entries) {
  if (options_.endpoints.empty()) {
    return Status::InvalidArgument("log follower needs endpoints");
  }
  on_entries_ = std::move(on_entries);
  MEMDB_RETURN_IF_ERROR(loop_.Start("log-follower"));
  started_ = true;
  loop_.Post([this] { IssueRead(); });
  return Status::OK();
}

void LogFollower::Stop() {
  if (!started_) return;
  started_ = false;
  stopping_.store(true, std::memory_order_release);
  client_->Shutdown();
  loop_.Stop();
}

std::vector<txlog::LogEntry> LogFollower::DrainEntries() {
  std::vector<txlog::LogEntry> out;
  bool resume = false;
  {
    MutexLock lock(&mu_);
    out.assign(std::make_move_iterator(queue_.begin()),
               std::make_move_iterator(queue_.end()));
    queue_.clear();
    resume = queued_bytes_ > kMaxQueuedBytes;
    queued_bytes_ = 0;
    if (lag_bytes_ != nullptr) lag_bytes_->Set(0);
  }
  if (resume && !stopping_.load(std::memory_order_acquire)) {
    // The fetch side paused at the cap; the drain made room.
    loop_.Post([this] {
      if (paused_) {
        paused_ = false;
        IssueRead();
      }
    });
  }
  return out;
}

void LogFollower::Append(uint64_t prev_index, txlog::LogRecord record) {
  client_->Append(prev_index, std::move(record),
                  [this](const Status& status, uint64_t index) {
                    if (stopping_.load(std::memory_order_acquire)) return;
                    {
                      MutexLock lock(&mu_);
                      append_result_ = AppendResult{status, index};
                    }
                    if (on_entries_) on_entries_();
                  });
}

std::optional<LogFollower::AppendResult> LogFollower::TakeAppendResult() {
  MutexLock lock(&mu_);
  std::optional<AppendResult> out = std::move(append_result_);
  append_result_.reset();
  return out;
}

void LogFollower::NoteApplied(uint64_t applied_index) {
  applied_index_.store(applied_index, std::memory_order_release);
  const uint64_t commit = last_commit_index_.load(std::memory_order_acquire);
  if (lag_records_ != nullptr) {
    lag_records_->Set(commit > applied_index
                          ? static_cast<int64_t>(commit - applied_index)
                          : 0);
  }
}

void LogFollower::IssueRead() {
  loop_.AssertOnLoopThread();
  if (read_inflight_ || paused_ ||
      stopping_.load(std::memory_order_acquire)) {
    return;
  }
  {
    MutexLock lock(&mu_);
    if (queued_bytes_ > kMaxQueuedBytes) {
      paused_ = true;  // DrainEntries resumes us
      return;
    }
  }
  read_inflight_ = true;
  client_->Read(next_index_, kMaxBatch, options_.poll_wait_ms,
                [this](const Status& s,
                       const txlog::wire::ClientReadResponse& resp) {
                  OnReadDone(s, resp);
                });
}

void LogFollower::OnReadDone(const Status& status,
                             const txlog::wire::ClientReadResponse& resp) {
  loop_.AssertOnLoopThread();
  read_inflight_ = false;
  if (stopping_.load(std::memory_order_acquire)) return;

  if (!status.ok()) {
    link_up_.store(false, std::memory_order_release);
    if (link_gauge_ != nullptr) link_gauge_->Set(0);
    if (fetch_errors_ != nullptr) fetch_errors_->Increment();
    loop_.After(kRetryBackoffMs, [this] { IssueRead(); });
    return;
  }

  link_up_.store(true, std::memory_order_release);
  if (link_gauge_ != nullptr) link_gauge_->Set(1);
  last_commit_index_.store(resp.commit_index, std::memory_order_release);
  fed_.store(true, std::memory_order_release);
  if (commit_gauge_ != nullptr) {
    commit_gauge_->Set(static_cast<int64_t>(resp.commit_index));
  }

  if (resp.first_index > next_index_) {
    // The group trimmed history we still need; following cannot recover
    // from this — the process must restart with --restore.
    log_trimmed_.store(true, std::memory_order_release);
    link_up_.store(false, std::memory_order_release);
    if (link_gauge_ != nullptr) link_gauge_->Set(0);
    if (on_entries_) on_entries_();  // let the server notice and log
    return;
  }

  size_t added = 0;
  {
    MutexLock lock(&mu_);
    for (const txlog::LogEntry& e : resp.entries) {
      if (e.index < next_index_) continue;  // overlap from a retried read
      queue_.push_back(e);
      queued_bytes_ += EntryBytes(e);
      next_index_ = e.index + 1;
      ++added;
    }
    if (lag_bytes_ != nullptr) {
      lag_bytes_->Set(static_cast<int64_t>(queued_bytes_));
    }
  }
  // Refresh record lag against the commit index just observed (the applier
  // also refreshes on NoteApplied; both write the same monotonic inputs).
  NoteApplied(applied_index_.load(std::memory_order_acquire));
  if (added > 0 && on_entries_) on_entries_();
  IssueRead();
}

}  // namespace memdb::replication
