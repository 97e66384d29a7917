#include "net/remote_log_gate.h"

#include <chrono>
#include <utility>

#include "common/coding.h"
#include "common/crc.h"
#include "replication/recovery.h"

namespace memdb::net {

namespace {
uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

RemoteLogGate::RemoteLogGate(Options options, MetricsRegistry* registry)
    : options_(std::move(options)),
      running_checksum_(options_.checksum_seed) {
  if (registry != nullptr) {
    registry->SetHelp("txlog_gate_appends_total",
                      "Writes submitted to the durability gate");
    appends_submitted_ = registry->GetCounter("txlog_gate_appends_total");
    appends_failed_ = registry->GetCounter("txlog_gate_append_failures_total");
    registry->SetHelp("txlog_gate_records_total",
                      "Log records the gate sent carrying submitted writes");
    records_sent_ = registry->GetCounter("txlog_gate_records_total");
    registry->SetHelp("txlog_gate_record_writes",
                      "Submitted writes carried per log record");
    record_writes_ = registry->GetHistogram("txlog_gate_record_writes");
    queue_depth_ = registry->GetGauge("txlog_gate_queue_depth");
    checksum_records_ = registry->GetCounter("txlog_checksum_records_total");
    log_consumers_ = registry->GetGauge("repl_log_consumers");
    tail_commit_ = registry->GetGauge("txlog_tail_commit_index");
  }
  // RemoteClient resolves its rpc_* instruments here too — before Start()
  // spawns the loop thread, so registry mutation stays single-threaded.
  txlog::RemoteClient::Options copt;
  copt.writer_id = options_.writer_id;
  copt.rpc_timeout_ms = options_.rpc_timeout_ms;
  copt.backoff_base_ms = options_.backoff_base_ms;
  copt.backoff_cap_ms = options_.backoff_cap_ms;
  copt.max_attempts = options_.max_attempts;
  copt.max_redirects = options_.max_redirects;
  copt.trace = options_.trace;
  client_ = std::make_unique<txlog::RemoteClient>(&loop_, options_.endpoints,
                                                  copt, registry);
}

RemoteLogGate::~RemoteLogGate() { Stop(); }

Status RemoteLogGate::Start(std::function<void()> on_complete) {
  if (options_.endpoints.empty()) {
    return Status::InvalidArgument("remote log gate needs endpoints");
  }
  on_complete_ = std::move(on_complete);
  MEMDB_RETURN_IF_ERROR(loop_.Start());
  started_ = true;
  if (options_.fence) {
    // Learn the chain position before the first append. No gap scan: this
    // writer has appended nothing yet, and its claim to the tail is the
    // shard lease it acquired before the gate started (§4.1).
    loop_.Post([this] { ResolveChain(/*scan_gap=*/false,
                                     /*reissue_after=*/false); });
  }
  if (options_.tail_poll_ms > 0) {
    loop_.Post([this] { ScheduleTailPoll(); });
  }
  return Status::OK();
}

void RemoteLogGate::Stop() {
  if (!started_) return;
  started_ = false;
  stopping_.store(true, std::memory_order_release);
  client_->Shutdown();
  loop_.Stop();
}

uint64_t RemoteLogGate::SubmitAppend(std::string payload, uint64_t trace_id) {
  return SubmitTyped(txlog::RecordType::kData, std::move(payload), trace_id);
}

uint64_t RemoteLogGate::SubmitTyped(txlog::RecordType type,
                                    std::string payload, uint64_t trace_id) {
  if (appends_submitted_ != nullptr) appends_submitted_->Increment();
  submitted_.fetch_add(1, std::memory_order_acq_rel);
  MutexLock lock(&submit_mu_);
  PendingAppend p;
  p.seq = next_seq_++;
  p.trace_id = trace_id;
  p.payload = std::move(payload);
  p.type = type;
  submits_.push_back(std::move(p));
  return submits_.back().seq;
}

void RemoteLogGate::Flush() {
  {
    MutexLock lock(&submit_mu_);
    if (submits_.empty() || take_posted_) return;
    take_posted_ = true;
  }
  loop_.Post([this] { TakeSubmissions(); });
}

void RemoteLogGate::TakeSubmissions() {
  loop_.AssertOnLoopThread();
  std::vector<PendingAppend> taken;
  {
    MutexLock lock(&submit_mu_);
    taken.swap(submits_);
    take_posted_ = false;
  }
  for (PendingAppend& p : taken) queue_.push_back(std::move(p));
  if (queue_depth_ != nullptr) {
    queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  }
  Pump();
}

std::vector<RemoteLogGate::Completion> RemoteLogGate::DrainCompletions() {
  std::vector<Completion> out;
  MutexLock lock(&done_mu_);
  out.swap(done_);
  return out;
}

void RemoteLogGate::Pump() {
  loop_.AssertOnLoopThread();
  if (append_inflight_ || queue_.empty()) return;
  if (options_.fence) {
    if (fenced_.load(std::memory_order_acquire)) {
      EnterFenced();  // drains whatever queued after the fence landed
      return;
    }
    if (!prev_known_) return;  // ResolveChain() re-pumps once learned
  }
  append_inflight_ = true;
  const uint64_t issue_us = options_.trace != nullptr ? NowUs() : 0;
  const auto carry = [&](const PendingAppend& p) {
    inflight_seqs_.push_back(p.seq);
    if (options_.trace != nullptr && p.trace_id != 0) {
      // gate.submit -> gate.append.issue is this write's wait in the gate.
      options_.trace->Record(p.trace_id, "gate.append.issue", issue_us,
                             p.seq);
    }
  };

  PendingAppend head = std::move(queue_.front());
  queue_.pop_front();
  txlog::LogRecord record;
  record.type = head.type;
  record.writer = options_.writer_id;
  record.request_id = 0;  // stamped by RemoteClient; stable across retries
  record.trace_id = head.trace_id;
  record.payload = std::move(head.payload);
  if (record.type != txlog::RecordType::kChecksum) carry(head);
  if (record.type == txlog::RecordType::kData) {
    // Group commit: every data batch that queued behind the previous
    // record rides this one, in submission order.
    while (!queue_.empty()) {
      const PendingAppend& next = queue_.front();
      if (next.type != txlog::RecordType::kData ||
          record.payload.size() + next.payload.size() > kMaxRecordBytes ||
          !replication::AppendEffectBatch(&record.payload,
                                          Slice(next.payload))) {
        break;
      }
      if (record.trace_id == 0) record.trace_id = next.trace_id;
      carry(next);
      queue_.pop_front();
    }
    // Advance the chain over the record as sent (== log order; serialized).
    running_checksum_ = Crc64(running_checksum_, Slice(record.payload));
    if (options_.checksum_every > 0 &&
        ++data_since_checksum_ >= options_.checksum_every) {
      data_since_checksum_ = 0;
      // The checksum record must land right after the data it covers:
      // front of the queue, behind only the record going out now.
      PendingAppend chk;
      chk.type = txlog::RecordType::kChecksum;
      PutFixed64(&chk.payload, running_checksum_);
      queue_.push_front(std::move(chk));
      if (checksum_records_ != nullptr) checksum_records_->Increment();
    }
  }
  if (queue_depth_ != nullptr) {
    queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  }
  if (!inflight_seqs_.empty() && records_sent_ != nullptr) {
    records_sent_->Increment();
    record_writes_->Record(inflight_seqs_.size());
  }
  if (options_.fence) inflight_record_ = record;  // kept for re-issue
  const uint64_t prev =
      options_.fence ? prev_index_ : txlog::wire::kUnconditional;
  client_->Append(prev, std::move(record),
                  [this](const Status& status, uint64_t index) {
                    OnAppendDone(status, index);
                  });
}

void RemoteLogGate::Complete(const std::vector<uint64_t>& seqs,
                             const Status& status, uint64_t index) {
  loop_.AssertOnLoopThread();
  if (seqs.empty()) return;  // checksum records are invisible to completions
  if (!status.ok() && appends_failed_ != nullptr) {
    appends_failed_->Increment(seqs.size());
  }
  {
    MutexLock lock(&done_mu_);
    for (uint64_t seq : seqs) {
      Completion c;
      c.seq = seq;
      c.status = status;
      c.index = index;
      done_.push_back(std::move(c));
    }
  }
  completed_.fetch_add(seqs.size(), std::memory_order_acq_rel);
  if (on_complete_) on_complete_();
}

void RemoteLogGate::CompleteInflight(const Status& status, uint64_t index) {
  loop_.AssertOnLoopThread();
  append_inflight_ = false;
  Complete(inflight_seqs_, status, index);
  inflight_seqs_.clear();
}

void RemoteLogGate::OnAppendDone(const Status& status, uint64_t index) {
  loop_.AssertOnLoopThread();
  if (options_.fence && !status.ok() &&
      !stopping_.load(std::memory_order_acquire)) {
    if (status.IsConditionFailed()) {
      // Determinate: nothing was appended — the tail moved past our chain
      // position. The gap decides: a foreign record fences us; benign
      // movement (kNoop barriers, our own lease renewals) re-chains and
      // re-issues this same record. append_inflight_ stays true throughout.
      ResolveChain(/*scan_gap=*/true, /*reissue_after=*/true);
      return;
    }
    // Indeterminate (timeout after retries) or unavailable: the record may
    // or may not have landed, so the chain position is lost. Report the
    // failure (the server fails those clients), then re-learn the tail WITH
    // a gap scan — a foreign grant could hide in the unobserved window.
    prev_known_ = false;
    CompleteInflight(status, index);
    ResolveChain(/*scan_gap=*/true, /*reissue_after=*/false);
    return;
  }
  if (options_.fence && status.ok()) prev_index_ = index;
  // A failed checksum record carries no seqs: it just thins the chain; the
  // value travels in the payload, so consumers stay consistent either way.
  CompleteInflight(status, index);
  Pump();
}

void RemoteLogGate::ReissueInflight() {
  loop_.AssertOnLoopThread();
  if (stopping_.load(std::memory_order_acquire)) return;
  // The rejected attempt determinately did not append; a fresh request id
  // keeps the dedup table clean. The running checksum must NOT re-advance —
  // this record's payload was folded in when it first left the queue.
  txlog::LogRecord record = inflight_record_;
  record.request_id = 0;
  client_->Append(prev_index_, std::move(record),
                  [this](const Status& status, uint64_t index) {
                    OnAppendDone(status, index);
                  });
}

bool RemoteLogGate::ForeignRecord(const txlog::LogEntry& entry) const {
  const txlog::LogRecord& rec = entry.record;
  // txlogd's own barriers (kNoop) carry writer 0; everything a database
  // node wrote — data, checksum, lease records — carries its writer id.
  if (rec.writer == 0 || rec.writer == options_.writer_id) return false;
  if (rec.type == txlog::RecordType::kLease && !options_.shard_id.empty()) {
    txlog::rpcwire::LeaseGrant grant;
    if (txlog::rpcwire::LeaseGrant::Decode(Slice(rec.payload), &grant) &&
        grant.shard_id != options_.shard_id) {
      return false;  // another shard's lease traffic sharing the log
    }
  }
  return true;
}

void RemoteLogGate::ScanGap(uint64_t from, uint64_t tail,
                            std::function<void()> on_benign) {
  loop_.AssertOnLoopThread();
  if (stopping_.load(std::memory_order_acquire)) return;
  if (from > tail) {
    on_benign();
    return;
  }
  client_->Read(
      from, /*max_count=*/256, /*wait_ms=*/0,
      [this, from, tail, on_benign = std::move(on_benign)](
          const Status& status,
          const txlog::wire::ClientReadResponse& resp) mutable {
        if (stopping_.load(std::memory_order_acquire)) return;
        if (!status.ok()) {
          loop_.After(options_.backoff_base_ms,
                      [this, from, tail, on_benign = std::move(on_benign)]()
                          mutable { ScanGap(from, tail, std::move(on_benign)); });
          return;
        }
        uint64_t next = from;
        if (resp.entries.empty()) {
          if (resp.first_index > from) {
            // The gap prefix was trimmed behind a durable snapshot. Trim
            // only covers committed history old enough to be snapshotted,
            // which cannot include a fencing grant newer than our last
            // successful append: skip past it.
            next = resp.first_index;
          } else {
            // Committed (ResolveChain scans only after commit caught the
            // tail) yet unreadable: transient — retry.
            loop_.After(options_.backoff_base_ms,
                        [this, from, tail, on_benign = std::move(on_benign)]()
                            mutable {
                          ScanGap(from, tail, std::move(on_benign));
                        });
            return;
          }
        }
        for (const txlog::LogEntry& e : resp.entries) {
          if (e.index > tail) break;
          if (ForeignRecord(e)) {
            std::fprintf(stderr,
                         "remote-log-gate: foreign record (writer %llu, "
                         "type %u) at log index %llu — fenced\n",
                         static_cast<unsigned long long>(e.record.writer),
                         static_cast<unsigned>(e.record.type),
                         static_cast<unsigned long long>(e.index));
            fenced_by_.store(e.record.writer, std::memory_order_release);
            EnterFenced();
            return;
          }
          next = e.index + 1;
        }
        if (next > tail) {
          on_benign();
        } else {
          ScanGap(next, tail, std::move(on_benign));
        }
      });
}

void RemoteLogGate::ResolveChain(bool scan_gap, bool reissue_after) {
  loop_.AssertOnLoopThread();
  if (stopping_.load(std::memory_order_acquire)) return;
  if (fenced_.load(std::memory_order_acquire)) {
    EnterFenced();
    return;
  }
  client_->Tail([this, scan_gap, reissue_after](
                    const Status& status,
                    const txlog::wire::ClientTailResponse& resp) {
    if (stopping_.load(std::memory_order_acquire)) return;
    if (!status.ok()) {
      loop_.After(options_.backoff_base_ms, [this, scan_gap, reissue_after] {
        ResolveChain(scan_gap, reissue_after);
      });
      return;
    }
    if (scan_gap && resp.commit_index < resp.last_index) {
      // An uncommitted suffix could hide a foreign lease grant mid-commit.
      // Adopting the tail now would let a zombie append chain PAST that
      // grant — exactly the split-brain fencing must prevent. Wait until
      // the suffix resolves (commits, or is discarded by a leader change),
      // then scan a fully-readable gap.
      loop_.After(options_.backoff_base_ms, [this, scan_gap, reissue_after] {
        ResolveChain(scan_gap, reissue_after);
      });
      return;
    }
    const uint64_t tail = resp.last_index;
    const auto adopt = [this, tail, reissue_after] {
      prev_index_ = tail;
      prev_known_ = true;
      if (reissue_after) {
        ReissueInflight();
      } else {
        Pump();
      }
    };
    if (scan_gap && tail > prev_index_) {
      ScanGap(prev_index_ + 1, tail, adopt);
    } else {
      adopt();
    }
  });
}

void RemoteLogGate::EnterFenced() {
  loop_.AssertOnLoopThread();
  fenced_.store(true, std::memory_order_release);
  // The in-flight record's seqs precede every queued one: one ordered batch.
  std::vector<uint64_t> seqs;
  seqs.swap(inflight_seqs_);
  append_inflight_ = false;
  for (const PendingAppend& p : queue_) {
    if (p.type != txlog::RecordType::kChecksum) seqs.push_back(p.seq);
  }
  queue_.clear();
  if (queue_depth_ != nullptr) queue_depth_->Set(0);
  Complete(seqs, Status::ConditionFailed(
                     "fenced: this writer lost the shard lease"),
           0);
}

void RemoteLogGate::ScheduleTailPoll() {
  loop_.AssertOnLoopThread();
  if (stopping_.load(std::memory_order_acquire)) return;
  loop_.After(options_.tail_poll_ms, [this] {
    if (stopping_.load(std::memory_order_acquire)) return;
    client_->Tail([this](const Status& status,
                         const txlog::wire::ClientTailResponse& resp) {
      if (status.ok()) {
        if (log_consumers_ != nullptr) {
          log_consumers_->Set(static_cast<int64_t>(resp.consumers));
        }
        if (tail_commit_ != nullptr) {
          tail_commit_->Set(static_cast<int64_t>(resp.commit_index));
        }
      }
      ScheduleTailPoll();
    });
  });
}

}  // namespace memdb::net
