#include "net/remote_log_gate.h"

#include <chrono>
#include <cstdio>
#include <utility>

namespace memdb::net {

namespace {
uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

RemoteLogGate::RemoteLogGate(rpc::LoopThread* loop, Options options,
                             MetricsRegistry* registry)
    : loop_(loop),
      options_(std::move(options)),
      core_({options_.writer_id, options_.checksum_every,
             options_.checksum_seed}) {
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
  client_ = std::make_unique<txlog::RemoteClient>(loop_, options_.endpoints,
                                                  options_, registry);
}

RemoteLogGate::~RemoteLogGate() { Stop(); }

Status RemoteLogGate::Start(CompletionCallback on_complete, uint64_t anchor) {
  loop_->AssertOnLoopThread();
  if (options_.endpoints.empty()) {
    return Status::InvalidArgument("remote log gate needs endpoints");
  }
  on_complete_ = std::move(on_complete);
  started_ = true;
  // A failover node chains on its own kLeadership record (§4.1); any other
  // learns the tail before the first append, with no gap scan: it has
  // appended nothing yet.
  if (anchor != 0) {
    core_.Start(anchor);
  } else {
    core_.Start();
  }
  Drive();
  if (options_.tail_poll_ms > 0) ScheduleTailPoll();
  return Status::OK();
}

void RemoteLogGate::Stop() {
  if (!started_) return;
  loop_->AssertOnLoopThread();
  started_ = false;
  stopping_ = true;
  client_->Close();
}

uint64_t RemoteLogGate::SubmitAppend(std::string payload, uint64_t trace_id) {
  return SubmitTyped(txlog::RecordType::kData, std::move(payload), trace_id);
}

uint64_t RemoteLogGate::SubmitTyped(txlog::RecordType type,
                                    std::string payload, uint64_t trace_id) {
  loop_->AssertOnLoopThread();
  if (appends_submitted_ != nullptr) appends_submitted_->Increment();
  submitted_.fetch_add(1, std::memory_order_acq_rel);
  const uint64_t seq = next_seq_++;
  core_.Submit(seq, type, std::move(payload), trace_id);
  return seq;
}

void RemoteLogGate::Drive() {
  loop_->AssertOnLoopThread();
  replication::LogGate::Output out = core_.TakeOutput();
  if (queue_depth_ != nullptr) {
    queue_depth_->Set(static_cast<int64_t>(core_.queued()));
  }
  if (out.fenced_by != 0) {
    std::fprintf(stderr,
                 "remote-log-gate: foreign record (writer %llu) in the append "
                 "chain — fenced\n",
                 static_cast<unsigned long long>(out.fenced_by));
    fenced_by_.store(out.fenced_by, std::memory_order_release);
  }
  Complete(out.completions);
  if (out.append) Send(std::move(*out.append));
  if (out.read.kind != replication::LogGate::ReadKind::kNone) {
    IssueRead(out.read);
  }
}

void RemoteLogGate::Send(replication::LogGate::Append append) {
  if (!append.reissue) {
    if (append.record.type == txlog::RecordType::kChecksum) {
      if (checksum_records_ != nullptr) checksum_records_->Increment();
    } else if (records_sent_ != nullptr) {
      records_sent_->Increment();
      record_writes_->Record(append.writes);
    }
    if (options_.trace != nullptr && !append.traced.empty()) {
      // gate.submit -> gate.append.issue is each write's wait in the gate.
      const uint64_t issue_us = NowUs();
      for (const auto& [seq, trace_id] : append.traced) {
        options_.trace->Record(trace_id, "gate.append.issue", issue_us, seq);
      }
    }
  }
  client_->Append(append.prev_index, std::move(append.record),
                  [this](const Status& status, uint64_t index) {
                    if (stopping_) return;
                    core_.OnAppend(status, index);
                    Drive();
                  });
}

void RemoteLogGate::IssueRead(replication::LogGate::Read read) {
  if (stopping_) return;
  if (read.later) {
    read.later = false;
    loop_->After(options_.backoff_base_ms, [this, read] { IssueRead(read); });
    return;
  }
  if (read.kind == replication::LogGate::ReadKind::kTail) {
    client_->Tail([this](const Status& status,
                         const txlog::wire::ClientTailResponse& resp) {
      if (stopping_) return;
      core_.OnTail(status, resp);
      Drive();
    });
    return;
  }
  client_->Read(read.from, /*max_count=*/256, /*wait_ms=*/0,
                [this](const Status& status,
                       const txlog::wire::ClientReadResponse& resp) {
                  if (stopping_) return;
                  core_.OnRead(status, resp);
                  Drive();
                });
}

void RemoteLogGate::Complete(
    const std::vector<replication::LogGate::Completion>& done) {
  uint64_t n = 0;
  uint64_t failed = 0;
  for (const replication::LogGate::Completion& c : done) {
    for (uint64_t seq = c.first_seq; seq <= c.last_seq; ++seq) {
      on_complete_(Completion{seq, c.status, c.index});
    }
    n += c.last_seq - c.first_seq + 1;
    if (!c.status.ok()) failed += c.last_seq - c.first_seq + 1;
  }
  if (failed > 0 && appends_failed_ != nullptr) {
    appends_failed_->Increment(failed);
  }
  completed_.fetch_add(n, std::memory_order_acq_rel);
}

void RemoteLogGate::ScheduleTailPoll() {
  loop_->AssertOnLoopThread();
  if (stopping_) return;
  loop_->After(options_.tail_poll_ms, [this] {
    if (stopping_) return;
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
