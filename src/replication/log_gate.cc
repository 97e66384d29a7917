#include "replication/log_gate.h"

#include <algorithm>

#include "common/coding.h"
#include "common/crc.h"
#include "replication/effect_batch.h"

namespace memdb::replication {

namespace {
Status Fenced() {
  return Status::ConditionFailed("fenced: this writer lost the shard lease");
}
}  // namespace

LogGate::LogGate(Options options)
    : options_(std::move(options)), chain_(options_.checksum_seed) {}

void LogGate::Start() { out_.read = {ReadKind::kTail, 0, false}; }

void LogGate::Start(uint64_t index) {
  prev_ = index;
  phase_ = Phase::kReady;
}

void LogGate::Submit(uint64_t seq, txlog::RecordType type,
                     std::string payload, uint64_t trace_id) {
  if (phase_ == Phase::kFenced) {
    out_.completions.push_back({seq, seq, Fenced(), 0});
    return;
  }
  queue_.push_back(Submission{seq, type, std::move(payload), trace_id});
}

LogGate::Output LogGate::TakeOutput() {
  Pump();
  Output out = std::move(out_);
  out_ = Output();
  return out;
}

void LogGate::Pump() {
  if (phase_ != Phase::kReady || queue_.empty()) return;
  Submission head = std::move(queue_.front());
  queue_.pop_front();
  record_ = txlog::LogRecord();
  carried_ = false;
  record_.type = head.type;
  record_.writer = options_.writer_id;
  record_.trace_id = head.trace_id;
  record_.payload = std::move(head.payload);
  first_seq_ = last_seq_ = head.seq;
  Append append;
  append.writes = head.seq != 0 ? 1 : 0;
  if (head.trace_id != 0) append.traced.emplace_back(head.seq, head.trace_id);
  if (record_.type == txlog::RecordType::kData) {
    // Group commit: every data batch queued behind the previous record
    // rides this one, in seq order.
    while (!queue_.empty()) {
      const Submission& next = queue_.front();
      if (next.type != txlog::RecordType::kData ||
          record_.payload.size() + next.payload.size() > kMaxRecordBytes ||
          !AppendEffectBatch(&record_.payload, Slice(next.payload))) {
        break;
      }
      if (record_.trace_id == 0) record_.trace_id = next.trace_id;
      if (next.trace_id != 0) {
        append.traced.emplace_back(next.seq, next.trace_id);
      }
      last_seq_ = next.seq;
      ++append.writes;
      queue_.pop_front();
    }
  }
  if (last_seq_ != 0) taken_seq_ = last_seq_;
  out_.append = std::move(append);
  Issue();
}

void LogGate::Issue() {
  record_.request_id = prev_ + 1;
  if (!out_.append) {
    out_.append.emplace();
    out_.append->reissue = true;
  }
  out_.append->prev_index = prev_;
  out_.append->record = record_;
  phase_ = Phase::kInFlight;
}

void LogGate::OnAppend(const Status& status, uint64_t index) {
  if (phase_ != Phase::kInFlight) return;
  if (status.ok()) {
    prev_ = index;
    phase_ = Phase::kReady;
    Land(index);
    return;
  }
  // ConditionFailed says nothing landed at prev + 1, but a timeout or a
  // connection lost after the send may hide a landed record, and the tail
  // moved while this writer was not looking either way.
  failure_ = status;
  found_ = 0;
  phase_ = Phase::kTail;
  out_.read = {ReadKind::kTail, 0, false};
}

void LogGate::OnTail(const Status& status,
                     const txlog::wire::ClientTailResponse& r) {
  if (phase_ != Phase::kAnchoring && phase_ != Phase::kTail) return;
  // An uncommitted suffix could hide another writer's lease grant mid-commit;
  // chaining past it is the split brain fencing prevents. Wait until it
  // commits or a leader change discards it. A tail behind the last index
  // this writer knows comes from a deposed leader that has not heard of
  // its successor: the chain never moves backwards.
  if (!status.ok() || r.commit_index < r.last_index || r.last_index < prev_) {
    out_.read = {ReadKind::kTail, 0, true};
    return;
  }
  if (phase_ == Phase::kAnchoring) {
    prev_ = r.last_index;
    phase_ = Phase::kReady;
    return;
  }
  gap_tail_ = r.last_index;
  gap_next_ = prev_ + 1;
  phase_ = Phase::kGap;
  ReadGap();
}

void LogGate::ReadGap() {
  if (gap_next_ > gap_tail_) {
    ResolveGap();
  } else {
    out_.read = {ReadKind::kGap, gap_next_, false};
  }
}

void LogGate::OnRead(const Status& status,
                     const txlog::wire::ClientReadResponse& r) {
  if (phase_ != Phase::kGap) return;
  if (!status.ok()) {
    out_.read = {ReadKind::kGap, gap_next_, true};
    return;
  }
  // A prefix trimmed behind a durable snapshot is skipped: trim covers only
  // committed history old enough to be snapshotted, never a grant newer
  // than this writer's last known index.
  uint64_t next = std::max(gap_next_, r.first_index);
  for (const txlog::LogEntry& e : r.entries) {
    if (e.index < next) continue;
    if (e.index > gap_tail_) break;
    if (e.record.writer == options_.writer_id &&
        e.record.request_id == record_.request_id) {
      found_ = e.index;
    } else if (Foreign(e.record)) {
      Fence(e.record.writer);
      return;
    }
    next = e.index + 1;
  }
  if (next == gap_next_) {
    // The tail settled, so the gap is committed: a lagging replica served
    // this read.
    out_.read = {ReadKind::kGap, next, true};
    return;
  }
  gap_next_ = next;
  ReadGap();
}

void LogGate::ResolveGap() {
  // The record can only ever land at prev + 1: open = nothing is there yet.
  const bool open = gap_tail_ == prev_;
  prev_ = gap_tail_;  // everything in the gap is benign
  if (found_ != 0) {
    phase_ = Phase::kReady;
    Land(found_);
    return;
  }
  if (!failure_.IsConditionFailed()) Fail(failure_);
  if (open) {
    // Nothing is there yet, so a late copy of the request may still land
    // there. Only this record goes out again under its id: the log
    // service's dedup merges a late copy with it, and no other record of
    // this writer's can be answered with that copy's index.
    Issue();
  } else if (failure_.IsConditionFailed() && !carried_) {
    Issue();  // at the new tail
  } else {
    phase_ = Phase::kReady;  // another record holds its place: it never lands
  }
}

void LogGate::Fail(const Status& status) {
  if (first_seq_ != 0) {
    out_.completions.push_back({first_seq_, last_seq_, status, 0});
  }
  first_seq_ = last_seq_ = 0;
  carried_ = true;
}

void LogGate::Land(uint64_t index) {
  out_.landed = index;
  if (record_.type == txlog::RecordType::kData) {
    chain_ = Crc64(chain_, Slice(record_.payload));
    if (options_.checksum_every > 0 &&
        ++data_since_checksum_ >= options_.checksum_every) {
      data_since_checksum_ = 0;
      // Front of the queue: the next record, right after the data it covers.
      Submission chk;
      chk.type = txlog::RecordType::kChecksum;
      PutFixed64(&chk.payload, chain_);
      queue_.push_front(std::move(chk));
    }
  }
  if (first_seq_ != 0) {
    out_.completions.push_back({first_seq_, last_seq_, Status::OK(), index});
  }
}

bool LogGate::Foreign(const txlog::LogRecord& rec) const {
  // txlogd's own barriers (kNoop) carry writer 0; everything a database node
  // wrote carries its writer id, this writer's lease renewals included.
  return rec.writer != 0 && rec.writer != options_.writer_id;
}

void LogGate::Fence(uint64_t writer) {
  // A record found ahead of the foreign one is in the log: it completes OK.
  // Every other seq fails, in one range: they are contiguous.
  uint64_t first = 0;
  if (found_ != 0) {
    Land(found_);
  } else if (inflight()) {
    first = first_seq_;
  }
  fenced_by_ = writer;
  out_.fenced_by = writer;
  phase_ = Phase::kFenced;
  uint64_t last = first != 0 ? last_seq_ : 0;
  for (const Submission& p : queue_) {
    if (p.seq == 0) continue;
    if (first == 0) first = p.seq;
    last = p.seq;
  }
  queue_.clear();
  if (first != 0) out_.completions.push_back({first, last, Fenced(), 0});
}

}  // namespace memdb::replication
