#include "common/trace.h"

#include <algorithm>
#include <chrono>
#include <cstring>

namespace memdb {

namespace {

uint64_t NowWallUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

uint64_t NowMonoUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

TraceLog::TraceLog(size_t capacity)
    : capacity_(capacity),
      slots_(capacity > 0 ? std::make_unique<Slot[]>(capacity) : nullptr) {
  // Read back to back so the pair anchors one instant on both clocks.
  anchor_wall_us_ = NowWallUs();
  anchor_mono_us_ = NowMonoUs();
}

void TraceLog::Record(uint64_t trace_id, std::string_view stage,
                      uint64_t at_us, uint64_t detail) {
  if (trace_id == 0) return;  // untraced work (unsampled / service-internal)
  if (capacity_ == 0) return;
  const uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t round = ticket / capacity_;
  Slot& slot = slots_[ticket % capacity_];

  // Seqlock write protocol over all-atomic fields: mark the slot mid-write
  // (odd), publish the payload with release stores, so a reader that loads
  // any payload word of this write also sees the odd mark before it, then
  // publish the stable version with release so a reader that observes it
  // also observes the payload. A reader that races the window sees an odd
  // or mismatched version and skips the slot.
  slot.version.store(2 * round + 1, std::memory_order_release);
  slot.trace_id.store(trace_id, std::memory_order_release);
  slot.at_us.store(at_us, std::memory_order_release);
  slot.detail.store(detail, std::memory_order_release);
  uint64_t words[kStageWords] = {};
  const size_t n = std::min(stage.size(), kMaxStageLen);
  std::memcpy(words, stage.data(), n);
  for (size_t i = 0; i < kStageWords; ++i) {
    slot.stage[i].store(words[i], std::memory_order_release);
  }
  slot.version.store(2 * round + 2, std::memory_order_release);
}

bool TraceLog::ReadSlot(uint64_t ticket, TraceSpan* out) const {
  const Slot& slot = slots_[ticket % capacity_];
  const uint64_t want = 2 * (ticket / capacity_) + 2;
  if (slot.version.load(std::memory_order_acquire) != want) return false;
  // Acquire loads keep the version recheck after them, and a payload word
  // from a later writer carries that writer's odd mark with it: if the
  // version still reads `want`, no writer touched the slot while we read it.
  TraceSpan span;
  span.trace_id = slot.trace_id.load(std::memory_order_acquire);
  span.at_us = slot.at_us.load(std::memory_order_acquire);
  span.detail = slot.detail.load(std::memory_order_acquire);
  uint64_t words[kStageWords];
  for (size_t i = 0; i < kStageWords; ++i) {
    words[i] = slot.stage[i].load(std::memory_order_acquire);
  }
  if (slot.version.load(std::memory_order_relaxed) != want) return false;
  char bytes[kStageWords * 8];
  std::memcpy(bytes, words, sizeof(bytes));
  bytes[sizeof(bytes) - 1] = '\0';
  span.stage = bytes;
  *out = std::move(span);
  return true;
}

std::vector<TraceSpan> TraceLog::Snapshot() const {
  std::vector<TraceSpan> out;
  if (capacity_ == 0) return out;
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t n = std::min<uint64_t>(head, capacity_);
  out.reserve(n);
  for (uint64_t ticket = head - n; ticket < head; ++ticket) {
    TraceSpan span;
    if (ReadSlot(ticket, &span)) out.push_back(std::move(span));
  }
  return out;
}

size_t TraceLog::size() const {
  if (capacity_ == 0) return 0;
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t n = std::min<uint64_t>(head, capacity_);
  size_t stable = 0;
  for (uint64_t ticket = head - n; ticket < head; ++ticket) {
    const Slot& slot = slots_[ticket % capacity_];
    const uint64_t want = 2 * (ticket / capacity_) + 2;
    if (slot.version.load(std::memory_order_acquire) == want) ++stable;
  }
  return stable;
}

void TraceLog::Clear() {
  for (size_t i = 0; i < capacity_; ++i) {
    slots_[i].version.store(0, std::memory_order_relaxed);
  }
  head_.store(0, std::memory_order_release);
}

std::vector<TraceSpan> TraceLog::ForTrace(uint64_t trace_id) const {
  std::vector<TraceSpan> out;
  for (TraceSpan& span : Snapshot()) {
    if (span.trace_id == trace_id) out.push_back(std::move(span));
  }
  return out;
}

std::vector<TraceSpan> TraceLog::Reconstruct(
    uint64_t trace_id, std::initializer_list<const TraceLog*> logs) {
  std::vector<TraceSpan> out;
  for (const TraceLog* log : logs) {
    if (log == nullptr) continue;
    std::vector<TraceSpan> part = log->ForTrace(trace_id);
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceSpan& a, const TraceSpan& b) {
                     return a.at_us < b.at_us;
                   });
  return out;
}

}  // namespace memdb
