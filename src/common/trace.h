// Write-path tracing (§3.1/§3.2 observability). A trace follows one client
// command through the stages of the durable write path:
//
//   cmd.receive -> gate.submit -> gate.append.issue -> rpc.send
//     -> rpc.dispatch -> log.append.receive
//     -> log.durable.local / log.follower.durable -> log.quorum.commit
//     -> rpc.recv -> append.ack -> reply.release
//
// (the simulation actors keep their PR-1 stage names — pipeline.enqueue,
// append.issue, cmd.release — the reconstruction machinery is shared.)
//
// Every process on the path — memorydb-server, each memorydb-txlogd
// replica, memorydb-snapshotd — owns a TraceLog and records the stages it
// executes. The trace id is allocated at command receipt (subject to
// sampling; see TraceSampler) and carried through the record pipeline, the
// rpc frame header, and the log wire format (LogRecord::trace_id), so a
// test or operator can merge the span logs of all processes and
// reconstruct a single write's causal chain end to end.
//
// Clock model: spans are stamped with a monotonic microsecond clock (the
// steady clock in real processes, the simulation clock in the sim). Each
// TraceLog captures a wall/monotonic anchor pair at construction;
// WallFromMono() rebases a monotonic stamp onto the epoch wall clock so
// span files exported by different processes on one host merge onto a
// common axis (common/trace_export.h).
//
// Concurrency: Record() is wait-free and takes no lock — slots are arrays
// of atomics claimed by a ticket counter, with a version word (2*round
// while stable, odd while mid-write) that lets Snapshot() detect and skip
// torn slots. This makes Record() safe from loop threads (memdb-analyzer
// enforces that this file stays lock-free) and Snapshot()/ForTrace() safe
// from any thread while the owner is still recording.

#ifndef MEMDB_COMMON_TRACE_H_
#define MEMDB_COMMON_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace memdb {

struct TraceSpan {
  uint64_t trace_id = 0;
  std::string stage;
  uint64_t at_us = 0;    // monotonic (steady / simulation) clock at recording
  uint64_t detail = 0;   // stage-specific (log index, recording node id, ...)
};

class TraceLog {
 public:
  // Stage names are packed into fixed atomic words; longer names are
  // truncated at recording time (every stage in the taxonomy fits).
  static constexpr size_t kMaxStageLen = 47;

  // Bounded ring: oldest spans are overwritten once `capacity` is exceeded,
  // so long-running processes pay a constant memory cost.
  explicit TraceLog(size_t capacity = 8192);
  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  // Wait-free, lock-free; callable from any thread. trace_id 0 means
  // "unsampled / untraced" and is ignored, so downstream stages pay nothing
  // for writes the sampler skipped.
  void Record(uint64_t trace_id, std::string_view stage, uint64_t at_us,
              uint64_t detail = 0);

  // Stable spans currently in the ring, oldest first. Safe to call while
  // other threads Record(); slots mid-write during the scan are skipped.
  std::vector<TraceSpan> Snapshot() const;

  // Number of stable spans a Snapshot() would return right now.
  size_t size() const;

  // Resets the ring. NOT linearizable against concurrent Record(); callers
  // quiesce writers first (tests, TRACE RESET between runs).
  void Clear();

  // All spans of one trace, in recording order.
  std::vector<TraceSpan> ForTrace(uint64_t trace_id) const;

  // Merges the given logs' spans for one trace, sorted by timestamp (stable
  // across logs for equal stamps). This is the reconstruction entry point:
  // pass the node's log plus the log replicas' logs. Cross-process
  // reconstruction from exported span files lives in common/trace_export.h
  // and follows the same merge + stable-sort semantics.
  static std::vector<TraceSpan> Reconstruct(
      uint64_t trace_id, std::initializer_list<const TraceLog*> logs);

  // Wall-clock anchor captured at construction: anchor_wall_us() (epoch
  // microseconds, system clock) and anchor_mono_us() (steady clock) were
  // read back to back, so wall ≈ anchor_wall + (mono - anchor_mono).
  uint64_t anchor_wall_us() const { return anchor_wall_us_; }
  uint64_t anchor_mono_us() const { return anchor_mono_us_; }
  uint64_t WallFromMono(uint64_t mono_us) const {
    return anchor_wall_us_ + mono_us - anchor_mono_us_;
  }

 private:
  // 8 words = 64 bytes of payload per slot: version, trace id, stamp,
  // detail, plus kStageWords words of NUL-padded stage name.
  static constexpr size_t kStageWords = 6;  // 48 bytes incl. terminator

  struct Slot {
    // 2*round + 1 while the owner of ticket (round*capacity + index) is
    // writing, 2*round + 2 once that write is stable, 0 = never written.
    std::atomic<uint64_t> version{0};
    std::atomic<uint64_t> trace_id{0};
    std::atomic<uint64_t> at_us{0};
    std::atomic<uint64_t> detail{0};
    std::atomic<uint64_t> stage[kStageWords] = {};
  };

  // Reads slot `ticket % capacity_`, expecting the stable version for
  // `ticket`. Returns false (and leaves *out untouched) if the slot is
  // mid-write or was lapped by a newer ticket.
  bool ReadSlot(uint64_t ticket, TraceSpan* out) const;

  const size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> head_{0};  // next ticket to claim
  uint64_t anchor_wall_us_ = 0;
  uint64_t anchor_mono_us_ = 0;
};

// Decides at trace-id allocation time whether a write is traced. rate 0
// disables tracing entirely, rate 1 (the default) traces every write, rate
// N traces 1 in N. Not thread-safe: lives on the thread that allocates
// trace ids (the server loop).
class TraceSampler {
 public:
  explicit TraceSampler(uint64_t rate = 1) : rate_(rate) {}

  bool Sample() {
    if (rate_ == 0) return false;
    return (n_++ % rate_) == 0;
  }

  uint64_t rate() const { return rate_; }

 private:
  uint64_t rate_;
  uint64_t n_ = 0;
};

// Process-unique trace ids: the origin (writer id for servers) in the top
// 24 bits, a local counter below, so ids from different processes on the
// write path never collide. (The simulation keeps its own node_id << 32
// scheme; both only need nonzero + unique.)
inline uint64_t MakeTraceId(uint64_t origin, uint64_t counter) {
  return (origin << 40) | (counter & ((uint64_t{1} << 40) - 1));
}

}  // namespace memdb

#endif  // MEMDB_COMMON_TRACE_H_
