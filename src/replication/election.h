// Election: the §4.1 leader election as a sans-IO state machine (no clock,
// socket, thread, rpc or simulator), driven by both memorydb-server's
// RespServer and the simulator's memorydb::Node. Leadership needs nothing
// but the shard's log: the holder renews by appending kLease records to its
// own LogGate chain, so a zombie's renewal is fenced like any append, and a
// replica claims with one conditional kLeadership append. Every input
// carries the driver's steady-clock now, and every duration is in the same
// unit (the simulator's microseconds, memorydb-server's milliseconds). The
// driver acts on the Output of each Tick.
//
// The rules:
//  1. Holder: renewals run on a fixed cadence. A tick at or past the next
//     renewal time arms the one after it `renew` later, whether or not the
//     last renewal landed, and asks for a renewal unless one is still out.
//  2. Holder: the validity horizon (§4.2) is the submit time of the last
//     renewal that landed (or of the claim), plus `lease`. A monitor applies
//     that record no earlier than it was submitted and then waits `backoff`
//     > `lease`, so no one claims before the horizon. Each tick past it
//     reports the lease expired.
//  3. Monitor: the deadline is the time the last kLease or kLeadership
//     record was applied from the feed, plus `backoff`; a peer's "release"
//     kLease moves it to now. A bootstrap monitor need not wait for it
//     until this node has observed one such record.
//  4. Monitor: a claim goes out once the deadline passed, the applied index
//     is at least the last commit index the feed reported, and the feed is
//     neither trimmed past the applied index, nor diverged (a failed §7.2.1
//     check), nor version-blocked (§7.1). It is one kLeadership record
//     conditioned on the applied index, with request id = applied index + 1.
//     A replica that is behind, trimmed or diverged never lands one, and a
//     replica that lands one has nothing left to replay.
//  5. Monitor: one claim at a time. A landed claim makes this node the
//     holder, valid from the claim's submit time; a failed one re-arms the
//     deadline from now.
//  6. Options: renew < lease < backoff (Check), or the lease can lapse
//     between renewals, or a monitor can claim while the holder serves.

#ifndef MEMDB_REPLICATION_ELECTION_H_
#define MEMDB_REPLICATION_ELECTION_H_

#include <cstdint>
#include <limits>
#include <optional>

#include "common/status.h"
#include "txlog/record.h"

namespace memdb::replication {

class Election {
 public:
  struct Options {
    uint64_t writer_id = 0;  // this node's log writer id; claims carry it
    uint64_t lease = 0;      // holder validity after a renewal's submit
    uint64_t renew = 0;      // holder renewal cadence
    uint64_t backoff = 0;    // monitor wait after the last lease record
  };
  // InvalidArgument unless renew < lease < backoff (rule 6).
  static Status Check(const Options& options);

  // Values are stable: memorydb-server exports them as failover_state, and
  // INFO maps them back to names.
  enum class State : uint8_t {
    kNone = 0,
    kHolding = 2,
    kMonitoring = 3,
    kElecting = 4,  // a claim is out
    kFenced = 6,    // the holder's gate found a foreign record
  };

  // What a replica's feed shows at a tick.
  struct Feed {
    uint64_t applied = 0;  // the last index applied
    // The last commit index the feed reported; the max until it reported
    // one, so a replica that has not heard from the log is behind.
    uint64_t commit = std::numeric_limits<uint64_t>::max();
    bool trimmed = false;   // the log was trimmed past `applied`
    bool diverged = false;  // a §7.2.1 check failed
    bool blocked = false;   // §7.1: a newer engine's stream
  };
  // A conditional append for the driver to send through its log client.
  struct Claim {
    uint64_t prev_index = 0;
    txlog::LogRecord record;
  };
  struct Output {
    std::optional<Claim> claim;
    bool renew = false;    // submit a kLease renewal through the gate
    bool expired = false;  // holding, past the validity horizon
  };
  // The last election this node won, in driver time.
  struct Stages {
    uint64_t last_alive = 0;  // the last lease record applied, or Monitor
    uint64_t detected = 0;    // the first tick past the deadline
    uint64_t claimed = 0;     // the claim went out
    uint64_t won = 0;         // it landed
  };

  explicit Election(Options options) : options_(options) {}

  // --- inputs ---------------------------------------------------------------
  // Starts (or restarts) monitoring, with the deadline `backoff` from now.
  void Monitor(uint64_t now, bool bootstrap);
  // A kLease or kLeadership record by `writer` was applied from the feed.
  void OnLeaseRecord(uint64_t now, uint64_t writer, bool release);
  // The claim's result.
  void OnClaim(uint64_t now, bool landed);
  // The renewal's result.
  void OnRenewal(bool landed);
  // Holder: stop renewing and let the horizon run out (handover, §5.2).
  void Release() { released_ = true; }
  void Fence() { state_ = State::kFenced; }
  Output Tick(uint64_t now, const Feed& feed);

  // --- queries --------------------------------------------------------------
  State state() const { return state_; }
  bool Valid(uint64_t now) const {
    return state_ == State::kHolding && now < horizon_;
  }
  uint64_t deadline() const { return deadline_; }
  const Stages& stages() const { return stages_; }

 private:
  const Options options_;
  State state_ = State::kNone;
  // Monitor.
  uint64_t deadline_ = 0;
  bool bootstrap_ = false;
  bool observed_ = false;  // any lease record, ever
  uint64_t last_alive_ = 0;
  std::optional<uint64_t> detected_;  // this deadline's first tick past it
  // The claim out, as of its submit: the feed may deliver it (or any other
  // lease record) before its result does.
  Stages claim_;
  // Holder.
  uint64_t horizon_ = 0;
  uint64_t next_renew_ = 0;
  bool renewing_ = false;
  uint64_t renew_sent_ = 0;
  bool released_ = false;
  Stages stages_;
};

}  // namespace memdb::replication

#endif  // MEMDB_REPLICATION_ELECTION_H_
