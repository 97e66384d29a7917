#include "replication/election.h"

#include <algorithm>

namespace memdb::replication {

Status Election::Check(const Options& o) {
  if (o.renew >= o.lease) {
    return Status::InvalidArgument(
        "lease renewal interval must be shorter than the lease");
  }
  if (o.backoff <= o.lease) {
    return Status::InvalidArgument("failover backoff must exceed the lease");
  }
  return Status::OK();
}

void Election::Monitor(uint64_t now, bool bootstrap) {
  state_ = State::kMonitoring;
  deadline_ = now + options_.backoff;
  bootstrap_ = bootstrap;
  last_alive_ = now;
  detected_.reset();
}

void Election::OnLeaseRecord(uint64_t now, uint64_t writer, bool release) {
  observed_ = true;
  last_alive_ = now;
  // A peer that handed leadership over is gone at once; the releaser itself
  // waits out a whole backoff, so it does not reclaim what it gave up.
  deadline_ = release && writer != options_.writer_id
                  ? now
                  : now + options_.backoff;
  detected_.reset();
}

void Election::OnClaim(uint64_t now, bool landed) {
  if (state_ != State::kElecting) return;
  if (!landed) {
    state_ = State::kMonitoring;
    deadline_ = now + options_.backoff;
    detected_.reset();
    return;
  }
  state_ = State::kHolding;
  horizon_ = claim_.claimed + options_.lease;
  next_renew_ = now;
  renewing_ = false;
  released_ = false;
  stages_ = claim_;
  stages_.won = now;
}

void Election::OnRenewal(bool landed) {
  if (!renewing_) return;
  renewing_ = false;
  if (landed && state_ == State::kHolding) {
    horizon_ = std::max(horizon_, renew_sent_ + options_.lease);
  }
}

Election::Output Election::Tick(uint64_t now, const Feed& feed) {
  Output out;
  if (state_ == State::kHolding) {
    if (now >= next_renew_) {
      next_renew_ = now + options_.renew;
      if (!renewing_ && !released_) {
        out.renew = true;
        renewing_ = true;
        renew_sent_ = now;
      }
    }
    out.expired = !Valid(now);
    return out;
  }
  if (state_ != State::kMonitoring) return out;
  if (!(bootstrap_ && !observed_) && now <= deadline_) return out;
  if (!detected_) detected_ = now;
  if (feed.applied < feed.commit || feed.trimmed || feed.diverged ||
      feed.blocked) {
    return out;
  }
  Claim claim;
  claim.prev_index = feed.applied;
  claim.record.type = txlog::RecordType::kLeadership;
  claim.record.writer = options_.writer_id;
  claim.record.request_id = feed.applied + 1;  // the index it is chained to
  out.claim = std::move(claim);
  state_ = State::kElecting;
  claim_ = {last_alive_, *detected_, now, 0};
  return out;
}

}  // namespace memdb::replication
