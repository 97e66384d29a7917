// Election with no driver: one test per rule of the §4.1 election core
// (see replication/election.h), in made-up time units.
//
// Links only memdb_election: the core needs no clock, socket, thread, rpc
// or simulator.

#include "replication/election.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace memdb::replication {
namespace {

using Feed = Election::Feed;
using State = Election::State;

constexpr uint64_t kWriter = 7;
constexpr uint64_t kPeer = 9;
constexpr uint64_t kLease = 400;
constexpr uint64_t kRenew = 100;
constexpr uint64_t kBackoff = 650;

Election::Options Opts() { return {kWriter, kLease, kRenew, kBackoff}; }

// A replica caught up at `applied`.
Feed CaughtUp(uint64_t applied) {
  Feed f;
  f.applied = applied;
  f.commit = applied;
  return f;
}

// Monitors from t=0, claims at `at` with the feed caught up at 10, and
// wins at `at` + 5.
void Win(Election* e, uint64_t at = kBackoff + 1) {
  e->Monitor(0, /*bootstrap=*/false);
  ASSERT_TRUE(e->Tick(at, CaughtUp(10)).claim);
  e->OnClaim(at + 5, /*landed=*/true);
  ASSERT_EQ(e->state(), State::kHolding);
}

// Rule 6: a renewal cadence that cannot keep the lease, or a backoff that
// ends before the lease, is refused.
TEST(ElectionTest, CheckRefusesALeaseThatCannotHold) {
  EXPECT_TRUE(Election::Check(Opts()).ok());
  EXPECT_EQ(Election::Check({kWriter, 400, 400, 650}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Election::Check({kWriter, 400, 500, 650}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Election::Check({kWriter, 400, 100, 400}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Election::Check({kWriter, 400, 100, 300}).code(),
            StatusCode::kInvalidArgument);
}

// Rule 1: the next renewal is armed when a tick fires, not when the last
// renewal lands, and only one renewal is out at a time.
TEST(ElectionTest, RenewalsRunOnAFixedCadence) {
  Election e(Opts());
  Win(&e, 1000);
  // The first renewal goes out at the first tick after the win.
  EXPECT_TRUE(e.Tick(1005, {}).renew);
  EXPECT_FALSE(e.Tick(1050, {}).renew);
  // Due at 1105 but still out: nothing, and the next is armed at 1205.
  EXPECT_FALSE(e.Tick(1105, {}).renew);
  e.OnRenewal(true);  // lands at ~1150
  EXPECT_FALSE(e.Tick(1150, {}).renew);
  EXPECT_FALSE(e.Tick(1204, {}).renew);
  EXPECT_TRUE(e.Tick(1205, {}).renew);
  // A failed renewal frees the slot for the next tick that is due.
  e.OnRenewal(false);
  EXPECT_FALSE(e.Tick(1300, {}).renew);
  EXPECT_TRUE(e.Tick(1305, {}).renew);
}

// Rule 2: the horizon is the submit time of the last renewal that landed
// (or the claim's), plus the lease; past it, every tick reports expired.
TEST(ElectionTest, TheHorizonRunsFromTheLandedRenewalsSubmitTime) {
  Election e(Opts());
  Win(&e, 1000);  // claim submitted at 1000
  EXPECT_TRUE(e.Valid(1399));
  EXPECT_FALSE(e.Valid(1400));
  ASSERT_TRUE(e.Tick(1100, {}).renew);  // submitted at 1100
  EXPECT_FALSE(e.Tick(1399, {}).expired);
  // It lands late; the horizon still counts from the submit.
  e.OnRenewal(true);
  EXPECT_TRUE(e.Valid(1499));
  EXPECT_FALSE(e.Valid(1500));
  const Election::Output out = e.Tick(1499, {});
  ASSERT_TRUE(out.renew);  // submitted at 1499, then fails
  EXPECT_FALSE(out.expired);
  e.OnRenewal(false);
  EXPECT_TRUE(e.Tick(1500, {}).expired);
  EXPECT_TRUE(e.Tick(1550, {}).expired);
  EXPECT_EQ(e.state(), State::kHolding);  // expired is not terminal

  // A renewal landing after the horizon makes the holder valid again.
  ASSERT_TRUE(e.Tick(1600, {}).renew);
  e.OnRenewal(true);
  EXPECT_FALSE(e.Tick(1650, {}).expired);
  EXPECT_TRUE(e.Valid(1999));
}

// Rule 3: the deadline is the last lease record applied plus the backoff;
// a peer's release moves it to now, this node's own release does not.
TEST(ElectionTest, TheDeadlineRunsFromTheLastLeaseRecordApplied) {
  Election e(Opts());
  e.Monitor(0, /*bootstrap=*/false);
  EXPECT_EQ(e.deadline(), kBackoff);
  EXPECT_FALSE(e.Tick(kBackoff, CaughtUp(3)).claim);
  e.OnLeaseRecord(600, kPeer, /*release=*/false);
  EXPECT_EQ(e.deadline(), 600 + kBackoff);
  EXPECT_FALSE(e.Tick(1000, CaughtUp(3)).claim);
  e.OnLeaseRecord(1000, kPeer, /*release=*/false);  // a claim counts too
  EXPECT_FALSE(e.Tick(1650, CaughtUp(3)).claim);
  EXPECT_TRUE(e.Tick(1651, CaughtUp(3)).claim);

  Election r(Opts());
  r.Monitor(0, /*bootstrap=*/false);
  r.OnLeaseRecord(100, kWriter, /*release=*/true);  // this node's own
  EXPECT_FALSE(r.Tick(200, CaughtUp(3)).claim);
  r.OnLeaseRecord(200, kPeer, /*release=*/true);
  EXPECT_FALSE(r.Tick(200, CaughtUp(3)).claim);
  EXPECT_TRUE(r.Tick(201, CaughtUp(3)).claim);
}

// Rule 3: a bootstrap monitor claims at once until it sees a lease record.
TEST(ElectionTest, BootstrapClaimsUntilALeaseRecordIsSeen) {
  Election e(Opts());
  e.Monitor(0, /*bootstrap=*/true);
  EXPECT_TRUE(e.Tick(1, CaughtUp(0)).claim);

  Election seen(Opts());
  seen.Monitor(0, /*bootstrap=*/true);
  seen.OnLeaseRecord(5, kPeer, /*release=*/false);
  EXPECT_FALSE(seen.Tick(6, CaughtUp(2)).claim);
  // Seen once is seen for good, across a later Monitor.
  seen.Monitor(10, /*bootstrap=*/true);
  EXPECT_FALSE(seen.Tick(11, CaughtUp(2)).claim);
  EXPECT_TRUE(seen.Tick(10 + kBackoff + 1, CaughtUp(2)).claim);
}

// Rule 4: no claim while behind, before the feed reported a commit index,
// trimmed, diverged or version-blocked; the claim is chained on the
// applied index with request id = applied index + 1.
TEST(ElectionTest, OnlyACaughtUpHealthyReplicaClaims) {
  const uint64_t t = kBackoff + 1;
  Feed behind = CaughtUp(10);
  behind.commit = 11;
  Feed unheard;
  unheard.applied = 10;
  Feed trimmed = CaughtUp(10);
  trimmed.trimmed = true;
  Feed diverged = CaughtUp(10);
  diverged.diverged = true;
  Feed blocked = CaughtUp(10);
  blocked.blocked = true;
  for (const Feed& f : {behind, unheard, trimmed, diverged, blocked}) {
    Election e(Opts());
    e.Monitor(0, /*bootstrap=*/true);
    EXPECT_FALSE(e.Tick(t, f).claim);
    EXPECT_FALSE(e.Tick(t + 10 * kBackoff, f).claim);
    EXPECT_EQ(e.state(), State::kMonitoring);
  }

  Election e(Opts());
  e.Monitor(0, /*bootstrap=*/false);
  EXPECT_FALSE(e.Tick(t, behind).claim);
  const Election::Output out = e.Tick(t + 30, CaughtUp(11));
  ASSERT_TRUE(out.claim);
  EXPECT_EQ(out.claim->prev_index, 11u);
  EXPECT_EQ(out.claim->record.type, txlog::RecordType::kLeadership);
  EXPECT_EQ(out.claim->record.writer, kWriter);
  EXPECT_EQ(out.claim->record.request_id, 12u);
  EXPECT_FALSE(out.renew);
  EXPECT_EQ(e.state(), State::kElecting);
}

// Rule 5: one claim at a time; a failed one re-arms the deadline from now,
// a landed one makes this node the holder, and the stages record it.
TEST(ElectionTest, OneClaimAtATimeAndItsOutcome) {
  Election e(Opts());
  e.Monitor(0, /*bootstrap=*/false);
  e.OnLeaseRecord(100, kPeer, /*release=*/false);  // last alive at 100
  ASSERT_FALSE(e.Tick(750, CaughtUp(4)).claim);
  // Past the deadline at 760, caught up only at 800.
  Feed behind = CaughtUp(4);
  behind.commit = 5;
  ASSERT_FALSE(e.Tick(760, behind).claim);
  ASSERT_TRUE(e.Tick(800, CaughtUp(5)).claim);
  EXPECT_FALSE(e.Tick(810, CaughtUp(5)).claim);  // one at a time
  e.OnRenewal(true);                             // not holding: ignored
  e.OnClaim(820, /*landed=*/false);
  EXPECT_EQ(e.state(), State::kMonitoring);
  EXPECT_EQ(e.deadline(), 820 + kBackoff);
  EXPECT_FALSE(e.Tick(1400, CaughtUp(6)).claim);
  ASSERT_TRUE(e.Tick(1471, CaughtUp(6)).claim);
  // The feed delivers the claim itself before its result.
  e.OnLeaseRecord(1475, kWriter, /*release=*/false);
  e.OnClaim(1480, /*landed=*/true);
  EXPECT_EQ(e.state(), State::kHolding);
  EXPECT_EQ(e.stages().last_alive, 100u);
  EXPECT_EQ(e.stages().detected, 1471u);
  EXPECT_EQ(e.stages().claimed, 1471u);
  EXPECT_EQ(e.stages().won, 1480u);
  EXPECT_TRUE(e.Valid(1471 + kLease - 1));
  EXPECT_FALSE(e.Valid(1471 + kLease));
  e.OnClaim(1490, /*landed=*/false);  // a stale result changes nothing
  EXPECT_EQ(e.state(), State::kHolding);

  // The first time past the deadline and the first tick caught up differ.
  Election d(Opts());
  d.Monitor(0, /*bootstrap=*/false);
  ASSERT_FALSE(d.Tick(700, behind).claim);
  ASSERT_TRUE(d.Tick(900, CaughtUp(5)).claim);
  d.OnClaim(910, /*landed=*/true);
  EXPECT_EQ(d.stages().last_alive, 0u);
  EXPECT_EQ(d.stages().detected, 700u);
  EXPECT_EQ(d.stages().claimed, 900u);
}

// Release stops the renewals and lets the horizon run out; Fence is quiet.
TEST(ElectionTest, ReleaseAndFence) {
  Election e(Opts());
  Win(&e, 1000);
  ASSERT_TRUE(e.Tick(1005, {}).renew);
  e.OnRenewal(true);  // horizon 1405
  e.Release();
  EXPECT_FALSE(e.Tick(1105, {}).renew);
  EXPECT_FALSE(e.Tick(1205, {}).renew);
  EXPECT_TRUE(e.Tick(1405, {}).expired);

  Election f(Opts());
  Win(&f, 1000);
  f.Fence();
  EXPECT_EQ(f.state(), State::kFenced);
  const Election::Output out = f.Tick(1005, CaughtUp(20));
  EXPECT_FALSE(out.renew || out.expired || out.claim);
  EXPECT_FALSE(f.Valid(1005));
  // A fenced node that monitors again may claim again.
  f.Monitor(2000, /*bootstrap=*/false);
  EXPECT_TRUE(f.Tick(2000 + kBackoff + 1, CaughtUp(20)).claim);
}

}  // namespace
}  // namespace memdb::replication
