// CommitTracker on its own: one test per §3.2 rule, then a seeded
// randomized check of every step against a brute-force reference that
// rescans everything.

#include "replication/commit_tracker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

namespace memdb::replication {
namespace {

using Release = CommitTracker::Release;

constexpr uint64_t kA = 1;
constexpr uint64_t kB = 2;
constexpr uint64_t kC = 3;

std::vector<std::string> Keys(std::initializer_list<const char*> keys) {
  return {keys.begin(), keys.end()};
}

// Offers a reply; true when it may go out at once.
bool Offer(CommitTracker* t, uint64_t owner,
           const std::vector<std::string>& keys, std::string body) {
  return !t->Reply(owner, keys, &body).parked;
}

std::vector<Release> Complete(CommitTracker* t, uint64_t seq, bool ok = true) {
  std::vector<Release> out;
  t->Complete(seq, ok, &out);
  return out;
}

std::vector<std::string> Bodies(const std::vector<Release>& released) {
  std::vector<std::string> out;
  for (const Release& r : released) out.push_back(r.body);
  return out;
}

TEST(CommitTrackerTest, ReadOfHazardedKeyWaitsForItsWrite) {
  CommitTracker t;
  t.Write(1, Keys({"k"}), false, kA, "+OK");
  std::string body = "$1 v";
  const CommitTracker::Offer offer = t.Reply(kB, Keys({"k"}), &body);
  EXPECT_TRUE(offer.parked);
  EXPECT_EQ(offer.hazard, 1u);
  EXPECT_TRUE(Offer(&t, kC, Keys({"other"}), "nil"));  // unrelated key
  EXPECT_EQ(t.hazards(), 1u);

  const std::vector<Release> out = Complete(&t, 1);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].owner, kA);
  EXPECT_TRUE(out[0].write);
  EXPECT_EQ(out[1].owner, kB);
  EXPECT_FALSE(out[1].write);
  EXPECT_EQ(out[1].body, "$1 v");
  EXPECT_TRUE(out[1].ok);
  EXPECT_EQ(t.hazards(), 0u);
  EXPECT_TRUE(Offer(&t, kB, Keys({"k"}), "$1 v"));
}

TEST(CommitTrackerTest, KeyspaceWideWriteHazardsEveryKey) {
  CommitTracker t;
  t.Write(1, {}, /*keyspace=*/true, kA, "+OK");
  EXPECT_EQ(t.Hazard(Keys({"any"})), 1u);
  EXPECT_FALSE(Offer(&t, kB, Keys({"any"}), "nil"));
  // A keyless reply (DBSIZE, an admin scrape) waits on no hazard.
  EXPECT_TRUE(Offer(&t, kC, {}, ":0"));
  EXPECT_EQ(Bodies(Complete(&t, 1)), Keys({"+OK", "nil"}));
  EXPECT_EQ(t.Hazard(Keys({"any"})), 0u);
}

TEST(CommitTrackerTest, WriteWithoutReplyStillTakesHazards) {
  CommitTracker t;
  t.Write(1, Keys({"expired", "gone"}), false);  // active expiry's DELs
  EXPECT_EQ(t.hazards(), 2u);
  EXPECT_EQ(t.parked(), 0u);
  EXPECT_EQ(t.owners(), 0u);
  EXPECT_FALSE(Offer(&t, kB, Keys({"gone"}), "nil"));
  const std::vector<Release> out = Complete(&t, 1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].owner, kB);
  EXPECT_EQ(t.hazards(), 0u);
}

TEST(CommitTrackerTest, AdminReplyQueuesBehindParkedWrite) {
  CommitTracker t;
  t.Write(1, Keys({"k"}), false, kA, "+OK");
  EXPECT_FALSE(Offer(&t, kA, {}, ":0"));  // SLOWLOG LEN
  EXPECT_FALSE(Offer(&t, kA, {}, "+PONG"));
  EXPECT_EQ(Bodies(Complete(&t, 1)), Keys({"+OK", ":0", "+PONG"}));
  EXPECT_TRUE(Offer(&t, kA, {}, ":1"));  // nothing parked: at once
}

TEST(CommitTrackerTest, WaitIsAnInOrderReply) {
  CommitTracker t;
  t.Write(1, Keys({"w"}), false, kA, "+OK");
  EXPECT_FALSE(Offer(&t, kA, {}, ":2"));  // WAIT behind its own write
  EXPECT_TRUE(Offer(&t, kB, {}, ":2"));   // nothing of B's outstanding
  EXPECT_EQ(Bodies(Complete(&t, 1)), Keys({"+OK", ":2"}));
  EXPECT_TRUE(Offer(&t, kA, {}, ":2"));
}

TEST(CommitTrackerTest, OneRangeReleasesSeveralSeqsInOrder) {
  CommitTracker t;
  t.Write(1, Keys({"a"}), false, kA, "A1");
  t.Write(2, Keys({"b"}), false, kB, "B2");
  EXPECT_FALSE(Offer(&t, kC, Keys({"b"}), "C-read-b"));
  t.Write(3, Keys({"a"}), false, kA, "A3");
  EXPECT_FALSE(Offer(&t, kC, Keys({"a"}), "C-read-a"));
  EXPECT_EQ(Bodies(Complete(&t, 3)),
            Keys({"A1", "B2", "C-read-b", "A3", "C-read-a"}));
  EXPECT_EQ(t.parked(), 0u);
  EXPECT_EQ(t.floor(), 3u);
}

TEST(CommitTrackerTest, FailedRangeFailsParkedReadsAndDropsOwnersRest) {
  CommitTracker t;
  t.Write(1, Keys({"k"}), false, kA, "+OK");
  EXPECT_FALSE(Offer(&t, kA, {}, "A-after"));
  EXPECT_FALSE(Offer(&t, kB, Keys({"k"}), "$1 x"));  // reads the lost value
  EXPECT_FALSE(Offer(&t, kB, {}, "B-after"));
  t.Write(2, Keys({"z"}), false, kC, "C-ok");
  const std::vector<Release> failed = Complete(&t, 1, /*ok=*/false);
  ASSERT_EQ(failed.size(), 2u);
  EXPECT_EQ(failed[0].owner, kA);
  EXPECT_FALSE(failed[0].ok);
  EXPECT_EQ(failed[1].owner, kB);
  EXPECT_FALSE(failed[1].ok);
  EXPECT_EQ(failed[1].body, "$1 x");  // the driver sends an error instead
  EXPECT_EQ(t.owners(), 1u);          // only C still waits
  EXPECT_EQ(t.parked(), 1u);
  const std::vector<Release> ok = Complete(&t, 2);
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_TRUE(ok[0].ok);
  EXPECT_EQ(t.owners(), 0u);
}

TEST(CommitTrackerTest, FailAllFailsEachOwnerOnceAndResolvesEverything) {
  CommitTracker t;
  t.Write(1, Keys({"k"}), false, kA, "A1");
  t.Write(2, Keys({"j"}), false, kB, "B2");
  EXPECT_FALSE(Offer(&t, kA, {}, "A-after"));
  EXPECT_FALSE(Offer(&t, kC, Keys({"k", "j"}), "C-read"));
  std::vector<Release> out;
  t.FailAll(&out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].body, "A1");
  EXPECT_EQ(out[1].body, "B2");
  EXPECT_EQ(out[2].body, "C-read");
  for (const Release& r : out) EXPECT_FALSE(r.ok);
  EXPECT_EQ(t.parked(), 0u);
  EXPECT_EQ(t.owners(), 0u);
  EXPECT_EQ(t.hazards(), 0u);
  EXPECT_EQ(t.floor(), 2u);
  EXPECT_TRUE(Offer(&t, kC, Keys({"k"}), "C-again"));
}

TEST(CommitTrackerTest, ForgetDropsAnOwnersParkedReplies) {
  CommitTracker t;
  t.Write(1, Keys({"k"}), false, kA, "A1");
  EXPECT_FALSE(Offer(&t, kA, Keys({"k"}), "A-read"));
  EXPECT_FALSE(Offer(&t, kB, Keys({"k"}), "B-read"));
  t.Forget(kA);
  EXPECT_FALSE(t.has_parked(kA));
  EXPECT_EQ(t.parked(), 1u);
  EXPECT_EQ(t.parked_writes(), 0u);
  EXPECT_EQ(t.hazards(), 1u);  // A's write is still in the log's hands
  EXPECT_EQ(Bodies(Complete(&t, 1)), Keys({"B-read"}));
}

TEST(CommitTrackerTest, OwnerStateIsFreedOnceNothingIsParked) {
  CommitTracker t;
  t.Write(1, Keys({"k"}), false, kA, "A1");
  t.Write(2, Keys({"k"}), false, kA, "A2");
  EXPECT_TRUE(t.has_parked(kA));
  EXPECT_EQ(t.parked_writes(), 2u);
  Complete(&t, 1);
  EXPECT_TRUE(t.has_parked(kA));
  Complete(&t, 2);
  EXPECT_FALSE(t.has_parked(kA));
  EXPECT_EQ(t.owners(), 0u);
  EXPECT_EQ(t.parked_writes(), 0u);
}

TEST(CommitTrackerTest, UnseenSeqsStillAdvanceTheFloor) {
  CommitTracker t;
  t.Write(2, Keys({"k"}), false, kA, "A2");
  EXPECT_TRUE(Complete(&t, 1).empty());  // a checksum record
  EXPECT_EQ(t.floor(), 1u);
  EXPECT_EQ(t.Hazard(Keys({"k"})), 2u);
  EXPECT_EQ(Bodies(Complete(&t, 5)), Keys({"A2"}));  // lease records 3-5
  EXPECT_EQ(t.floor(), 5u);
  EXPECT_EQ(t.hazards(), 0u);
  EXPECT_TRUE(Complete(&t, 4).empty());  // stale
  EXPECT_EQ(t.floor(), 5u);
}

TEST(CommitTrackerTest, RewrittenKeyKeepsItsNewestHazard) {
  CommitTracker t;
  t.Write(1, Keys({"k", "k"}), false);
  t.Write(2, Keys({"k"}), false);
  Complete(&t, 1);
  EXPECT_EQ(t.Hazard(Keys({"k"})), 2u);
  EXPECT_EQ(t.hazards(), 1u);
  Complete(&t, 2);
  EXPECT_EQ(t.hazards(), 0u);
}

// ---------------------------------------------------------------------------
// Seeded randomized check against a brute-force reference.

// The merged rules, rescanning everything on every step.
class Reference {
 public:
  struct Parked {
    uint64_t owner;
    uint64_t seq;
    uint64_t arrival;
    bool write;
    std::string body;
  };

  uint64_t Hazard(const std::vector<std::string>& keys) const {
    if (keys.empty()) return 0;
    uint64_t h = keyspace_ > floor_ ? keyspace_ : 0;
    for (const std::string& k : keys) {
      const auto it = last_write_.find(k);
      if (it != last_write_.end() && it->second > floor_) {
        h = std::max(h, it->second);
      }
    }
    return h;
  }

  // Returns whether the reply goes out at once, and its hazard.
  bool Reply(uint64_t owner, const std::vector<std::string>& keys,
             const std::string& body, uint64_t* hazard) {
    *hazard = Hazard(keys);
    const uint64_t last = OwnerLast(owner);
    if (*hazard == 0 && last == 0) return true;
    parked_.push_back({owner, std::max(*hazard, last), arrival_++, false, body});
    return false;
  }

  void Write(uint64_t seq, const std::vector<std::string>& keys,
             bool keyspace) {
    newest_ = std::max(newest_, seq);
    if (keyspace) keyspace_ = seq;
    for (const std::string& k : keys) last_write_[k] = seq;
  }

  void WriteReply(uint64_t seq, uint64_t owner, const std::string& body) {
    parked_.push_back(
        {owner, std::max(seq, OwnerLast(owner)), arrival_++, true, body});
  }

  std::vector<Release> Complete(uint64_t seq, bool ok) {
    std::vector<Release> out;
    if (seq <= floor_) return out;
    floor_ = seq;
    for (;;) {
      auto next = parked_.end();
      for (auto it = parked_.begin(); it != parked_.end(); ++it) {
        if (it->seq <= floor_ &&
            (next == parked_.end() || it->seq < next->seq ||
             (it->seq == next->seq && it->arrival < next->arrival))) {
          next = it;
        }
      }
      if (next == parked_.end()) return out;
      const uint64_t owner = next->owner;
      out.push_back({owner, next->seq, next->write, ok, next->body});
      parked_.erase(next);
      if (!ok) Forget(owner);
    }
  }

  std::vector<Release> FailAll() {
    std::vector<Parked> order = parked_;
    std::sort(order.begin(), order.end(), [](const Parked& a, const Parked& b) {
      return a.seq != b.seq ? a.seq < b.seq : a.arrival < b.arrival;
    });
    std::vector<Release> out;
    std::set<uint64_t> failed;
    for (const Parked& p : order) {
      if (failed.insert(p.owner).second) {
        out.push_back({p.owner, p.seq, p.write, false, p.body});
      }
    }
    parked_.clear();
    floor_ = std::max(floor_, newest_);
    return out;
  }

  void Forget(uint64_t owner) {
    parked_.erase(std::remove_if(parked_.begin(), parked_.end(),
                                 [&](const Parked& p) {
                                   return p.owner == owner;
                                 }),
                  parked_.end());
  }

  size_t HazardedKeys() const {
    size_t n = 0;
    for (const auto& [key, seq] : last_write_) n += seq > floor_ ? 1 : 0;
    return n;
  }
  bool HasParked(uint64_t owner) const {
    return std::any_of(parked_.begin(), parked_.end(),
                       [&](const Parked& p) { return p.owner == owner; });
  }
  size_t Owners() const {
    std::set<uint64_t> owners;
    for (const Parked& p : parked_) owners.insert(p.owner);
    return owners.size();
  }
  size_t ParkedWrites() const {
    size_t n = 0;
    for (const Parked& p : parked_) n += p.write ? 1 : 0;
    return n;
  }
  size_t parked() const { return parked_.size(); }
  uint64_t floor() const { return floor_; }

 private:
  uint64_t OwnerLast(uint64_t owner) const {
    uint64_t last = 0;
    for (const Parked& p : parked_) {
      if (p.owner == owner) last = std::max(last, p.seq);
    }
    return last;
  }

  std::vector<Parked> parked_;
  std::map<std::string, uint64_t> last_write_;
  uint64_t keyspace_ = 0;
  uint64_t newest_ = 0;
  uint64_t floor_ = 0;
  uint64_t arrival_ = 0;
};

// Bodies read "owner/n", n counting the owner's submissions, so per-owner
// delivery order is checkable; `due` maps a body to the seq it waits for.
void RunSeed(uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&](uint64_t n) { return rng() % n; };
  const uint64_t owners = 1 + pick(8);
  const std::vector<std::string> universe = {"a", "b", "c", "d", "e", "f"};

  CommitTracker t;
  Reference ref;
  uint64_t issued = 0;  // highest seq handed out (seen or not)
  std::map<uint64_t, uint64_t> next_n;       // per owner
  std::map<uint64_t, uint64_t> delivered_n;  // per owner, last delivered
  std::map<std::string, uint64_t> due;       // body -> seq it must wait for

  const auto keys = [&]() {
    std::vector<std::string> out;
    const uint64_t n = pick(4);
    for (uint64_t i = 0; i < n; ++i) out.push_back(universe[pick(6)]);
    return out;
  };
  const auto body = [&](uint64_t owner) {
    return std::to_string(owner) + "/" + std::to_string(++next_n[owner]);
  };
  const auto deliver = [&](uint64_t owner, const std::string& b, bool ok) {
    const uint64_t n = std::stoull(b.substr(b.find('/') + 1));
    ASSERT_GT(n, delivered_n[owner]) << "owner " << owner << " out of order";
    delivered_n[owner] = n;
    if (ok) {
      ASSERT_LE(due[b], t.floor()) << b << " delivered before its seq";
    }
  };

  for (int step = 0; step < 300; ++step) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                 std::to_string(step));
    const uint64_t op = pick(100);
    const uint64_t owner = 1 + pick(owners);
    if (op < 30) {
      // A logged write; some seqs go to records the tracker never sees.
      issued += 1 + (pick(4) == 0 ? pick(3) : 0);
      const bool keyspace = pick(12) == 0;
      const std::vector<std::string> ks = keyspace ? std::vector<std::string>{}
                                                   : keys();
      ref.Write(issued, ks, keyspace);
      if (pick(4) == 0) {
        t.Write(issued, ks, keyspace);
      } else {
        const std::string b = body(owner);
        due[b] = issued;
        t.Write(issued, ks, keyspace, owner, b);
        ref.WriteReply(issued, owner, b);
      }
    } else if (op < 65) {
      // A read, or a keyless plain reply.
      const std::vector<std::string> ks = keys();
      const std::string b = body(owner);
      uint64_t ref_hazard = 0;
      const bool ref_now = ref.Reply(owner, ks, b, &ref_hazard);
      due[b] = ref_hazard;
      std::string mine = b;
      const CommitTracker::Offer offer = t.Reply(owner, ks, &mine);
      ASSERT_EQ(!offer.parked, ref_now);
      ASSERT_EQ(offer.hazard, ref_hazard);
      if (!offer.parked) {
        ASSERT_EQ(mine, b);
        deliver(owner, b, true);
      }
    } else if (op < 92) {
      if (issued > t.floor() || pick(5) == 0) {
        const uint64_t span = issued > t.floor() ? issued - t.floor() : 1;
        const uint64_t seq = t.floor() + 1 + pick(span);
        issued = std::max(issued, seq);
        const bool ok = pick(8) != 0;
        std::vector<Release> got;
        t.Complete(seq, ok, &got);
        const std::vector<Release> want = ref.Complete(seq, ok);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].owner, want[i].owner);
          ASSERT_EQ(got[i].seq, want[i].seq);
          ASSERT_EQ(got[i].write, want[i].write);
          ASSERT_EQ(got[i].ok, want[i].ok);
          ASSERT_EQ(got[i].body, want[i].body);
          ASSERT_LE(got[i].seq, t.floor());
          deliver(got[i].owner, got[i].body, got[i].ok);
        }
      }
    } else if (op < 98) {
      t.Forget(owner);
      ref.Forget(owner);
    } else {
      std::vector<Release> got;
      t.FailAll(&got);
      const std::vector<Release> want = ref.FailAll();
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].owner, want[i].owner);
        ASSERT_EQ(got[i].body, want[i].body);
        ASSERT_FALSE(got[i].ok);
        deliver(got[i].owner, got[i].body, false);
      }
    }
    ASSERT_EQ(t.floor(), ref.floor());
    ASSERT_EQ(t.hazards(), ref.HazardedKeys());
    ASSERT_EQ(t.parked(), ref.parked());
    ASSERT_EQ(t.parked_writes(), ref.ParkedWrites());
    ASSERT_EQ(t.owners(), ref.Owners());
    for (uint64_t o = 1; o <= owners; ++o) {
      ASSERT_EQ(t.has_parked(o), ref.HasParked(o));
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(CommitTrackerTest, MatchesBruteForceReferenceOver400Seeds) {
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    RunSeed(seed);
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace memdb::replication
