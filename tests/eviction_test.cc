// Memory-pressure subsystem tests: size-aware admission, the sampled
// eviction policies (allkeys-lru / allkeys-lfu / volatile-ttl), the
// noeviction -OOM path, and the replication invariant that evictions and
// expiries leave the primary only as logged DEL effects — so a log-fed
// replica converges without ever deciding to evict on its own (§2.1).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/crc.h"
#include "engine/engine.h"
#include "engine/snapshot.h"

namespace memdb::engine {
namespace {

using resp::Value;

class EvictionTest : public ::testing::Test {
 protected:
  Value Run(const Argv& argv, uint64_t now_ms = 1000) {
    ctx_ = ExecContext{};
    ctx_.now_ms = now_ms;
    ctx_.rng = &engine_.rng();
    return engine_.Execute(argv, &ctx_);
  }

  bool Exists(const std::string& key, uint64_t now_ms) {
    ctx_ = ExecContext{};
    ctx_.now_ms = now_ms;
    ctx_.rng = &engine_.rng();
    return engine_.Execute({"EXISTS", key}, &ctx_) == Value::Integer(1);
  }

  Engine engine_;
  ExecContext ctx_;
};

TEST_F(EvictionTest, NoEvictionRejectsWithOom) {
  engine_.set_maxmemory(256);
  EXPECT_EQ(Run({"SET", "a", std::string(64, 'x')}), Value::Ok());
  Value v = Run({"SET", "b", std::string(256, 'y')});
  EXPECT_TRUE(v.IsError());
  EXPECT_NE(v.str.find("OOM"), std::string::npos);
  // The rejected write neither landed nor disturbed existing data.
  EXPECT_EQ(Run({"GET", "a"}), Value::Bulk(std::string(64, 'x')));
}

// Regression for the original bug: a write far larger than maxmemory used
// to be admitted and blow straight past the ceiling. It must be rejected
// up front — even under an eviction policy, since no amount of evicting
// makes room for a value bigger than the whole budget.
TEST_F(EvictionTest, OversizedWriteRejectedWithoutEvicting) {
  engine_.set_maxmemory(1024);
  engine_.set_eviction_policy(EvictionPolicy::kAllKeysLru);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(Run({"SET", "k" + std::to_string(i), std::string(32, 'v')}),
              Value::Ok());
  }
  const size_t before = engine_.keyspace().Size();
  Value v = Run({"SET", "huge", std::string(4096, 'z')});
  EXPECT_TRUE(v.IsError());
  EXPECT_NE(v.str.find("OOM"), std::string::npos);
  EXPECT_EQ(engine_.keyspace().Size(), before);  // nothing was sacrificed
  EXPECT_LE(engine_.keyspace().used_memory(), 1024u);
}

TEST_F(EvictionTest, LruEvictsColdKeysFirst) {
  engine_.set_maxmemory(8 * 1024);
  engine_.set_eviction_policy(EvictionPolicy::kAllKeysLru);
  engine_.set_eviction_samples(10);

  // Fill close to the budget, then keep a small hot set fresh while the
  // rest goes cold.
  int n = 0;
  while (engine_.keyspace().used_memory() < 7 * 1024) {
    ASSERT_EQ(Run({"SET", "k" + std::to_string(n), std::string(64, 'v')},
                  1000 + n),
              Value::Ok());
    ++n;
  }
  const uint64_t later = 1000 + n + 100'000;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(Run({"GET", "k" + std::to_string(i)}, later),
              Value::Bulk(std::string(64, 'v')));
  }

  // Push past the ceiling — but fewer new keys than the cold population,
  // so a correct LRU never has to sacrifice the hot set.
  const int extra = n / 2;
  for (int i = 0; i < extra; ++i) {
    Run({"SET", "new" + std::to_string(i), std::string(64, 'v')}, later + i);
  }
  EXPECT_LE(engine_.keyspace().used_memory(), 8 * 1024u);

  // With 10-way sampling against a key population that is overwhelmingly
  // cold, the 5 hot keys survive (the chance a sample round is forced to
  // pick a hot key is negligible with this seeded RNG), and some cold keys
  // were actually evicted to make room.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(Exists("k" + std::to_string(i), later + 1000))
        << "hot key k" << i << " was evicted";
  }
  int cold_left = 0;
  for (int i = 5; i < n; ++i) {
    if (Exists("k" + std::to_string(i), later + 1000)) ++cold_left;
  }
  EXPECT_LT(cold_left, n - 5);
}

// Every key under one hash tag lands in one slot's table, which the
// sampler enters at a bucket instead of walking it: LRU must still find
// cold victims there and keep the budget.
TEST_F(EvictionTest, LruEvictsColdKeysUnderOneHashTag) {
  engine_.set_maxmemory(32 * 1024);
  engine_.set_eviction_policy(EvictionPolicy::kAllKeysLru);
  engine_.set_eviction_samples(10);
  const auto key = [](const std::string& stem, int i) {
    return "{tag}:" + stem + std::to_string(i);
  };

  int n = 0;
  while (engine_.keyspace().used_memory() < 28 * 1024) {
    ASSERT_EQ(Run({"SET", key("k", n), std::string(64, 'v')}, 1000 + n),
              Value::Ok());
    ++n;
  }
  ASSERT_EQ(engine_.keyspace().KeysInSlot(KeyHashSlot("{tag}")).size(),
            static_cast<size_t>(n));
  const uint64_t later = 1000 + n + 100'000;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(Run({"GET", key("k", i)}, later),
              Value::Bulk(std::string(64, 'v')));
  }

  const int extra = n / 2;
  for (int i = 0; i < extra; ++i) {
    ASSERT_EQ(Run({"SET", key("new", i), std::string(64, 'v')}, later + i),
              Value::Ok());
    EXPECT_LE(engine_.keyspace().used_memory(), 32 * 1024u);
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(Exists(key("k", i), later + 1000))
        << "hot key " << key("k", i) << " was evicted";
  }
  int cold_left = 0;
  for (int i = 5; i < n; ++i) {
    if (Exists(key("k", i), later + 1000)) ++cold_left;
  }
  EXPECT_LT(cold_left, n - 5);
}

TEST_F(EvictionTest, LfuKeepsFrequentlyUsedKeys) {
  engine_.set_maxmemory(8 * 1024);
  engine_.set_eviction_policy(EvictionPolicy::kAllKeysLfu);
  engine_.set_eviction_samples(10);

  int n = 0;
  while (engine_.keyspace().used_memory() < 7 * 1024) {
    ASSERT_EQ(Run({"SET", "k" + std::to_string(n), std::string(64, 'v')},
                  1000),
              Value::Ok());
    ++n;
  }
  // Drive the frequency counters of a small hot set far above the rest.
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 5; ++i) {
      Run({"GET", "k" + std::to_string(i)}, 2000 + round);
    }
  }
  const int extra = n / 2;  // fewer than the low-frequency population
  for (int i = 0; i < extra; ++i) {
    Run({"SET", "new" + std::to_string(i), std::string(64, 'v')}, 3000 + i);
  }
  EXPECT_LE(engine_.keyspace().used_memory(), 8 * 1024u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(Exists("k" + std::to_string(i), 5000))
        << "frequent key k" << i << " was evicted";
  }
}

TEST_F(EvictionTest, VolatileTtlOnlyEvictsKeysWithExpiry) {
  engine_.set_maxmemory(4 * 1024);
  engine_.set_eviction_policy(EvictionPolicy::kVolatileTtl);

  // Half the population persistent, half volatile. Deadlines are scattered
  // against insertion order and collide in groups, so both the ordering and
  // its tie-break (by key) are exercised.
  int n = 0;
  while (engine_.keyspace().used_memory() < 3 * 1024) {
    ASSERT_EQ(Run({"SET", "p" + std::to_string(n), std::string(64, 'v')}),
              Value::Ok());
    const uint64_t ttl_ms = 3600000 + static_cast<uint64_t>(n * 37 % 13) * 1000;
    ASSERT_EQ(Run({"SET", "t" + std::to_string(n), std::string(64, 'v'),
                   "PX", std::to_string(ttl_ms)}),
              Value::Ok());
    ++n;
  }
  size_t evicted = 0;
  for (int i = 0; i < 100; ++i) {
    // Brute-force (deadline, key) order of the volatile keys right now.
    std::vector<std::pair<uint64_t, std::string>> by_deadline;
    engine_.keyspace().ForEach(
        [&](const std::string& k, const Keyspace::Entry& e) {
          if (e.expire_at_ms() != 0) by_deadline.emplace_back(e.expire_at_ms(), k);
        });
    std::sort(by_deadline.begin(), by_deadline.end());
    const Value reply =
        Run({"SET", "more" + std::to_string(i), std::string(64, 'v')});
    // Every victim of this write is the earliest deadline left, in turn:
    // the DELs ahead of the SET's own effect are a prefix of that order.
    // A write that ran out of volatile keys answers -OOM with the DELs of
    // everything it did evict.
    const size_t victims = ctx_.effects.size() - (reply.IsError() ? 0 : 1);
    ASSERT_LE(victims, by_deadline.size());
    for (size_t v = 0; v < victims; ++v) {
      EXPECT_EQ(ctx_.effects[v], (Argv{"DEL", by_deadline[v].second}))
          << "victim " << v << " of write " << i;
    }
    if (reply.IsError()) {
      EXPECT_EQ(victims, by_deadline.size());
      EXPECT_NE(reply.str.find("OOM"), std::string::npos);
    } else {
      EXPECT_EQ(ctx_.effects.back()[0], "SET");
    }
    evicted += victims;
  }
  EXPECT_GT(evicted, 0u);
  // Every persistent key survived; only TTL'd keys were sacrificed.
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(Exists("p" + std::to_string(i), 2000))
        << "persistent key p" << i << " was evicted by volatile-ttl";
  }
  size_t volatile_left = 0;
  for (int i = 0; i < n; ++i) {
    if (Exists("t" + std::to_string(i), 2000)) ++volatile_left;
  }
  EXPECT_LT(volatile_left, static_cast<size_t>(n));

  // Once no volatile keys remain, volatile-ttl degrades to -OOM.
  for (int i = 0; i < n; ++i) Run({"DEL", "t" + std::to_string(i)});
  for (int i = 0; i < 200; ++i) {
    Value v = Run({"SET", "fill" + std::to_string(i), std::string(64, 'v')});
    if (v.IsError()) {
      EXPECT_NE(v.str.find("OOM"), std::string::npos);
      return;  // reached the ceiling with nothing evictable — correct
    }
  }
  FAIL() << "never hit -OOM with no volatile keys left";
}

// Eviction DELs ride in ctx.effects ahead of the admitted command's own
// effect, so a log consumer replays them in the order the primary applied
// them.
TEST_F(EvictionTest, EvictionEmitsDelEffectsBeforeCommandEffect) {
  engine_.set_maxmemory(512);
  engine_.set_eviction_policy(EvictionPolicy::kAllKeysLru);
  while (true) {
    Value v = Run({"SET", "k" + std::to_string(engine_.keyspace().Size()),
                   std::string(64, 'v')});
    ASSERT_FALSE(v.IsError());
    if (ctx_.effects.size() > 1) break;  // this write forced evictions
    ASSERT_LT(engine_.keyspace().Size(), 64u);
  }
  for (size_t i = 0; i + 1 < ctx_.effects.size(); ++i) {
    EXPECT_EQ(ctx_.effects[i][0], "DEL");
    EXPECT_EQ(ctx_.effects[i].size(), 2u);
  }
  EXPECT_EQ(ctx_.effects.back()[0], "SET");
}

// The §2.1 invariant end to end at engine level: run a primary under a
// tight budget with evictions AND expiries, feed its effect log to a
// replica with no maxmemory at all, and compare snapshots byte for byte.
// The replica never evicts or expires by itself — the log alone carries
// every removal.
TEST_F(EvictionTest, ReplicaConvergesThroughLoggedEvictionsAndExpiry) {
  engine_.set_maxmemory(16 * 1024);
  engine_.set_eviction_policy(EvictionPolicy::kAllKeysLru);
  Engine replica;  // unbounded: any divergence would show up in the snapshot

  std::vector<Argv> log;
  Rng workload(7);
  for (int i = 0; i < 4000; ++i) {
    ExecContext ctx;
    ctx.now_ms = 1000 + static_cast<uint64_t>(i) * 10;
    ctx.rng = &engine_.rng();
    Argv cmd;
    const std::string key = "k" + std::to_string(workload.Uniform(600));
    if (workload.OneIn(4)) {
      cmd = {"SET", key, workload.RandomString(64), "PX",
             std::to_string(workload.UniformRange(50, 5000))};
    } else {
      cmd = {"SET", key, workload.RandomString(64)};
    }
    Value v = engine_.Execute(cmd, &ctx);
    ASSERT_FALSE(v.IsError()) << v.str;
    for (auto& e : ctx.effects) log.push_back(std::move(e));
  }
  // Primary-side active expiry; its DELs join the log like any other
  // effect (the real server submits them through the commit gate).
  ExecContext sweep;
  sweep.now_ms = 10'000'000;
  engine_.ActiveExpire(&sweep, 1'000'000);
  for (auto& e : sweep.effects) log.push_back(std::move(e));

  EXPECT_LE(engine_.keyspace().used_memory(), 16 * 1024u);

  for (const Argv& effect : log) {
    Value v = replica.Apply(effect, 0);
    ASSERT_FALSE(v.IsError()) << v.ToString();
  }
  SnapshotMeta meta;
  EXPECT_EQ(SerializeSnapshot(engine_.keyspace(), meta),
            SerializeSnapshot(replica.keyspace(), meta))
      << "replica diverged from post-eviction/post-expiry primary";
  EXPECT_GT(engine_.keyspace().Size(), 0u);
}

TEST_F(EvictionTest, PolicyNamesRoundTrip) {
  for (EvictionPolicy p :
       {EvictionPolicy::kNoEviction, EvictionPolicy::kAllKeysLru,
        EvictionPolicy::kAllKeysLfu, EvictionPolicy::kVolatileTtl}) {
    EvictionPolicy parsed;
    ASSERT_TRUE(ParseEvictionPolicy(EvictionPolicyName(p), &parsed));
    EXPECT_EQ(parsed, p);
  }
  EvictionPolicy parsed;
  EXPECT_FALSE(ParseEvictionPolicy("allkeys-random", &parsed));
}

TEST_F(EvictionTest, InfoMemoryReportsPressureCounters) {
  MetricsRegistry metrics;
  engine_.set_metrics(&metrics);
  engine_.set_maxmemory(512);
  engine_.set_eviction_policy(EvictionPolicy::kAllKeysLru);
  for (int i = 0; i < 64; ++i) {
    Run({"SET", "k" + std::to_string(i), std::string(64, 'v')});
  }
  Value info = Run({"INFO", "MEMORY"});
  ASSERT_EQ(info.type, resp::Type::kBulkString);
  EXPECT_NE(info.str.find("maxmemory:512"), std::string::npos);
  EXPECT_NE(info.str.find("maxmemory_policy:allkeys-lru"), std::string::npos);
  EXPECT_EQ(info.str.find("evicted_keys:0"), std::string::npos);
  EXPECT_NE(info.str.find("evicted_keys:"), std::string::npos);
  double evicted = 0;
  ASSERT_TRUE(MetricsRegistry::ParseSeries(metrics.ExpositionText(),
                                           "evicted_keys_total", &evicted));
  EXPECT_GT(evicted, 0);
}

}  // namespace
}  // namespace memdb::engine
