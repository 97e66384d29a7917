// Memory pressure: maxmemory admission and eviction (the engine half of
// DESIGN.md "Memory pressure & load harness").
//
// Like Redis, LRU and LFU eviction are approximations: each round samples a
// handful of random entries and removes the worst-scoring one, repeating
// until the incoming write fits. volatile-ttl is exact: it removes the key
// at the front of the keyspace's deadline index. The removal is replicated
// as an ordinary DEL effect *before* the triggering command's own effect,
// so replicas and restored nodes converge to the primary's post-eviction
// keyspace without ever making eviction decisions themselves (§2.1).

#include "engine/engine.h"

namespace memdb::engine {
namespace {

// Bounds the work one admission can do. A write that still does not fit
// after this many evictions answers -OOM; in practice a single payload
// needing thousands of victims is itself bigger than any sane budget.
constexpr int kMaxEvictionsPerWrite = 1024;

// Redis lfu-log-factor: growth damping for the 8-bit frequency counter.
constexpr double kLfuLogFactor = 10.0;

// Admission sizes a write as the sum of its argv payload bytes, but the
// keyspace charges a string entry Keyspace::kEntryOverhead plus the key's
// and the value's heap blocks, and a block exceeds its string by at most
// the NUL, the 8-byte chunk header and 15 bytes of rounding. Reserving
// this headroom keeps used_memory at or under the budget after the write
// lands; multi-entry writes (MSET) may still run a few overheads over for
// one round, corrected at the next admission.
constexpr size_t kStringBlockSlack = 1 + 8 + 15;
constexpr size_t kEntryOverheadHeadroom =
    Keyspace::kEntryOverhead + 2 * kStringBlockSlack;

}  // namespace

const char* EvictionPolicyName(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kNoEviction: return "noeviction";
    case EvictionPolicy::kAllKeysLru: return "allkeys-lru";
    case EvictionPolicy::kAllKeysLfu: return "allkeys-lfu";
    case EvictionPolicy::kVolatileTtl: return "volatile-ttl";
  }
  return "noeviction";
}

bool ParseEvictionPolicy(const std::string& name, EvictionPolicy* out) {
  if (name == "noeviction") {
    *out = EvictionPolicy::kNoEviction;
  } else if (name == "allkeys-lru") {
    *out = EvictionPolicy::kAllKeysLru;
  } else if (name == "allkeys-lfu") {
    *out = EvictionPolicy::kAllKeysLfu;
  } else if (name == "volatile-ttl") {
    *out = EvictionPolicy::kVolatileTtl;
  } else {
    return false;
  }
  return true;
}

uint8_t Engine::LfuDecayedCount(const Keyspace::Entry& e, uint64_t now_ms) {
  // One decay step per minute since the last touch (Redis lfu-decay-time=1),
  // so yesterday's hot key does not shadow today's working set.
  const uint64_t since = now_ms > e.access_at_ms ? now_ms - e.access_at_ms : 0;
  const uint64_t steps = since / 60000;
  return steps >= e.lfu_count ? 0
                              : static_cast<uint8_t>(e.lfu_count - steps);
}

void Engine::BumpAccess(Keyspace::Entry* e, uint64_t now_ms) {
  if (config_.eviction_policy == EvictionPolicy::kAllKeysLfu) {
    e->lfu_count = LfuDecayedCount(*e, now_ms);
    // Logarithmic probabilistic increment: the hotter the key, the rarer
    // the bump — an 8-bit counter then spans millions of hits.
    const double base =
        e->lfu_count > kLfuInitVal ? e->lfu_count - kLfuInitVal : 0;
    if (e->lfu_count < 255 &&
        rng_.NextDouble() < 1.0 / (1.0 + base * kLfuLogFactor)) {
      ++e->lfu_count;
    }
  }
  e->access_at_ms = now_ms;
}

void Engine::EnsureMemoryMetrics() {
  if (evicted_total_ != nullptr) return;
  MetricsRegistry& reg = metrics();
  evicted_total_ = reg.GetCounter("evicted_keys_total");
  reg.SetHelp("evicted_keys_total",
              "keys removed by the maxmemory eviction policy");
  expired_total_ = reg.GetCounter("expired_keys_total");
  reg.SetHelp("expired_keys_total",
              "keys removed by lazy or active TTL expiry");
  used_memory_gauge_ = reg.GetGauge("used_memory_bytes");
  reg.SetHelp("used_memory_bytes",
              "approximate keyspace memory (values + keys + overhead)");
  maxmemory_gauge_ = reg.GetGauge("maxmemory_bytes");
  reg.SetHelp("maxmemory_bytes", "configured memory budget; 0 = unlimited");
  maxmemory_gauge_->Set(static_cast<int64_t>(config_.maxmemory_bytes));
}

void Engine::EvictNow(const std::string& key, ExecContext& ctx) {
  keyspace_.Erase(key);
  // Victims replicate exactly like expired keys: a plain DEL effect. The
  // dirty entry also hazards the key, so a §3.2 read of an evicted key
  // waits for the removal to be durable before observing absence.
  ctx.effects.push_back({"DEL", key});
  ctx.dirty_keys.push_back(key);
  EnsureMemoryMetrics();
  evicted_total_->Increment();
}

bool Engine::EvictOne(ExecContext& ctx) {
  if (config_.eviction_policy == EvictionPolicy::kVolatileTtl) {
    // Exact, not sampled: the deadline index hands over the key closest
    // to expiry directly.
    const std::string* earliest = keyspace_.EarliestExpiring();
    if (earliest == nullptr) return false;
    const std::string key = *earliest;  // Erase invalidates the pointer
    EvictNow(key, ctx);
    return true;
  }
  const auto samples = keyspace_.SampleEntries(
      rng_, static_cast<size_t>(config_.eviction_samples));
  if (samples.empty()) return false;
  // Higher score = better victim. LRU: idle time. LFU: inverted decayed
  // count, idle time breaking ties.
  const std::string* victim = nullptr;
  uint64_t best = 0;
  for (const Keyspace::Sampled& s : samples) {
    const uint64_t idle = ctx.now_ms > s.entry->access_at_ms
                              ? ctx.now_ms - s.entry->access_at_ms
                              : 0;
    uint64_t score = 0;
    switch (config_.eviction_policy) {
      case EvictionPolicy::kAllKeysLru:
        score = idle;
        break;
      case EvictionPolicy::kAllKeysLfu:
        score = (static_cast<uint64_t>(
                     255 - LfuDecayedCount(*s.entry, ctx.now_ms))
                 << 40) |
                (idle & ((1ULL << 40) - 1));
        break;
      case EvictionPolicy::kVolatileTtl:
      case EvictionPolicy::kNoEviction:
        return false;
    }
    if (victim == nullptr || score > best) {
      victim = s.key;
      best = score;
    }
  }
  const std::string key = *victim;  // Erase invalidates the sampled pointer
  EvictNow(key, ctx);
  return true;
}

bool Engine::EnsureMemoryFor(size_t incoming, ExecContext& ctx) {
  const uint64_t budget = config_.maxmemory_bytes;
  const size_t needed = incoming + kEntryOverheadHeadroom;
  if (keyspace_.used_memory() + needed <= budget) return true;
  // A payload that cannot fit even in an empty keyspace is rejected up
  // front — evicting everything first would just add insult to injury.
  if (needed > budget) return false;
  if (config_.eviction_policy == EvictionPolicy::kNoEviction) return false;
  for (int evictions = 0; evictions < kMaxEvictionsPerWrite; ++evictions) {
    if (!EvictOne(ctx)) return false;
    if (keyspace_.used_memory() + needed <= budget) return true;
  }
  return keyspace_.used_memory() + needed <= budget;
}

}  // namespace memdb::engine
