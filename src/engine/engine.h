// Engine: the in-memory execution engine — the role OSS Redis plays in the
// paper. Executes commands against a Keyspace and emits a *deterministic
// effect stream* (the replication stream of §3.1): most write commands
// replicate verbatim, while non-deterministic ones (SPOP, SRANDMEMBER-driven
// mutations, relative expiries) are rewritten into deterministic effects.
//
// The engine is deliberately unaware of durability, clustering, and
// networking; MemoryDB nodes (src/memorydb) and the Redis baseline
// (src/redisbaseline) both embed it and consume its effect stream.

#ifndef MEMDB_ENGINE_ENGINE_H_
#define MEMDB_ENGINE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "engine/keyspace.h"
#include "resp/resp.h"

namespace memdb::engine {

using Argv = std::vector<std::string>;

// Identity of the embedding server process, surfaced through INFO. The node
// layer (MemoryDB or the Redis baseline) fills this from its own
// configuration and role state; a bare engine reports defaults.
struct ServerInfo {
  std::string engine_version = "7.0.7";
  std::string role = "master";  // "master" | "replica" | "loading"
  uint64_t node_id = 0;
  uint64_t applied_index = 0;   // last applied transaction-log entry
  // Process identity (INFO # Server; fleet scrapers label rows with it).
  // A bare engine / simulated node reports the zero defaults.
  uint64_t pid = 0;
  std::string run_id;           // random hex id, fresh per process start
  uint64_t start_unix_ms = 0;   // wall clock at process start; 0 = unknown
  std::string build_sha;        // git sha the binary was built from
  // Cluster identity (INFO # Cluster): the shard this node belongs to and
  // whether hash-slot routing is active on it.
  std::string shard_id;
  bool cluster_enabled = false;
};

// Who is running the command; controls lazy-expiry behaviour (§2.1: replicas
// never expire keys themselves, they wait for the primary's DEL).
enum class Role {
  kPrimary,       // reads+writes; lazy expiry deletes and emits DEL effects
  kReplicaApply,  // applying replicated effects; expiry checks bypassed
  kReplicaRead,   // serving reads; expired keys invisible but not deleted
};

struct ExecContext {
  uint64_t now_ms = 0;
  Role role = Role::kPrimary;
  Rng* rng = nullptr;  // required for SPOP / SRANDMEMBER / RANDOMKEY
  // Server identity for INFO; nullptr when running the engine standalone.
  const ServerInfo* server = nullptr;

  // -- outputs ------------------------------------------------------------
  // Replication effects produced by the commands executed under this
  // context (already deterministic; ready for the transaction log).
  std::vector<Argv> effects;
  // Keys whose value or expiry changed (drives the client blocking
  // tracker's key-level hazard detection, §3.2).
  std::vector<std::string> dirty_keys;
  // Set by writes that change every key at once (FLUSHALL, FLUSHDB): the
  // tracker then hazards the whole keyspace, not a list of keys.
  bool keyspace_dirty = false;

  // Internal: set by handlers that emit custom effects.
  bool effects_overridden = false;
  size_t effects_mark = 0;

  // The hash slot of the command's first key, hashed at most once per
  // command: Execute points `slot_key` at that argv string, the first
  // keyspace call on it fills `slot` (-1 = not hashed yet; a caller that
  // routed the command by that key may pass its slot in), and both reset
  // when the command ends, since argv strings are reused.
  const std::string* slot_key = nullptr;
  int32_t slot = -1;
};

struct CommandSpec {
  using Handler = resp::Value (*)(class Engine&, const Argv&, ExecContext&);

  std::string name;
  // Redis arity convention: positive = exact argc, negative = minimum.
  int arity = 0;
  bool is_write = false;
  // Key positions (Redis style): first/last argv index holding keys, step
  // between them; last = -1 means "through the end". 0/0/0 = no keys.
  int first_key = 0;
  int last_key = 0;
  int key_step = 0;
  Handler handler = nullptr;
  // Writes that can only shrink or re-stamp state (DEL, EXPIRE, FLUSHALL…)
  // must stay executable at the memory ceiling — they are how pressure is
  // relieved. Mirrors the inverse of Redis's CMD_DENYOOM flag.
  bool deny_oom = true;
  // Dense index in registration order, assigned by the engine: per-command
  // instruments live in vectors indexed by it.
  uint32_t id = 0;
};

// How the primary makes room under `maxmemory` (the Redis policies, LRU
// and LFU sampled; DESIGN.md "Memory pressure & load harness").
enum class EvictionPolicy {
  kNoEviction,   // writes beyond the budget fail with -OOM
  kAllKeysLru,   // evict the least-recently-used of a random sample
  kAllKeysLfu,   // evict the least-frequently-used of a random sample
  kVolatileTtl,  // evict the key with the earliest deadline (exact)
};

// "noeviction" | "allkeys-lru" | "allkeys-lfu" | "volatile-ttl".
const char* EvictionPolicyName(EvictionPolicy policy);
bool ParseEvictionPolicy(const std::string& name, EvictionPolicy* out);

class Engine {
 public:
  struct Config {
    // 0 = unlimited. A write that would push `used_memory` beyond this
    // either evicts per `eviction_policy` or fails with -OOM.
    uint64_t maxmemory_bytes = 0;
    EvictionPolicy eviction_policy = EvictionPolicy::kNoEviction;
    // Candidates examined per LRU/LFU eviction round (Redis
    // maxmemory-samples): larger samples approximate exact LRU/LFU more
    // closely, at more per-write work. volatile-ttl does not sample.
    int eviction_samples = 5;
    uint64_t rng_seed = 0x9e3779b9;
  };

  Engine();  // default configuration
  explicit Engine(Config config);

  // Executes one command: `spec` is FindCommand(argv[0]), which a caller
  // that already resolved it passes on. Fills ctx->effects /
  // ctx->dirty_keys for writes.
  resp::Value Execute(const CommandSpec* spec, const Argv& argv,
                      ExecContext* ctx);
  resp::Value Execute(const Argv& argv, ExecContext* ctx) {
    return Execute(argv.empty() ? nullptr : FindCommand(argv[0]), argv, ctx);
  }

  // Convenience for replicas: applies one replicated effect command.
  resp::Value Apply(const Argv& argv, uint64_t now_ms);

  // Active expiry cycle (primary only): removes up to `limit` expired keys,
  // emitting DEL effects into ctx. Returns number expired.
  size_t ActiveExpire(ExecContext* ctx, size_t limit);

  Keyspace& keyspace() { return keyspace_; }
  const Keyspace& keyspace() const { return keyspace_; }
  Rng& rng() { return rng_; }
  const Config& config() const { return config_; }
  void set_maxmemory(uint64_t bytes) { config_.maxmemory_bytes = bytes; }
  void set_eviction_policy(EvictionPolicy policy) {
    config_.eviction_policy = policy;
  }
  void set_eviction_samples(int samples) { config_.eviction_samples = samples; }

  // The registry backing Commandstats/Latencystats and the METRICS command.
  // An embedding node shares its own registry so engine- and node-level
  // series appear in one scrape; a bare engine uses a private one.
  MetricsRegistry& metrics() {
    return metrics_override_ != nullptr ? *metrics_override_ : own_metrics_;
  }
  const MetricsRegistry& metrics() const {
    return metrics_override_ != nullptr ? *metrics_override_ : own_metrics_;
  }
  void set_metrics(MetricsRegistry* registry);

  // Case-insensitive, without copying the name; nullptr when unknown.
  const CommandSpec* FindCommand(std::string_view name) const;
  // All registered commands, by name (drives the consistency-test
  // generator, which mirrors the paper's "parse the API specification"
  // approach, §7.2.2.2).
  std::vector<const CommandSpec*> ListCommands() const;

  // Extracts the keys a command addresses, per its key spec.
  static std::vector<std::string> CommandKeys(const CommandSpec& spec,
                                              const Argv& argv);

  static std::string Upper(const std::string& s);

  // ---- helpers shared by command implementations (internal) -------------
  // Read lookup honoring role-specific expiry semantics. Bumps the entry's
  // LRU clock / LFU counter, so eviction sampling sees real access recency.
  Keyspace::Entry* LookupRead(const std::string& key, ExecContext& ctx);
  // Write lookup: on the primary an expired key is deleted (DEL effect).
  Keyspace::Entry* LookupWrite(const std::string& key, ExecContext& ctx);
  // Marks a key dirty and refreshes its memory accounting.
  void Touch(const std::string& key, ExecContext& ctx);
  // KeyHashSlot(key), hashed once per command for its first key (see
  // ExecContext::slot).
  static uint16_t SlotOf(const std::string& key, ExecContext& ctx);

  // LFU counter of `e` after time decay (one step per elapsed minute),
  // without mutating the entry. Exposed for tests and victim scoring.
  static uint8_t LfuDecayedCount(const Keyspace::Entry& e, uint64_t now_ms);

 private:
  void RegisterAll();
  void Register(CommandSpec spec);
  // Deletes an expired key on the primary and replicates the removal.
  void ExpireNow(const std::string& key, ExecContext& ctx);

  // ---- memory pressure (eviction.cc) -------------------------------------
  // Admission check for a primary write of ~`incoming` payload bytes: true
  // if it fits under maxmemory, evicting per policy when needed. False
  // means the command must answer -OOM without running.
  bool EnsureMemoryFor(size_t incoming, ExecContext& ctx);
  // One eviction round (sampled for LRU/LFU, exact for volatile-ttl);
  // false when nothing is evictable.
  bool EvictOne(ExecContext& ctx);
  // Removes `key` for eviction and replicates the removal as a DEL effect.
  void EvictNow(const std::string& key, ExecContext& ctx);
  // Refreshes the entry's access metadata (LRU clock, probabilistic LFU
  // increment with decay).
  void BumpAccess(Keyspace::Entry* e, uint64_t now_ms);
  // Lazily binds + describes the memory metrics in the current registry.
  void EnsureMemoryMetrics();

  // Longest command name FindCommand upper-cases on the stack.
  static constexpr size_t kMaxCommandName = 32;

  Config config_;
  Keyspace keyspace_;
  Rng rng_;
  // Keyed by uppercase name; std::less<> finds by string_view.
  std::map<std::string, CommandSpec, std::less<>> table_;
  size_t longest_name_ = 0;

  MetricsRegistry own_metrics_;
  MetricsRegistry* metrics_override_ = nullptr;
  // engine_commands_total{cmd}, by CommandSpec::id; bound on first use.
  std::vector<Counter*> calls_by_id_;
  // Memory-pressure series, cached for the same reason (reset when the
  // embedding node swaps in its shared registry).
  Counter* evicted_total_ = nullptr;
  Counter* expired_total_ = nullptr;
  Gauge* used_memory_gauge_ = nullptr;
  Gauge* maxmemory_gauge_ = nullptr;
};

// Per-category registration, implemented in commands_*.cc.
void RegisterStringCommands(Engine* e,
                            const std::function<void(CommandSpec)>& add);
void RegisterKeyCommands(Engine* e,
                         const std::function<void(CommandSpec)>& add);
void RegisterListCommands(Engine* e,
                          const std::function<void(CommandSpec)>& add);
void RegisterHashCommands(Engine* e,
                          const std::function<void(CommandSpec)>& add);
void RegisterSetCommands(Engine* e,
                         const std::function<void(CommandSpec)>& add);
void RegisterZSetCommands(Engine* e,
                          const std::function<void(CommandSpec)>& add);
void RegisterServerCommands(Engine* e,
                            const std::function<void(CommandSpec)>& add);
void RegisterBitmapCommands(Engine* e,
                            const std::function<void(CommandSpec)>& add);
void RegisterHllCommands(Engine* e,
                         const std::function<void(CommandSpec)>& add);
void RegisterExtendedCommands(Engine* e,
                              const std::function<void(CommandSpec)>& add);

}  // namespace memdb::engine

#endif  // MEMDB_ENGINE_ENGINE_H_
