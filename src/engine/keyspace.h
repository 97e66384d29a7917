// Keyspace: the engine's key -> value dictionary, with per-key expiry,
// CRC16 slot tracking (for cluster mode and slot migration), and memory
// accounting (for maxmemory and the fork/COW model).
//
// Keys live in one hash table per hash slot, the layout of Valkey's
// kvstore: a slot's keys are its table, and a Fenwick tree over the
// per-slot sizes turns a uniform key index into a (slot, offset) pair for
// sampling. Keys that carry a deadline are also indexed by (deadline, key),
// the analogue of Redis's separate `expires` dictionary: active expiry and
// volatile-ttl eviction read the front of that index instead of walking
// every key. Only Keyspace writes a deadline, so the index cannot drift.

#ifndef MEMDB_ENGINE_KEYSPACE_H_
#define MEMDB_ENGINE_KEYSPACE_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/crc.h"
#include "common/rng.h"
#include "ds/value.h"

namespace memdb::engine {

// Initial LFU counter for a fresh entry (Redis LFU_INIT_VAL): new keys start
// warm enough that they are not evicted before they had a chance to be hit.
inline constexpr uint8_t kLfuInitVal = 5;

class Keyspace {
 public:
  Keyspace() = default;
  // The deadline index points into the tables' own nodes, so a copy's index
  // would point into the source.
  Keyspace(const Keyspace&) = delete;
  Keyspace& operator=(const Keyspace&) = delete;

  class Entry {
   public:
    ds::Value value;
    // Cached ApproxMemory of `value`, maintained by Keyspace.
    size_t cached_mem = 0;
    // Eviction sidecar (never replicated: access patterns are local to a
    // node, and only the serving primary evicts — its removals reach the
    // replicas as logged DELs, §2.1). `access_at_ms` is the LRU clock;
    // `lfu_count` the Redis-style 8-bit logarithmic frequency counter.
    uint64_t access_at_ms = 0;
    uint8_t lfu_count = kLfuInitVal;

    explicit Entry(ds::Value v) : value(std::move(v)) {}

    // Absolute expiry in milliseconds of engine time; 0 = no expiry.
    uint64_t expire_at_ms() const { return expire_at_ms_; }

   private:
    friend class Keyspace;
    // Written only by Keyspace, which keeps `expires_` in step with it.
    uint64_t expire_at_ms_ = 0;
  };

  // Hashes a key as std::hash<std::string> does. With std::hash itself,
  // libstdc++ finds a key in a table of up to 20 entries by comparing it
  // with every entry's key string, one cache miss per entry, and a slot
  // holds a few keys; with a hasher of its own it hashes every lookup. The
  // call is not noexcept, so the node still caches the hash code and a
  // chain compares codes before keys.
  struct KeyHash {
    size_t operator()(const std::string& key) const {
      return std::hash<std::string_view>()(key);
    }
  };
  // One hash slot's keys.
  using Table = std::unordered_map<std::string, Entry, KeyHash>;

  // Heap bytes one entry costs besides its key's and its value's own
  // blocks: the table node (chain link, key object, Entry, cached hash) in
  // its malloc chunk, plus the node's bucket slot (load factor <= 1).
  static constexpr size_t kEntryOverhead =
      ds::MallocChunk(sizeof(void*) + sizeof(Table::value_type) +
                      sizeof(size_t)) +
      sizeof(void*);

  // What `used_memory` charges for `key` holding `value`.
  static size_t Charge(const std::string& key, const ds::Value& value) {
    return kEntryOverhead + ds::StringHeapBytes(key) + value.ApproxMemory();
  }

  // Lookup that ignores expiry (used by replication/migration internals).
  // The forms that take `slot` skip hashing the key; it must be
  // KeyHashSlot(key).
  Entry* FindRaw(const std::string& key) {
    return FindRaw(key, KeyHashSlot(Slice(key)));
  }
  Entry* FindRaw(const std::string& key, uint16_t slot);
  const Entry* FindRaw(const std::string& key) const;

  // Lookup honoring expiry: an entry past its expiry at `now_ms` is treated
  // as absent. Does NOT delete it (deletion is the caller's decision so that
  // primaries can replicate the removal and replicas can wait for it).
  Entry* Find(const std::string& key, uint64_t now_ms);
  const Entry* Find(const std::string& key, uint64_t now_ms) const;

  bool IsLogicallyExpired(const Entry& e, uint64_t now_ms) const {
    return e.expire_at_ms_ != 0 && e.expire_at_ms_ <= now_ms;
  }

  // Inserts or replaces, with deadline `expire_at_ms` (0 = none). Returns
  // the entry. Replacing keeps the table node and its key string (so the
  // deadline index's pointer stays valid) and resets the access stamp and
  // LFU counter as for a fresh entry.
  Entry* Put(const std::string& key, ds::Value value,
             uint64_t expire_at_ms = 0) {
    return Put(key, KeyHashSlot(Slice(key)), std::move(value), expire_at_ms);
  }
  Entry* Put(const std::string& key, uint16_t slot, ds::Value value,
             uint64_t expire_at_ms = 0);
  // Removes the key. Returns true if it existed.
  bool Erase(const std::string& key);
  // Renames; dst is overwritten. Returns false if src missing.
  bool Rename(const std::string& src, const std::string& dst);

  void Clear();

  // Recomputes the cached memory of `key` after in-place mutation of its
  // value. Call after any write through Find/FindRaw. Returns the entry, or
  // nullptr when the key is absent.
  Entry* OnValueMutated(const std::string& key) {
    return OnValueMutated(key, KeyHashSlot(Slice(key)));
  }
  Entry* OnValueMutated(const std::string& key, uint16_t slot);
  // Sets (or with 0 clears) the deadline of an existing key.
  void SetExpiry(const std::string& key, uint64_t expire_at_ms);

  // The size tree's last node covers all 16384 slots.
  size_t Size() const { return slot_sizes_tree_.back(); }
  // Keys carrying a deadline, expired or not (INFO's `expires=`).
  size_t ExpiresSize() const { return expires_.size(); }
  size_t used_memory() const { return used_memory_; }
  size_t used_memory_peak() const { return peak_memory_; }

  // Engine clock: refreshed by Engine::Execute before each command so that
  // Put can stamp fresh entries' access time without threading a context
  // through every handler.
  void set_clock_ms(uint64_t now_ms) { clock_ms_ = now_ms; }
  uint64_t clock_ms() const { return clock_ms_; }

  // Eviction candidate sampling (Redis-style approximation): `want`
  // entries drawn with replacement, one rng draw each; none when the
  // keyspace is empty. The slot is drawn in proportion to its size, then a
  // key within it from a bounded walk or bucket probe, so a draw costs the
  // same whether the keys share one slot or spread over all of them.
  // Duplicates are possible and harmless — the caller picks one victim per
  // round.
  struct Sampled {
    const std::string* key;
    Entry* entry;
  };
  std::vector<Sampled> SampleEntries(Rng& rng, size_t want);

  // Random existing key, drawn as SampleEntries draws one; empty if the
  // keyspace is empty.
  std::string RandomKey(uint64_t random_draw) const;

  // The table of every key mapped to `slot`, expired or not (migration
  // support). Iteration order is the table's, not sorted.
  const Table& KeysInSlot(uint16_t slot) const;

  // Iterates every entry, slot by slot (expiry not consulted).
  void ForEach(
      const std::function<void(const std::string&, const Entry&)>& fn) const;

  // Keys whose expiry has passed at now_ms, earliest deadline first (ties
  // by key), up to `limit` (active expiry cycle support). O(limit), and
  // nothing when no key has a deadline.
  std::vector<std::string> ExpiredKeys(uint64_t now_ms, size_t limit) const;

  // The key with the earliest deadline (ties by key), expired or not;
  // nullptr when no key has one (volatile-ttl eviction).
  const std::string* EarliestExpiring() const;

 private:
  // One index element per key with a deadline. `key` points at the table
  // node's own key string, which stays put until the entry is erased.
  struct Deadline {
    uint64_t at_ms;
    const std::string* key;
  };
  struct DeadlineOrder {
    bool operator()(const Deadline& a, const Deadline& b) const {
      if (a.at_ms != b.at_ms) return a.at_ms < b.at_ms;
      return *a.key < *b.key;
    }
  };

  // Moves `e` (mapped under `key`, the table's own string) to deadline
  // `expire_at_ms` in both the entry and the index.
  void Reindex(const std::string& key, Entry* e, uint64_t expire_at_ms);

  Table& TableFor(const std::string& key) { return slots_[KeyHashSlot(key)]; }
  const Table& TableFor(const std::string& key) const {
    return slots_[KeyHashSlot(key)];
  }

  // Fenwick tree over the per-slot key counts.
  void AddToSlotSize(uint16_t slot, int delta);
  // The slot holding the `index`-th key (0-based, in slot order); leaves
  // in `*index` the key's offset within that slot's table.
  uint16_t LocateKey(size_t* index) const;

  // Allocated up front: an empty table allocates nothing.
  std::vector<Table> slots_{static_cast<size_t>(kNumSlots)};
  std::vector<uint32_t> slot_sizes_tree_ =
      std::vector<uint32_t>(static_cast<size_t>(kNumSlots));
  std::set<Deadline, DeadlineOrder> expires_;
  size_t used_memory_ = 0;
  size_t peak_memory_ = 0;
  uint64_t clock_ms_ = 0;
};

// Value (40 B) + cached_mem + access_at_ms + lfu_count + expire_at_ms_. A
// table node adds a chain link, the key object and a cached hash: 8 + 32 +
// 72 + 8 = 120 bytes, which fits glibc's 128-byte chunk. One byte more
// would put every key in a 144-byte chunk.
static_assert(sizeof(Keyspace::Entry) <= 72);
static_assert(Keyspace::kEntryOverhead == 128 + sizeof(void*));

}  // namespace memdb::engine

#endif  // MEMDB_ENGINE_KEYSPACE_H_
