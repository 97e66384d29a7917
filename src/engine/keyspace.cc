#include "engine/keyspace.h"

#include <cstddef>
#include <iterator>

namespace memdb::engine {
namespace {

// A table this small is walked to the drawn offset, which is exact; a
// larger one is entered at a random bucket, so a draw never walks more
// than kWalkMax nodes or scans more than kMaxBucketProbes buckets, however
// many keys share the slot (one hash tag, or a node that owns few slots).
constexpr size_t kWalkMax = 16;
constexpr size_t kMaxBucketProbes = 64;

// The entry of `t` at offset `index` (< t.size()) of a draw whose unused
// high part is `spare`. Past kWalkMax, `spare` picks the bucket to start
// at and `index` the entry within the first non-empty bucket from there
// (Redis's dictGetRandomKey draws a fresh bucket instead of moving on, at
// one rng draw each): every key can be drawn, though not with equal odds.
// A table that erasures left nearly empty (libstdc++ never shrinks the
// bucket array) may show no entry within the probe budget; then the index
// picks among the first kWalkMax entries.
template <typename TableT>
auto& PickInTable(TableT& t, size_t index, uint64_t spare) {
  using Step = std::ptrdiff_t;
  if (t.size() > kWalkMax) {
    const size_t buckets = t.bucket_count();
    size_t b = static_cast<size_t>(spare % buckets);
    for (size_t probe = 0; probe < kMaxBucketProbes; ++probe) {
      if (const size_t n = t.bucket_size(b); n != 0) {
        return *std::next(t.begin(b), static_cast<Step>(index % n));
      }
      b = b + 1 == buckets ? 0 : b + 1;
    }
  }
  // In a small table index % kWalkMax is the index itself.
  return *std::next(t.begin(), static_cast<Step>(index % kWalkMax));
}

}  // namespace

Keyspace::Entry* Keyspace::FindRaw(const std::string& key, uint16_t slot) {
  Table& t = slots_[slot];
  auto it = t.find(key);
  return it == t.end() ? nullptr : &it->second;
}

const Keyspace::Entry* Keyspace::FindRaw(const std::string& key) const {
  const Table& t = TableFor(key);
  auto it = t.find(key);
  return it == t.end() ? nullptr : &it->second;
}

Keyspace::Entry* Keyspace::Find(const std::string& key, uint64_t now_ms) {
  Entry* e = FindRaw(key);
  if (e == nullptr || IsLogicallyExpired(*e, now_ms)) return nullptr;
  return e;
}

const Keyspace::Entry* Keyspace::Find(const std::string& key,
                                      uint64_t now_ms) const {
  const Entry* e = FindRaw(key);
  if (e == nullptr || IsLogicallyExpired(*e, now_ms)) return nullptr;
  return e;
}

Keyspace::Entry* Keyspace::Put(const std::string& key, uint16_t slot,
                               ds::Value value, uint64_t expire_at_ms) {
  auto [it, inserted] = slots_[slot].try_emplace(key, std::move(value));
  Entry& e = it->second;
  if (inserted) {
    AddToSlotSize(slot, 1);
  } else {
    e.value = std::move(value);
    e.lfu_count = kLfuInitVal;
    used_memory_ -= e.cached_mem;
  }
  e.access_at_ms = clock_ms_;
  e.cached_mem = Charge(it->first, e.value);
  used_memory_ += e.cached_mem;
  if (used_memory_ > peak_memory_) peak_memory_ = used_memory_;
  Reindex(it->first, &e, expire_at_ms);
  return &e;
}

bool Keyspace::Erase(const std::string& key) {
  const uint16_t slot = KeyHashSlot(key);
  Table& t = slots_[slot];
  auto it = t.find(key);
  if (it == t.end()) return false;
  Reindex(it->first, &it->second, 0);
  used_memory_ -= it->second.cached_mem;
  t.erase(it);
  AddToSlotSize(slot, -1);
  return true;
}

bool Keyspace::Rename(const std::string& src, const std::string& dst) {
  Entry* e = FindRaw(src);
  if (e == nullptr) return false;
  ds::Value v = std::move(e->value);
  const uint64_t expire = e->expire_at_ms_;
  Erase(src);
  Put(dst, std::move(v), expire);
  return true;
}

void Keyspace::Clear() {
  expires_.clear();
  for (Table& t : slots_) t = Table();
  slot_sizes_tree_.assign(slot_sizes_tree_.size(), 0);
  used_memory_ = 0;
}

Keyspace::Entry* Keyspace::OnValueMutated(const std::string& key,
                                          uint16_t slot) {
  Table& t = slots_[slot];
  auto it = t.find(key);
  if (it == t.end()) return nullptr;
  Entry& e = it->second;
  const size_t new_mem = Charge(it->first, e.value);
  used_memory_ += new_mem;
  used_memory_ -= e.cached_mem;
  e.cached_mem = new_mem;
  if (used_memory_ > peak_memory_) peak_memory_ = used_memory_;
  return &e;
}

void Keyspace::SetExpiry(const std::string& key, uint64_t expire_at_ms) {
  Table& t = TableFor(key);
  auto it = t.find(key);
  if (it != t.end()) Reindex(it->first, &it->second, expire_at_ms);
}

void Keyspace::Reindex(const std::string& key, Entry* e,
                       uint64_t expire_at_ms) {
  if (e->expire_at_ms_ == expire_at_ms) return;
  if (e->expire_at_ms_ != 0) expires_.erase(Deadline{e->expire_at_ms_, &key});
  e->expire_at_ms_ = expire_at_ms;
  if (expire_at_ms != 0) expires_.insert(Deadline{expire_at_ms, &key});
}

// Size() reads the tree's last node, which covers every slot only when the
// slot count is a power of two.
static_assert((kNumSlots & (kNumSlots - 1)) == 0);

void Keyspace::AddToSlotSize(uint16_t slot, int delta) {
  // 1-based Fenwick indexing; `i & (~i + 1)` is i's lowest set bit.
  for (size_t i = static_cast<size_t>(slot) + 1; i <= slot_sizes_tree_.size();
       i += i & (~i + 1)) {
    slot_sizes_tree_[i - 1] += static_cast<uint32_t>(delta);
  }
}

uint16_t Keyspace::LocateKey(size_t* index) const {
  // Descend the implicit tree: `pos` ends as the number of slots whose
  // running total stays at or below the index.
  size_t pos = 0;
  for (size_t step = slot_sizes_tree_.size(); step != 0; step >>= 1) {
    if (pos + step <= slot_sizes_tree_.size() &&
        slot_sizes_tree_[pos + step - 1] <= *index) {
      pos += step;
      *index -= slot_sizes_tree_[pos - 1];
    }
  }
  return static_cast<uint16_t>(pos);
}

std::string Keyspace::RandomKey(uint64_t random_draw) const {
  if (Size() == 0) return "";
  size_t index = static_cast<size_t>(random_draw % Size());
  const uint16_t slot = LocateKey(&index);
  return PickInTable(slots_[slot], index, random_draw / Size()).first;
}

std::vector<Keyspace::Sampled> Keyspace::SampleEntries(Rng& rng,
                                                       size_t want) {
  std::vector<Sampled> out;
  if (Size() == 0) return out;
  out.reserve(want);
  // Valkey's kvstore draws the same way: a uniform key index and its slot
  // from the size tree, then a key within that slot's table. Probing
  // random slots instead would miss in a small keyspace, where nearly
  // every slot is empty.
  for (size_t i = 0; i < want; ++i) {
    // The draw rng.Uniform(Size()) would make: its remainder is the key
    // index, its quotient the spare part PickInTable may use.
    const uint64_t draw = rng.Next();
    size_t index = static_cast<size_t>(draw % Size());
    const uint16_t slot = LocateKey(&index);
    auto& [key, entry] = PickInTable(slots_[slot], index, draw / Size());
    out.push_back(Sampled{&key, &entry});
  }
  return out;
}

const Keyspace::Table& Keyspace::KeysInSlot(uint16_t slot) const {
  return slots_[slot];
}

void Keyspace::ForEach(
    const std::function<void(const std::string&, const Entry&)>& fn) const {
  for (const Table& t : slots_) {
    for (const auto& [k, e] : t) fn(k, e);
  }
}

std::vector<std::string> Keyspace::ExpiredKeys(uint64_t now_ms,
                                               size_t limit) const {
  std::vector<std::string> out;
  for (auto it = expires_.begin();
       it != expires_.end() && it->at_ms <= now_ms && out.size() < limit;
       ++it) {
    out.push_back(*it->key);
  }
  return out;
}

const std::string* Keyspace::EarliestExpiring() const {
  return expires_.empty() ? nullptr : expires_.begin()->key;
}

}  // namespace memdb::engine
