#include "engine/keyspace.h"

namespace memdb::engine {

Keyspace::Entry* Keyspace::FindRaw(const std::string& key) {
  auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second;
}

const Keyspace::Entry* Keyspace::FindRaw(const std::string& key) const {
  auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second;
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

Keyspace::Entry* Keyspace::Put(const std::string& key, ds::Value value,
                               uint64_t expire_at_ms) {
  Erase(key);
  auto [it, inserted] = map_.emplace(key, Entry(std::move(value)));
  it->second.cached_mem = it->second.value.ApproxMemory() + key.size() + 48;
  it->second.access_at_ms = clock_ms_;
  used_memory_ += it->second.cached_mem;
  if (used_memory_ > peak_memory_) peak_memory_ = used_memory_;
  slot_keys_[KeyHashSlot(key)].insert(key);
  Reindex(it->first, &it->second, expire_at_ms);
  return &it->second;
}

bool Keyspace::Erase(const std::string& key) {
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  Reindex(it->first, &it->second, 0);
  used_memory_ -= it->second.cached_mem;
  slot_keys_[KeyHashSlot(key)].erase(key);
  map_.erase(it);
  return true;
}

bool Keyspace::Rename(const std::string& src, const std::string& dst) {
  auto it = map_.find(src);
  if (it == map_.end()) return false;
  ds::Value v = std::move(it->second.value);
  const uint64_t expire = it->second.expire_at_ms_;
  Erase(src);
  Put(dst, std::move(v), expire);
  return true;
}

void Keyspace::Clear() {
  expires_.clear();
  map_.clear();
  for (auto& s : slot_keys_) s.clear();
  used_memory_ = 0;
}

void Keyspace::OnValueMutated(const std::string& key) {
  Entry* e = FindRaw(key);
  if (e == nullptr) return;
  const size_t new_mem = e->value.ApproxMemory() + key.size() + 48;
  used_memory_ += new_mem;
  used_memory_ -= e->cached_mem;
  e->cached_mem = new_mem;
  if (used_memory_ > peak_memory_) peak_memory_ = used_memory_;
}

void Keyspace::SetExpiry(const std::string& key, uint64_t expire_at_ms) {
  auto it = map_.find(key);
  if (it != map_.end()) Reindex(it->first, &it->second, expire_at_ms);
}

void Keyspace::Reindex(const std::string& key, Entry* e,
                       uint64_t expire_at_ms) {
  if (e->expire_at_ms_ == expire_at_ms) return;
  if (e->expire_at_ms_ != 0) expires_.erase(Deadline{e->expire_at_ms_, &key});
  e->expire_at_ms_ = expire_at_ms;
  if (expire_at_ms != 0) expires_.insert(Deadline{expire_at_ms, &key});
}

std::string Keyspace::RandomKey(uint64_t random_draw) const {
  if (map_.empty()) return "";
  // Deterministic pick: walk to the (draw % size)-th bucket entry. O(n) but
  // RANDOMKEY is rare; acceptable.
  size_t idx = static_cast<size_t>(random_draw % map_.size());
  auto it = map_.begin();
  std::advance(it, static_cast<long>(idx));
  return it->first;
}

std::vector<Keyspace::Sampled> Keyspace::SampleEntries(Rng& rng,
                                                       size_t want) {
  std::vector<Sampled> out;
  if (map_.empty() || want == 0) return out;
  const size_t buckets = map_.bucket_count();
  // Bounded random bucket probing, the std::unordered_map analogue of
  // Redis's dictGetSomeKeys: a sparse table leaves many buckets empty, so
  // the probe budget is a small multiple of the sample size — fewer
  // candidates under pressure beats an unbounded scan.
  const size_t max_probes = want * 8 + 8;
  for (size_t probe = 0; probe < max_probes && out.size() < want; ++probe) {
    const size_t b = rng.Uniform(buckets);
    for (auto it = map_.begin(b); it != map_.end(b) && out.size() < want;
         ++it) {
      out.push_back(Sampled{&it->first, &it->second});
    }
  }
  return out;
}

const std::set<std::string>& Keyspace::KeysInSlot(uint16_t slot) const {
  return slot_keys_[slot];
}

void Keyspace::ForEach(
    const std::function<void(const std::string&, const Entry&)>& fn) const {
  for (const auto& [k, e] : map_) fn(k, e);
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
