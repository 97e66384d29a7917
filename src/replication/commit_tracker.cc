#include "replication/commit_tracker.h"

#include <algorithm>

namespace memdb::replication {

void CommitTracker::Write(uint64_t seq, KeySpan keys, bool keyspace) {
  newest_ = std::max(newest_, seq);
  if (keyspace) keyspace_seq_ = seq;
  for (size_t i = 0; i < keys.count; ++i) {
    const auto [it, inserted] = hazards_.try_emplace(keys[i], seq);
    if (!inserted && it->second == seq) continue;  // key named twice
    it->second = seq;
    expiry_.emplace_back(seq, &*it);
  }
}

void CommitTracker::Write(uint64_t seq, KeySpan keys, bool keyspace,
                          uint64_t owner, std::string reply) {
  Write(seq, keys, keyspace);
  Park(owners_.try_emplace(owner).first, seq, true, std::move(reply));
}

CommitTracker::Offer CommitTracker::Reply(uint64_t owner, KeySpan keys,
                                          std::string* body) {
  Offer offer{false, Hazard(keys)};
  auto it = owners_.empty() ? owners_.end() : owners_.find(owner);
  if (offer.hazard == 0 && it == owners_.end()) return offer;
  if (it == owners_.end()) it = owners_.try_emplace(owner).first;
  offer.parked = true;
  Park(it, offer.hazard, false, std::move(*body));
  return offer;
}

uint64_t CommitTracker::Hazard(KeySpan keys) const {
  if (keys.count == 0) return 0;
  uint64_t hazard = keyspace_seq_ > floor_ ? keyspace_seq_ : 0;
  for (size_t i = 0; i < keys.count && !hazards_.empty(); ++i) {
    const auto it = hazards_.find(keys[i]);
    if (it != hazards_.end()) hazard = std::max(hazard, it->second);
  }
  return hazard;
}

void CommitTracker::Park(OwnerMap::iterator owner, uint64_t seq, bool write,
                         std::string body) {
  std::deque<Queue::iterator>& mine = owner->second;
  if (!mine.empty()) seq = std::max(seq, mine.back()->first);
  // Most replies park at the newest seq: the end hint makes that O(1).
  mine.push_back(queue_.emplace_hint(
      queue_.end(), seq, Parked{owner->first, write, std::move(body)}));
  parked_writes_ += write ? 1 : 0;
}

void CommitTracker::Unpark(Queue::iterator it) {
  parked_writes_ -= it->second.write ? 1 : 0;
  queue_.erase(it);
}

void CommitTracker::Drop(OwnerMap::iterator owner) {
  for (const Queue::iterator it : owner->second) Unpark(it);
  owners_.erase(owner);
}

void CommitTracker::Complete(uint64_t seq, bool ok,
                             std::vector<Release>* out) {
  if (seq <= floor_) return;
  floor_ = seq;
  while (!expiry_.empty() && expiry_.front().first <= seq) {
    const auto [written, entry] = expiry_.front();
    expiry_.pop_front();
    if (entry->second == written) hazards_.erase(hazards_.find(entry->first));
  }
  while (!queue_.empty() && queue_.begin()->first <= seq) {
    const Queue::iterator it = queue_.begin();
    const auto owner = owners_.find(it->second.owner);
    out->push_back(Release{it->second.owner, it->first, it->second.write, ok,
                           std::move(it->second.body)});
    owner->second.pop_front();  // `it` was the owner's oldest
    Unpark(it);
    if (!ok || owner->second.empty()) Drop(owner);
  }
}

void CommitTracker::FailAll(std::vector<Release>* out) {
  for (auto& [seq, parked] : queue_) {
    const auto owner = owners_.find(parked.owner);
    if (owner == owners_.end()) continue;  // its first reply already failed
    out->push_back(Release{parked.owner, seq, parked.write, /*ok=*/false,
                           std::move(parked.body)});
    owners_.erase(owner);
  }
  queue_.clear();
  owners_.clear();
  parked_writes_ = 0;
  hazards_.clear();
  expiry_.clear();
  keyspace_seq_ = 0;
  floor_ = std::max(floor_, newest_);
}

void CommitTracker::Forget(uint64_t owner) {
  const auto it = owners_.find(owner);
  if (it != owners_.end()) Drop(it);
}

}  // namespace memdb::replication
