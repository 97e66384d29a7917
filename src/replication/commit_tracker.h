// CommitTracker: the §3.2 client blocking tracker as a sans-IO state
// machine (no clock, socket, engine or simulator), driven by both
// memorydb-server's RespServer (an owner is a connection) and the
// simulator's memorydb::Node (every request is its own owner).
//
// A write is acknowledged only once the transaction log committed it, and
// a read of a key whose latest write is not committed yet waits for it, so
// no client observes a value that could still be lost. Inputs: every logged
// write (its seq, the keys it touched or the whole keyspace, the writer's
// reply if any), every other reply (owner, keys read), and completions
// ("every seq up to S resolved with status X" — seqs the tracker never saw
// advance the floor too). Output: the replies to deliver, in order.
//
// A reply parks at max(its hazard, its owner's last parked seq), so an
// owner's parked seqs never decrease and one seq-ordered queue releases
// every owner in submission order. Work is per released reply and per
// written key, never a rescan of parked owners or live hazards. A released
// reply carries its seq's status; after an owner's first failed reply the
// rest of its queue is dropped. Write seqs must increase, and a reply with
// no keys (keyless read, admin reply) only waits on its owner's order.

#ifndef MEMDB_REPLICATION_COMMIT_TRACKER_H_
#define MEMDB_REPLICATION_COMMIT_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace memdb::replication {

// Keys without copying them: `count` strings from `first`, `stride` apart —
// a vector, or a Redis argv's key positions (MSET names every second arg).
struct KeySpan {
  const std::string* first = nullptr;
  size_t count = 0;
  size_t stride = 1;

  KeySpan() = default;
  KeySpan(const std::string* first_key, size_t n, size_t step)
      : first(first_key), count(n), stride(step) {}
  KeySpan(const std::vector<std::string>& keys)  // implicit: any key list
      : first(keys.data()), count(keys.size()) {}
  const std::string& operator[](size_t i) const { return first[i * stride]; }
};

class CommitTracker {
 public:
  struct Release {
    uint64_t owner = 0;
    uint64_t seq = 0;    // the seq it waited on
    bool write = false;  // the writer's own reply, not a read or plain reply
    bool ok = true;      // false: the append of `seq` failed
    std::string body;
  };
  struct Offer {
    bool parked = false;  // false: the driver delivers the body now
    uint64_t hazard = 0;  // the unresolved write its keys wait on, or 0
  };

  // A logged write: hazards `keys` (every key when `keyspace`) until `seq`
  // completes. The second form also parks the writer's reply behind `seq`.
  void Write(uint64_t seq, KeySpan keys, bool keyspace);
  void Write(uint64_t seq, KeySpan keys, bool keyspace, uint64_t owner,
             std::string reply);
  // Any other reply; when parked, the tracker takes *body.
  Offer Reply(uint64_t owner, KeySpan keys, std::string* body);
  // Every seq up to `seq` resolved; appends what it releases to *out.
  void Complete(uint64_t seq, bool ok, std::vector<Release>* out);
  // Demotion: fails each owner's first parked reply into *out, drops the
  // rest, and resolves every seq seen.
  void FailAll(std::vector<Release>* out);
  // The owner is gone (connection closed): drop its parked replies.
  void Forget(uint64_t owner);

  // Seq of the latest unresolved write `keys` depend on, or 0.
  uint64_t Hazard(KeySpan keys) const;
  uint64_t floor() const { return floor_; }
  bool has_parked(uint64_t owner) const { return owners_.count(owner) > 0; }
  size_t parked() const { return queue_.size(); }
  size_t parked_writes() const { return parked_writes_; }
  size_t owners() const { return owners_.size(); }    // with replies parked
  size_t hazards() const { return hazards_.size(); }  // keys above the floor

 private:
  struct Parked {
    uint64_t owner = 0;
    bool write = false;
    std::string body;
  };
  // By the seq waited on; equal seqs keep arrival order.
  using Queue = std::multimap<uint64_t, Parked>;
  // Each owner's parked replies, oldest first.
  using OwnerMap = std::unordered_map<uint64_t, std::deque<Queue::iterator>>;
  using HazardMap = std::unordered_map<std::string, uint64_t>;

  void Park(OwnerMap::iterator owner, uint64_t seq, bool write,
            std::string body);
  void Drop(OwnerMap::iterator owner);  // its parked replies, then itself
  void Unpark(Queue::iterator it);

  Queue queue_;
  OwnerMap owners_;
  size_t parked_writes_ = 0;
  HazardMap hazards_;  // key -> seq of its latest unresolved write
  // (seq, hazard entry) in seq order, so hazards expire without a scan; an
  // entry whose key was written again since is skipped.
  std::deque<std::pair<uint64_t, HazardMap::value_type*>> expiry_;
  uint64_t keyspace_seq_ = 0;  // latest keyspace-wide write
  uint64_t newest_ = 0;        // highest write seq seen
  uint64_t floor_ = 0;
};

}  // namespace memdb::replication

#endif  // MEMDB_REPLICATION_COMMIT_TRACKER_H_
