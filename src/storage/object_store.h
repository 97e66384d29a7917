// ObjectStore: the S3 stand-in — a durable blob store actor. It never
// crashes (S3's durability is out of scope; the paper treats it as a given)
// but every operation pays a realistic request latency, and large blobs pay
// bandwidth through the network model. Snapshots live here (§4.2.1):
// recovering replicas fetch the latest snapshot and replay the transaction
// log, with no peer interaction.

#ifndef MEMDB_STORAGE_OBJECT_STORE_H_
#define MEMDB_STORAGE_OBJECT_STORE_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/actor.h"

namespace memdb::storage {

class ObjectStore : public sim::Actor {
 public:
  struct Options {
    // Server-side processing latency per request.
    sim::Duration request_latency = 8 * sim::kMs;
  };

  ObjectStore(sim::Simulation* sim, sim::NodeId id);
  ObjectStore(sim::Simulation* sim, sim::NodeId id, Options options);

  size_t object_count() const { return objects_.size(); }

  // Direct (test) accessors; production paths go through StorageClient.
  bool Contains(const std::string& key) const { return objects_.count(key); }

 private:
  void HandlePut(const sim::Message& m);
  void HandleGet(const sim::Message& m);
  void HandleList(const sim::Message& m);

  Options options_;
  std::map<std::string, std::string> objects_;
};

// Client-side helper bound to an owning actor.
class StorageClient {
 public:
  using PutCallback = std::function<void(const Status&)>;
  using GetCallback = std::function<void(const Status&, const std::string&)>;
  using ListCallback =
      std::function<void(const Status&, const std::vector<std::string>&)>;

  StorageClient() = default;
  StorageClient(sim::Actor* owner, sim::NodeId store);

  bool valid() const { return owner_ != nullptr; }

  void Put(const std::string& key, std::string data, PutCallback cb);
  void Get(const std::string& key, GetCallback cb);
  // Keys with the given prefix, lexicographically sorted.
  void List(const std::string& prefix, ListCallback cb);
  // The object under the lexicographically last key with the given prefix
  // (zero-padded snapshot keys make that the newest snapshot): a List, then
  // a Get. NotFound when no key has the prefix.
  void GetLatest(const std::string& prefix, GetCallback cb);

 private:
  sim::Actor* owner_ = nullptr;
  sim::NodeId store_ = sim::kInvalidNode;
};

}  // namespace memdb::storage

#endif  // MEMDB_STORAGE_OBJECT_STORE_H_
