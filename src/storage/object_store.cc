#include "storage/object_store.h"

#include "common/coding.h"

namespace memdb::storage {

using sim::Message;

ObjectStore::ObjectStore(sim::Simulation* sim, sim::NodeId id)
    : ObjectStore(sim, id, Options{}) {}

ObjectStore::ObjectStore(sim::Simulation* sim, sim::NodeId id, Options options)
    : Actor(sim, id), options_(options) {
  On("s3.put", [this](const Message& m) { HandlePut(m); });
  On("s3.get", [this](const Message& m) { HandleGet(m); });
  On("s3.list", [this](const Message& m) { HandleList(m); });
}

void ObjectStore::HandlePut(const Message& m) {
  Decoder dec(m.payload);
  std::string key, data;
  if (!dec.GetLengthPrefixed(&key) || !dec.GetLengthPrefixed(&data)) {
    ReplyError(m, Status::InvalidArgument("bad put request"));
    return;
  }
  After(options_.request_latency, [this, m, key = std::move(key),
                                   data = std::move(data)]() mutable {
    objects_[key] = std::move(data);
    Reply(m, "");
  });
}

void ObjectStore::HandleGet(const Message& m) {
  After(options_.request_latency, [this, m] {
    auto it = objects_.find(m.payload);
    if (it == objects_.end()) {
      ReplyError(m, Status::NotFound("no such object: " + m.payload));
      return;
    }
    Reply(m, it->second);
  });
}

void ObjectStore::HandleList(const Message& m) {
  After(options_.request_latency, [this, m] {
    std::string out;
    const std::string& prefix = m.payload;
    for (auto it = objects_.lower_bound(prefix);
         it != objects_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
      PutLengthPrefixed(&out, it->first);
    }
    Reply(m, std::move(out));
  });
}

StorageClient::StorageClient(sim::Actor* owner, sim::NodeId store)
    : owner_(owner), store_(store) {}

void StorageClient::Put(const std::string& key, std::string data,
                        PutCallback cb) {
  std::string payload;
  PutLengthPrefixed(&payload, key);
  PutLengthPrefixed(&payload, data);
  // Bulk transfers can take a while at modeled bandwidth; give them room.
  owner_->Rpc(store_, "s3.put", std::move(payload), 120 * sim::kSec,
              [cb = std::move(cb)](const Status& s, const std::string&) {
                cb(s);
              });
}

void StorageClient::Get(const std::string& key, GetCallback cb) {
  owner_->Rpc(store_, "s3.get", key, 120 * sim::kSec,
              [cb = std::move(cb)](const Status& s, const std::string& body) {
                cb(s, body);
              });
}

void StorageClient::List(const std::string& prefix, ListCallback cb) {
  // List responses are small; fail fast so recovery can fall back.
  owner_->Rpc(store_, "s3.list", prefix, 2 * sim::kSec,
              [cb = std::move(cb)](const Status& s, const std::string& body) {
                std::vector<std::string> keys;
                if (s.ok()) {
                  Decoder dec(body);
                  std::string key;
                  while (dec.GetLengthPrefixed(&key)) keys.push_back(key);
                }
                cb(s, keys);
              });
}

void StorageClient::GetLatest(const std::string& prefix, GetCallback cb) {
  List(prefix, [client = *this, prefix, cb = std::move(cb)](
                   const Status& s,
                   const std::vector<std::string>& keys) mutable {
    if (!s.ok()) {
      cb(s, "");
    } else if (keys.empty()) {
      cb(Status::NotFound("no object under " + prefix), "");
    } else {
      client.Get(keys.back(), std::move(cb));
    }
  });
}

}  // namespace memdb::storage
