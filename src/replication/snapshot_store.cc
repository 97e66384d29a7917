#include "replication/snapshot_store.h"

#include "common/coding.h"
#include "replication/offbox_cycle.h"

namespace memdb::replication {

std::string SnapshotManifest::Encode() const {
  std::string out;
  PutLengthPrefixed(&out, object_key);
  PutVarint64(&out, log_position);
  PutFixed64(&out, log_running_checksum);
  PutLengthPrefixed(&out, engine_version);
  PutVarint64(&out, created_at_ms);
  return out;
}

bool SnapshotManifest::Decode(Slice data, SnapshotManifest* out) {
  Decoder dec(data);
  return dec.GetLengthPrefixed(&out->object_key) &&
         dec.GetVarint64(&out->log_position) &&
         dec.GetFixed64(&out->log_running_checksum) &&
         dec.GetLengthPrefixed(&out->engine_version) &&
         dec.GetVarint64(&out->created_at_ms);
}

SnapshotStore::SnapshotStore(storage::FsObjectStore* store,
                             std::string shard_id)
    : store_(store), shard_id_(std::move(shard_id)) {}

Status SnapshotStore::PutSnapshot(const std::string& blob,
                                  const engine::SnapshotMeta& meta) {
  SnapshotManifest manifest;
  manifest.object_key = SnapshotKey(shard_id_, meta.log_position);
  manifest.log_position = meta.log_position;
  manifest.log_running_checksum = meta.log_running_checksum;
  manifest.engine_version = meta.engine_version;
  manifest.created_at_ms = meta.created_at_ms;
  // Blob first, manifest second: readers either see the new manifest (blob
  // already durable) or the old one (new blob invisible but harmless).
  MEMDB_RETURN_IF_ERROR(store_->Put(manifest.object_key, Slice(blob)));
  return store_->Put(ManifestKey(), Slice(manifest.Encode()));
}

Status SnapshotStore::GetLatest(std::string* blob, SnapshotManifest* manifest) {
  std::string raw;
  Status s = store_->Get(ManifestKey(), &raw);
  if (s.ok() && SnapshotManifest::Decode(Slice(raw), manifest) &&
      store_->Get(manifest->object_key, blob).ok()) {
    return Status::OK();
  }
  // No (or stale/corrupt) manifest: fall back to the newest blob under the
  // snap/ prefix and reconstruct the manifest from its embedded meta.
  std::vector<std::string> keys;
  MEMDB_RETURN_IF_ERROR(store_->List(SnapshotPrefix(shard_id_), &keys));
  while (!keys.empty()) {
    const std::string key = keys.back();
    keys.pop_back();
    if (!store_->Get(key, blob).ok()) continue;
    engine::SnapshotMeta meta;
    if (!engine::ReadSnapshotMeta(Slice(*blob), &meta).ok()) continue;
    manifest->object_key = key;
    manifest->log_position = meta.log_position;
    manifest->log_running_checksum = meta.log_running_checksum;
    manifest->engine_version = meta.engine_version;
    manifest->created_at_ms = meta.created_at_ms;
    return Status::OK();
  }
  return Status::NotFound("no snapshot for shard " + shard_id_);
}

}  // namespace memdb::replication
