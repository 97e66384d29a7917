// SnapshotStore: snapshot naming and manifest conventions over an
// FsObjectStore — the piece of §4.2 that says *where* snapshots live and
// how a recovering node finds the latest one without peer interaction.
//
// Layout per shard:
//   snap/<shard>/<%020u position>   snapshot blobs, zero-padded so the
//                                   lexicographically last key is the
//                                   newest snapshot
//   manifest/<shard>                small pointer blob naming the current
//                                   snapshot (written after the blob, so a
//                                   crash between the two leaves the old
//                                   manifest pointing at the old snapshot)
//
// GetLatest prefers the manifest and falls back to listing the snap/
// prefix (covers a store whose manifest write was lost), so recovery works
// from either.

#ifndef MEMDB_REPLICATION_SNAPSHOT_STORE_H_
#define MEMDB_REPLICATION_SNAPSHOT_STORE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "engine/snapshot.h"
#include "storage/fs_object_store.h"

namespace memdb::replication {

struct SnapshotManifest {
  std::string object_key;          // snap/<shard>/<position>
  uint64_t log_position = 0;       // last log entry the snapshot contains
  uint64_t log_running_checksum = 0;
  std::string engine_version;
  uint64_t created_at_ms = 0;

  std::string Encode() const;
  static bool Decode(Slice data, SnapshotManifest* out);
};

class SnapshotStore {
 public:
  SnapshotStore(storage::FsObjectStore* store, std::string shard_id);

  // Uploads `blob` (a SerializeSnapshot product) under its position key,
  // then atomically repoints the manifest at it.
  Status PutSnapshot(const std::string& blob, const engine::SnapshotMeta& meta);

  // Fetches the newest snapshot blob + manifest. NotFound when the store
  // holds no snapshot for this shard (fresh cluster — replay from index 1).
  Status GetLatest(std::string* blob, SnapshotManifest* manifest);

  const std::string& shard_id() const { return shard_id_; }

 private:
  std::string ManifestKey() const { return "manifest/" + shard_id_; }

  storage::FsObjectStore* const store_;
  std::string shard_id_;
};

}  // namespace memdb::replication

#endif  // MEMDB_REPLICATION_SNAPSHOT_STORE_H_
