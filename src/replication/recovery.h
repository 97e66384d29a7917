// Peer-less recovery (§4.2.1): a starting node — primary, replica, or
// off-box snapshotter — rebuilds its state from the snapshot store plus the
// transaction log, never from another database node:
//
//   1. RestoreFromStore: load the newest snapshot (if any) into the engine;
//      it records the log position it reflects and the running checksum at
//      that position.
//   2. ReplayLogTail: read committed entries past that position from the
//      txlog group and run each through ReplayEntry (effect_batch.h), the
//      §7.2.1 chain check — corrupted history fails recovery instead of
//      serving.
//
// Both calls block the calling thread (they drive RemoteClient *Sync
// wrappers); run them during startup, before traffic is accepted.

#ifndef MEMDB_REPLICATION_RECOVERY_H_
#define MEMDB_REPLICATION_RECOVERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "engine/engine.h"
#include "replication/effect_batch.h"
#include "replication/snapshot_store.h"
#include "txlog/remote_client.h"

namespace memdb::replication {

struct RestoreResult {
  // Log position of the loaded snapshot; 0 = cold start, no snapshot found.
  uint64_t snapshot_position = 0;
  // Last log entry whose effects are in the engine, and the running
  // checksum of the kData chain up to it — the seed for the primary's
  // continued checksum injection or a replica's follow-along verification.
  uint64_t applied_index = 0;
  uint64_t running_checksum = 0;
  uint64_t entries_replayed = 0;
  // kData entries among entries_replayed — noop barriers and checksum
  // records advance the log position without changing the keyspace, so
  // consumers that only care about "did state change" check this instead.
  uint64_t data_records_replayed = 0;
  uint64_t checksum_records_verified = 0;
};

// Loads the newest snapshot for the store's shard into `engine`, replacing
// its keyspace. A store with no snapshot yet is a cold start: OK with
// *result zeroed, not an error.
Status RestoreFromStore(SnapshotStore* store, engine::Engine* engine,
                        RestoreResult* result);

// Replays committed entries (result->applied_index, target_tail] into the
// engine. target_tail == 0 means "the commit index observed on the first
// read" — a recovery snapshot of the log, not a moving target. Corruption
// if the log was trimmed past the restore position (the snapshot is too
// old; fetch a newer one) or ReplayEntry rejects an entry.
Status ReplayLogTail(txlog::RemoteClient* client, engine::Engine* engine,
                     RestoreResult* result, uint64_t target_tail);

}  // namespace memdb::replication

#endif  // MEMDB_REPLICATION_RECOVERY_H_
