// Peer-less recovery (§4.2.1): a starting node rebuilds its state from the
// snapshot store plus the transaction log, never from another database
// node, through the off-box cycle's load and replay steps (offbox_cycle.h;
// defined in offbox_runner.cc). Both block on RemoteClient *Sync calls:
// run them during startup, before traffic is accepted.

#ifndef MEMDB_REPLICATION_RECOVERY_H_
#define MEMDB_REPLICATION_RECOVERY_H_

#include <cstdint>

#include "common/status.h"
#include "engine/engine.h"
#include "replication/effect_batch.h"
#include "replication/offbox_cycle.h"
#include "replication/snapshot_store.h"
#include "txlog/remote_client.h"

namespace memdb::replication {

// Loads the newest snapshot for the store's shard into `engine`, replacing
// its keyspace. A store with no snapshot yet is a cold start: OK with
// *result zeroed, not an error.
Status RestoreFromStore(SnapshotStore* store, engine::Engine* engine,
                        RestoreResult* result);

// Replays committed entries (result->applied_index, target_tail] into the
// engine through ReplayEntry's §7.2.1 check; a target of 0 is a leader
// Tail's commit index. Corruption if the log was trimmed past the restore
// position (fetch a newer snapshot) or ReplayEntry rejects an entry.
Status ReplayLogTail(txlog::RemoteClient* client, engine::Engine* engine,
                     RestoreResult* result, uint64_t target_tail);

}  // namespace memdb::replication

#endif  // MEMDB_REPLICATION_RECOVERY_H_
