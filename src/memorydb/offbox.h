// Off-box snapshotting (§4.2.2) on a freshness schedule (§4.2.3): the
// simulator's counterpart of memorydb-snapshotd.
//
// OffboxSnapshotter is an ephemeral shadow replica on its own host. A cycle
// restores the shard's latest snapshot from the object store, replays the
// transaction log up to the tail recorded at start through the shared
// §7.2.1 replay step (the prior snapshot's checksum must line up with the
// log's injected checksum records), dumps a fresh snapshot and rehearses
// restoring it, uploads it, and only then hints the log to trim behind it.
// Customer nodes are never involved, so customer traffic sees no fork/COW
// cost (Figure 7).
//
// A timer watches snapshot freshness — the distance between the latest
// snapshot's log position and the log tail — and starts a cycle when it
// reaches max_log_distance, keeping restores snapshot-dominant.

#ifndef MEMDB_MEMORYDB_OFFBOX_H_
#define MEMDB_MEMORYDB_OFFBOX_H_

#include <functional>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "sim/actor.h"
#include "sim/queue_server.h"
#include "storage/object_store.h"
#include "txlog/log_client.h"

namespace memdb::memorydb {

class OffboxSnapshotter : public sim::Actor {
 public:
  struct Config {
    std::string shard_id = "shard-0";
    std::vector<sim::NodeId> log_replicas;
    sim::NodeId object_store = sim::kInvalidNode;
    std::string engine_version = "7.0.7";
    // Start a cycle when tail - latest snapshot position reaches this.
    uint64_t max_log_distance = 512;
  };

  using DoneCallback = std::function<void(const Status&, uint64_t position)>;

  OffboxSnapshotter(sim::Simulation* sim, sim::NodeId id, Config config);

  // Runs one snapshot cycle now. Calls `done` with the snapshot's log
  // position on success. Only one cycle at a time.
  void Snapshot(DoneCallback done);

  bool busy() const { return busy_; }
  uint64_t snapshots_created() const { return snapshots_created_; }
  uint64_t last_snapshot_position() const { return last_snapshot_position_; }
  bool verification_failed() const { return verification_failed_; }
  // Models a large dataset without materializing it: added to the blob size
  // when charging serialization time (benchmark realism knob).
  void SetSyntheticDatasetBytes(uint64_t bytes) {
    synthetic_dataset_bytes_ = bytes;
  }

 private:
  void CheckFreshness();
  void RestoreLatestSnapshot();
  void Replay();
  void DumpAndUpload();
  void Finish(const Status& s, uint64_t position);

  Config config_;
  engine::Engine engine_;
  txlog::LogClient log_;
  storage::StorageClient s3_;
  sim::QueueServer cpu_;
  uint64_t synthetic_dataset_bytes_ = 0;

  bool busy_ = false;
  DoneCallback done_;
  uint64_t target_tail_ = 0;
  uint64_t applied_index_ = 0;
  uint64_t running_checksum_ = 0;
  bool verification_failed_ = false;
  uint64_t snapshots_created_ = 0;
  uint64_t last_snapshot_position_ = 0;
};

}  // namespace memdb::memorydb

#endif  // MEMDB_MEMORYDB_OFFBOX_H_
