// OffboxSnapshotter: the simulator's driver of the off-box cycle (§4.2.2,
// replication::OffboxCycle, the one memorydb-snapshotd runs), an ephemeral
// shadow replica on its own host. It does each cycle's I/O in order and
// charges the dump's serialization to its own CPU; customer nodes are never
// involved, so customer traffic sees no fork/COW cost (Figure 7). A timer
// starts a cycle when the log tail is max_log_distance past the latest
// snapshot, keeping restores snapshot-dominant (§4.2.3).

#ifndef MEMDB_MEMORYDB_OFFBOX_H_
#define MEMDB_MEMORYDB_OFFBOX_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "replication/offbox_cycle.h"
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
    // Start a cycle when tail - latest snapshot position reaches this.
    uint64_t max_log_distance = 512;
  };

  using DoneCallback = std::function<void(const Status&, uint64_t position)>;

  OffboxSnapshotter(sim::Simulation* sim, sim::NodeId id, Config config);

  // Runs one snapshot cycle now. Calls `done` with the cycle's outcome and
  // the log position it reached. Only one cycle at a time.
  void Snapshot(DoneCallback done);

  uint64_t snapshots_created() const { return snapshots_created_; }
  uint64_t last_snapshot_position() const { return last_snapshot_position_; }
  // A cycle failed a §7.2.1 check (Corruption).
  bool verification_failed() const { return verification_failures_ > 0; }
  // Models a large dataset without materializing it: added to the blob size
  // when charging serialization time (benchmark realism knob).
  void SetSyntheticDatasetBytes(uint64_t bytes) {
    synthetic_dataset_bytes_ = bytes;
  }

 private:
  void CheckFreshness();
  void Read();
  void Upload();
  void Finish();

  Config config_;
  txlog::LogClient log_;
  storage::StorageClient s3_;
  sim::QueueServer cpu_;
  uint64_t synthetic_dataset_bytes_ = 0;

  std::unique_ptr<replication::OffboxCycle> cycle_;  // null between cycles
  DoneCallback done_;
  uint64_t verification_failures_ = 0;
  uint64_t snapshots_created_ = 0;
  uint64_t last_snapshot_position_ = 0;
};

}  // namespace memdb::memorydb

#endif  // MEMDB_MEMORYDB_OFFBOX_H_
