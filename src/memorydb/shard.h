// Shard: provisions one MemoryDB shard — the per-shard transaction log
// (3 replicas across AZs), the database nodes (primary + replicas placed in
// distinct AZs, §5.1), and optionally the off-box snapshotter.

#ifndef MEMDB_MEMORYDB_SHARD_H_
#define MEMDB_MEMORYDB_SHARD_H_

#include <memory>
#include <string>
#include <vector>

#include "memorydb/node.h"
#include "memorydb/offbox.h"
#include "txlog/group.h"

namespace memdb::memorydb {

class Shard {
 public:
  struct Options {
    std::string shard_id = "shard-0";
    int num_replicas = 2;  // besides the primary
    sim::NodeId object_store = sim::kInvalidNode;
    NodeConfig node_template;       // shard/log/bootstrap fields overwritten
    txlog::RaftOptions raft_options;
    bool with_offbox = false;
    // The off-box snapshotter cuts a snapshot when the log tail is this
    // many entries past the latest one.
    uint64_t snapshot_max_log_distance = 512;
  };

  Shard(sim::Simulation* sim, Options options);

  const std::string& id() const { return options_.shard_id; }
  txlog::LogGroup& log() { return *log_; }
  size_t num_nodes() const { return nodes_.size(); }
  Node* node(size_t i) { return nodes_[i].get(); }
  const std::vector<sim::NodeId>& node_ids() const { return node_ids_; }

  // The node currently acting as primary, or nullptr mid-failover.
  Node* Primary();
  // Any live replica, or nullptr.
  Node* AnyReplica();

  // Adds a replica node (replica scaling, §5.2); it restores from the
  // latest snapshot and replays the log before joining.
  Node* AddReplica();

  void CrashNode(size_t i);
  void RestartNode(size_t i);

  OffboxSnapshotter* offbox() { return offbox_.get(); }

 private:
  NodeConfig MakeNodeConfig(bool bootstrap) const;

  sim::Simulation* sim_;
  Options options_;
  std::unique_ptr<txlog::LogGroup> log_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<sim::NodeId> node_ids_;
  std::unique_ptr<OffboxSnapshotter> offbox_;
};

}  // namespace memdb::memorydb

#endif  // MEMDB_MEMORYDB_SHARD_H_
