#include "memorydb/shard.h"

namespace memdb::memorydb {

Shard::Shard(sim::Simulation* sim, Options options)
    : sim_(sim), options_(std::move(options)) {
  log_ = std::make_unique<txlog::LogGroup>(sim_, options_.raft_options);

  // Primary candidate in AZ 0, replicas spread across the remaining AZs.
  for (int i = 0; i <= options_.num_replicas; ++i) {
    const sim::AzId az = static_cast<sim::AzId>(i % sim::kNumAzs);
    const sim::NodeId id = sim_->AddHost(az);
    node_ids_.push_back(id);
    nodes_.push_back(
        std::make_unique<Node>(sim_, id, MakeNodeConfig(/*bootstrap=*/i == 0)));
  }

  if (options_.with_offbox &&
      options_.object_store != sim::kInvalidNode) {
    OffboxSnapshotter::Config oc;
    oc.shard_id = options_.shard_id;
    oc.log_replicas = log_->replica_ids();
    oc.object_store = options_.object_store;
    oc.max_log_distance = options_.snapshot_max_log_distance;
    offbox_ = std::make_unique<OffboxSnapshotter>(
        sim_, sim_->AddHost(0), std::move(oc));
  }
}

NodeConfig Shard::MakeNodeConfig(bool bootstrap) const {
  NodeConfig nc = options_.node_template;
  nc.shard_id = options_.shard_id;
  nc.log_replicas = log_->replica_ids();
  nc.object_store = options_.object_store;
  nc.bootstrap_as_primary = bootstrap;
  return nc;
}

Node* Shard::Primary() {
  for (auto& n : nodes_) {
    if (sim_->IsAlive(n->id()) && n->IsPrimary()) return n.get();
  }
  return nullptr;
}

Node* Shard::AnyReplica() {
  for (auto& n : nodes_) {
    if (sim_->IsAlive(n->id()) && n->db_role() == Node::DbRole::kReplica) {
      return n.get();
    }
  }
  return nullptr;
}

Node* Shard::AddReplica() {
  const sim::AzId az =
      static_cast<sim::AzId>(node_ids_.size() % sim::kNumAzs);
  const sim::NodeId id = sim_->AddHost(az);
  node_ids_.push_back(id);
  nodes_.push_back(
      std::make_unique<Node>(sim_, id, MakeNodeConfig(/*bootstrap=*/false)));
  return nodes_.back().get();
}

void Shard::CrashNode(size_t i) { sim_->Crash(node_ids_[i]); }
void Shard::RestartNode(size_t i) { sim_->Restart(node_ids_[i]); }

}  // namespace memdb::memorydb
