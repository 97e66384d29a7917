#include "txlog/group.h"

namespace memdb::txlog {

LogGroup::LogGroup(sim::Simulation* sim, RaftOptions options) : sim_(sim) {
  for (sim::AzId az = 0; az < sim::kNumAzs; ++az) {
    ids_.push_back(sim->AddHost(az));
  }
  for (sim::NodeId id : ids_) {
    replicas_.push_back(std::make_unique<RaftReplica>(sim, id, ids_, options));
  }
}

RaftReplica* LogGroup::Leader() {
  for (auto& r : replicas_) {
    if (sim_->IsAlive(r->id()) && r->IsLeader()) return r.get();
  }
  return nullptr;
}

uint64_t LogGroup::CommitIndex() {
  uint64_t max_commit = 0;
  for (auto& r : replicas_) {
    if (sim_->IsAlive(r->id())) {
      max_commit = std::max(max_commit, r->commit_index());
    }
  }
  return max_commit;
}

void LogGroup::Crash(size_t i) { sim_->Crash(ids_[i]); }
void LogGroup::Restart(size_t i) { sim_->Restart(ids_[i]); }

}  // namespace memdb::txlog
