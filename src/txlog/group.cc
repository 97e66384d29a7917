#include "txlog/group.h"

namespace memdb::txlog {

LogGroup::LogGroup(sim::Simulation* sim, RaftOptions options) : sim_(sim) {
  for (sim::AzId az = 0; az < sim::kNumAzs; ++az) {
    ids_.push_back(sim->AddHost(az));
  }
  for (size_t i = 0; i < ids_.size(); ++i) {
    std::vector<sim::NodeId> peers;
    for (size_t j = 0; j < ids_.size(); ++j) {
      if (j != i) peers.push_back(ids_[j]);
    }
    replicas_.push_back(std::make_unique<RaftReplica>(
        sim, ids_[i], std::move(peers), options));
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
