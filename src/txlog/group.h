// LogGroup: provisions one shard's transaction log — three RaftReplica
// actors, one per AZ. Each replica keeps its own durable state across
// crash/restart cycles.

#ifndef MEMDB_TXLOG_GROUP_H_
#define MEMDB_TXLOG_GROUP_H_

#include <memory>
#include <vector>

#include "sim/simulation.h"
#include "txlog/raft.h"

namespace memdb::txlog {

class LogGroup {
 public:
  LogGroup(sim::Simulation* sim, RaftOptions options = RaftOptions());

  const std::vector<sim::NodeId>& replica_ids() const { return ids_; }
  RaftReplica* replica(size_t i) { return replicas_[i].get(); }
  size_t size() const { return replicas_.size(); }

  // The current leader replica, or nullptr mid-election.
  RaftReplica* Leader();
  // Highest commit index across live replicas (test convenience).
  uint64_t CommitIndex();

  // Crash/restart helpers (persisted state survives).
  void Crash(size_t i);
  void Restart(size_t i);

 private:
  sim::Simulation* sim_;
  std::vector<sim::NodeId> ids_;
  std::vector<std::unique_ptr<RaftReplica>> replicas_;
};

}  // namespace memdb::txlog

#endif  // MEMDB_TXLOG_GROUP_H_
