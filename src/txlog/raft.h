// RaftReplica: one member of a 3-node (one per AZ) replication group backing
// a single shard's transaction log, as a simulation actor. It drives the
// same RaftCore (txlog/raft_core.h) that memorydb-txlogd runs, so the
// simulator's partitions and crashes exercise the production Raft. The
// actor adds only the simulation's plumbing: message dispatch, a periodic
// tick, a modeled disk queue whose completions are the core's persist-done
// notices, and the state that survives a crash.
//
// Appends are acknowledged only after a majority of AZs has the entry
// durably on "disk" (a modeled fsync latency), matching §3.1.
//
// Clients reach it with txlogd's methods and bodies (txlog/rpc_wire.h), and
// it names the leader in txlogd's terms: hint h is the group's member h - 1,
// 0 none. A ReadStream answers at once: no simulated caller long-polls.

#ifndef MEMDB_TXLOG_RAFT_H_
#define MEMDB_TXLOG_RAFT_H_

#include <map>
#include <memory>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "sim/actor.h"
#include "sim/queue_server.h"
#include "txlog/raft_core.h"

namespace memdb::txlog {

struct RaftOptions {
  sim::Duration heartbeat_interval = 30 * sim::kMs;
  sim::Duration election_timeout_min = 150 * sim::kMs;
  sim::Duration election_timeout_max = 300 * sim::kMs;
  sim::Duration rpc_timeout = 60 * sim::kMs;
  // Modeled fsync cost per entry written to local storage.
  sim::Duration disk_write_us = 120;
};

class RaftReplica : public sim::Actor {
 public:
  // `members`: the whole group in order, this replica included.
  RaftReplica(sim::Simulation* sim, sim::NodeId id,
              std::vector<sim::NodeId> members, RaftOptions options);

  // Restarts the core from what was on disk at the crash: term, vote, base
  // and the persisted log prefix.
  void OnRestart() override;

  bool IsLeader() const { return core_->IsLeader(); }
  uint64_t commit_index() const { return core_->commit_index(); }

  // Test/inspection helper: committed entries in [from, from+count).
  std::vector<LogEntry> CommittedEntries(uint64_t from, size_t count) const {
    return core_->CommittedEntries(from, count);
  }

  // Observability: the core's Raft instruments (elections, per-peer
  // replication lag, append->quorum-commit latency) and the write-path span
  // log for records carrying a trace id. Both survive restarts.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  const TraceLog& trace_log() const { return trace_; }

 private:
  // Starts the core and its tick.
  void Boot();
  // Remembers a request until the core answers it; returns its token.
  uint64_t Hold(const sim::Message& m);
  // Applies the core's output after an input.
  void Pump();
  void Persist(const RaftCore::LogWrite& write);
  void SendToPeer(RaftCore::Send&& send);
  // A leader hint in txlogd's terms: the member's position + 1, 0 = none.
  wire::NodeId Hint(wire::NodeId leader) const;

  std::vector<sim::NodeId> members_;
  std::vector<sim::NodeId> peers_;
  RaftOptions options_;
  RaftConfig config_;
  sim::QueueServer disk_;
  MetricsRegistry metrics_;
  TraceLog trace_;
  std::unique_ptr<RaftCore> core_;

  std::map<uint64_t, sim::Message> held_;
  uint64_t next_token_ = 1;
};

}  // namespace memdb::txlog

#endif  // MEMDB_TXLOG_RAFT_H_
