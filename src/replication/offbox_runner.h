// OffboxRunner: the off-box snapshotter's core (§4.2.2), run against real
// daemons by memorydb-snapshotd. One cycle is the paper's shadow-cluster
// dance, with no participation from the serving primary:
//
//   1. Tail the log group for the current commit index (the cycle target).
//   2. Restore the latest snapshot from the store into a private engine
//      (the snapshot's own data checksum validates on load, §7.2.1 step 1).
//   3. Replay the log tail past the snapshot position, recomputing the
//      running checksum and verifying every kChecksum record (step 2).
//   4. Serialize a new snapshot carrying (position, running checksum) and
//      rehearse-restore it into a scratch keyspace — an unrestorable
//      snapshot is discarded, never uploaded (step 3).
//   5. Upload blob + manifest to the snapshot store.
//   6. Optionally hint the log group to trim history the snapshot now
//      covers, keeping trim_slack entries of margin for live followers
//      (§4.2.3); each log replica bounds the trim by its own commit.
//
// RunCycle blocks the calling thread (it drives *Sync client wrappers);
// the rpc machinery runs on the runner's own LoopThread. One runner, one
// caller thread — the daemon's main loop.

#ifndef MEMDB_REPLICATION_OFFBOX_RUNNER_H_
#define MEMDB_REPLICATION_OFFBOX_RUNNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "replication/snapshot_store.h"
#include "rpc/loop.h"
#include "rpc/server.h"
#include "storage/fs_object_store.h"
#include "txlog/remote_client.h"

namespace memdb::replication {

class OffboxRunner {
 public:
  struct Options {
    std::vector<std::string> endpoints;  // txlogd replicas
    std::string store_dir;               // FsObjectStore root
    std::string shard_id = "shard-0";
    // Entries kept behind the snapshot position when hinting a trim, so a
    // briefly-lagging follower does not get trimmed out from under itself.
    uint64_t trim_slack = 1024;
    bool issue_trim = true;
    bool fsync = true;  // store durability; tests turn it off
    // Serve svc.Metrics + svc.TraceDump on this rpc port so memorydb-stat
    // can scrape the snapshotter like any other fleet member (0 = kernel
    // picks; port() reports it). Off unless serve_stats is set.
    bool serve_stats = false;
    uint16_t stats_port = 0;
  };

  // The stats listener's address.
  static constexpr char kStatsBind[] = "127.0.0.1";

  struct CycleResult {
    uint64_t position = 0;          // log position of the produced snapshot
    uint64_t running_checksum = 0;
    uint64_t entries_replayed = 0;
    size_t snapshot_bytes = 0;
    bool restored_from_snapshot = false;  // cycle started from a prior blob
    bool uploaded = false;          // false when the log had nothing new
    uint64_t trimmed_first_index = 0;     // log's first index after the hint
  };

  OffboxRunner(Options options, MetricsRegistry* registry = nullptr);
  ~OffboxRunner();
  OffboxRunner(const OffboxRunner&) = delete;
  OffboxRunner& operator=(const OffboxRunner&) = delete;

  Status Start();
  void Stop();

  // One full snapshot cycle; blocking. Safe to call repeatedly.
  Status RunCycle(CycleResult* out);

  // Cycle-stage spans (snap.cycle.*), one trace id per cycle. Thread-safe
  // snapshots; recording happens on the RunCycle caller thread.
  const TraceLog& trace_log() const { return trace_; }
  // Stats listener port; meaningful after Start() when serve_stats is set.
  uint16_t stats_port() const;

 private:
  Options options_;
  rpc::LoopThread loop_;
  std::unique_ptr<txlog::RemoteClient> client_;
  storage::FsObjectStore store_;
  SnapshotStore snapshots_;
  bool started_ = false;

  // Shared registry when the caller passed one, else the runner's own —
  // either way the svc.Metrics scrape has something real to serialize.
  MetricsRegistry own_metrics_;
  MetricsRegistry* registry_ = nullptr;
  TraceLog trace_;
  uint64_t cycle_seq_ = 0;  // RunCycle caller thread only
  std::unique_ptr<rpc::Server> stats_server_;

  Counter* cycles_ = nullptr;
  Counter* failures_ = nullptr;
  Counter* verification_failures_ = nullptr;
  Gauge* last_position_ = nullptr;
};

}  // namespace memdb::replication

#endif  // MEMDB_REPLICATION_OFFBOX_RUNNER_H_
