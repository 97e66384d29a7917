// OffboxRunner: memorydb-snapshotd's driver of the off-box cycle (§4.2.2,
// OffboxCycle holds its rules). RunCycle does the cycle's I/O in order on
// the calling thread, blocking on *Sync client wrappers, and records the
// snap.cycle.* spans and offbox_* metrics. The rpc machinery and the stats
// listener run on the runner's own LoopThread, which the cycle's
// deserialize, serialize and fsyncs would stall. One runner, one caller.

#ifndef MEMDB_REPLICATION_OFFBOX_RUNNER_H_
#define MEMDB_REPLICATION_OFFBOX_RUNNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "replication/offbox_cycle.h"
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
