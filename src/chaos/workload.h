// WireWorkload: client threads driving real RESP traffic at a set of
// server ports while the fault orchestrator kills/pauses nodes under them.
// Every operation is recorded in a HistoryRecorder with the classification
// rules that keep the linearizability check sound (see history.h):
//
//   outcome                      | write (SET)          | read (GET)
//   -----------------------------+----------------------+------------------
//   reply observed               | determinate          | determinate
//   -READONLY (replica/fenced)   | dropped + rotate     | n/a
//   other -ERR reply             | indeterminate        | dropped
//   timeout / connection died    | indeterminate        | dropped
//   command never fully sent     | dropped              | dropped
//
// Writes use globally unique values ("c<client>-<seq>"), so a value read
// back identifies exactly one SET: the checker's register model
// discriminates every write, and rejects a value no SET wrote.
//
// Clients rotate to the next port when a target refuses or dies, which is
// how traffic finds the newly promoted primary with no orchestration.

#ifndef MEMDB_CHAOS_WORKLOAD_H_
#define MEMDB_CHAOS_WORKLOAD_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "chaos/history.h"
#include "common/sync.h"
#include "resp/resp.h"

namespace memdb::chaos {

class WireWorkload {
 public:
  struct Options {
    std::vector<uint16_t> ports;  // candidate servers, any order
    int clients = 4;
    int keys = 8;
    uint64_t op_gap_ms = 1;           // pacing between ops per client
    uint64_t recv_timeout_ms = 2000;  // per-reply deadline
    uint64_t reconnect_backoff_ms = 50;
  };

  WireWorkload(Options options, HistoryRecorder* recorder);
  ~WireWorkload();

  void Start();
  void Stop();  // joins the client threads

  // Writes acknowledged with a determinate reply, across all clients.
  uint64_t acked_writes() const {
    return acked_writes_.load(std::memory_order_acquire);
  }

  // Thread-safe; lets respawned nodes join the rotation mid-run.
  void AddPort(uint16_t port);

  // One determinate GET per key against `port`, recorded into `recorder`.
  // Run after Stop() with the cluster stable: pins down the final state so
  // a lost acked write has nowhere to hide. False if any read failed.
  bool FinalReads(uint16_t port, HistoryRecorder* recorder);

  static std::string KeyName(int i) { return "chaos:k" + std::to_string(i); }

 private:
  void ClientMain(int client_idx);
  std::vector<uint16_t> SnapshotPorts();

  Options options_;
  HistoryRecorder* const recorder_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> acked_writes_{0};

  memdb::Mutex mu_;
  std::vector<uint16_t> ports_ GUARDED_BY(mu_);
};

}  // namespace memdb::chaos

#endif  // MEMDB_CHAOS_WORKLOAD_H_
