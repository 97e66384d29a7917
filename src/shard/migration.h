// SlotMigrator: the source-side live slot migration state machine (§5).
//
//   kIdle ──StartMigration──► kHandshake   (target marks slot IMPORTING)
//                                  │ ack
//                                  ▼
//                             kStreaming   (batch keys: DUMP locally, mark
//                                  │        in-flight, ASKING+RESTORE to the
//                                  │        target, DEL locally once acked)
//                                  │ slot empty, all DELs durable
//                                  ▼
//                             kCommitting  (kSlotOwnership conditional
//                                  │        append through the source's own
//                                  │        fenced gate — a stale owner's
//                                  │        append fails, so the flip can
//                                  │        only be committed by the lease
//                                  │        holder)
//                                  │ append committed
//                                  ▼
//                             kNotifying   (target told to flip IMPORTING →
//                                  │        OWNED and publish to its log)
//                                  ▼
//                             kIdle        (slot now kRemote here)
//
// Any channel or gate failure aborts the migration: already-transferred
// keys stay deleted locally (they are durable on the target and the slot
// entry still answers -ASK for them), the slot reverts to kOwned, and the
// client retries. Nothing is lost either way because a key is only deleted
// locally after the target's quorum-committed RESTORE ack.
//
// Threading: the state machine (Pump, StartMigration, OnGateCompletion) is
// loop-thread-only, same contract as the engine and slot table. The only
// other thread is the channel worker, which performs the blocking RESP
// round-trips to the target; it exchanges jobs/results with the loop thread
// through a small mutex-guarded queue and wakes the loop via the host hook.

#ifndef MEMDB_SHARD_MIGRATION_H_
#define MEMDB_SHARD_MIGRATION_H_

#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/sync.h"
#include "shard/slot_table.h"

namespace memdb::shard {

// Everything the migrator needs from the embedding server. All methods are
// called on the server loop thread except MigrationWakeup (any thread).
class MigrationHost {
 public:
  virtual ~MigrationHost() = default;
  // Up to `max` keys still present in `slot` (expired keys excluded).
  virtual std::vector<std::string> MigrationKeys(uint16_t slot,
                                                 size_t max) = 0;
  // DUMP-serializes `key` (snapshot blob + CRC64 trailer, same shape the
  // DUMP command emits) and its absolute expiry (0 = none). False when the
  // key vanished (expired/deleted) since it was listed.
  virtual bool MigrationDump(const std::string& key, uint64_t* expire_at_ms,
                             std::string* blob) = 0;
  // Applies DEL(keys) to the local engine and replicates it through the
  // gate. Returns the gate sequence to await, or 0 when there is no gate
  // (standalone mode: the delete is immediately final).
  virtual uint64_t MigrationDelete(const std::vector<std::string>& keys) = 0;
  // Submits the ownership flip as a typed kSlotOwnership conditional append
  // through the fenced gate. Returns the gate sequence, or 0 when there is
  // no gate (the flip commits immediately).
  virtual uint64_t MigrationSubmitOwnership(uint16_t slot, uint64_t epoch,
                                            const std::string& to_shard,
                                            const std::string& to_endpoint)
      = 0;
  // Thread-safe: wake the server loop so Pump() runs soon.
  virtual void MigrationWakeup() = 0;
};

class SlotMigrator {
 public:
  struct Options {
    size_t batch_keys = 64;  // keys per channel round-trip
  };

  SlotMigrator(Options options, SlotTable* table, MigrationHost* host,
               MetricsRegistry* registry);
  ~SlotMigrator();
  SlotMigrator(const SlotMigrator&) = delete;
  SlotMigrator& operator=(const SlotMigrator&) = delete;

  // Loop thread. Marks the slot MIGRATING and starts the channel worker.
  // Fails when a migration is already running or the slot is not kOwned.
  Status StartMigration(uint16_t slot, std::string to_shard,
                        std::string to_endpoint);

  // Loop thread, every iteration: drains channel results and advances the
  // state machine.
  void Pump();

  // Loop thread: a gate completion for a sequence this migrator submitted
  // (DEL batch or ownership record). Returns true if the seq was ours.
  bool OnGateCompletion(uint64_t seq, bool ok);

  bool active() const { return state_ != State::kIdle; }
  uint16_t slot() const { return slot_; }
  // True while `key` is between DUMP and durable local DEL — writes must
  // answer -TRYAGAIN so the transferred value cannot be silently shadowed.
  bool KeyInFlight(const std::string& key) const {
    return in_flight_.count(key) > 0;
  }
  const std::string& last_error() const { return last_error_; }

  // Joins the worker (server shutdown). Loop thread.
  void Shutdown();

 private:
  enum class State : uint8_t { kIdle, kHandshake, kStreaming, kCommitting,
                               kNotifying };

  struct ChannelJob {
    uint64_t id = 0;
    std::vector<std::vector<std::string>> commands;  // pipelined round-trip
  };
  struct ChannelResult {
    uint64_t id = 0;
    bool ok = false;
    std::string error;
  };

  void WorkerMain();
  void EnqueueJob(std::vector<std::vector<std::string>> commands);
  bool TakeResult(ChannelResult* out);  // loop thread; false when none
  void Fail(const std::string& why);    // loop thread; aborts the migration
  void FinishWorker();                  // loop thread; joins + clears queues
  void StartNextBatch();                // loop thread; kStreaming step

  const Options options_;
  SlotTable* const table_;
  MigrationHost* const host_;

  Counter* migrations_total_ = nullptr;
  Counter* migration_failures_total_ = nullptr;
  Counter* keys_migrated_total_ = nullptr;

  // Loop-thread state.
  State state_ = State::kIdle;
  uint16_t slot_ = 0;
  std::string to_shard_;
  std::string to_endpoint_;
  uint64_t commit_epoch_ = 0;
  uint64_t next_job_id_ = 1;
  uint64_t outstanding_job_ = 0;        // 0 = none
  std::vector<std::string> batch_keys_;  // keys in the outstanding RESTORE
  std::set<std::string> in_flight_;
  std::set<uint64_t> pending_del_seqs_;
  uint64_t ownership_seq_ = 0;          // gate seq of the flip append
  std::string last_error_;

  // Channel worker bridge.
  std::thread worker_;
  bool worker_running_ = false;  // loop thread's view
  mutable Mutex mu_;
  CondVar cv_;
  std::deque<ChannelJob> jobs_ GUARDED_BY(mu_);
  std::deque<ChannelResult> results_ GUARDED_BY(mu_);
  bool stop_worker_ GUARDED_BY(mu_) = false;
};

}  // namespace memdb::shard

#endif  // MEMDB_SHARD_MIGRATION_H_
