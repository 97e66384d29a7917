#include "shard/migration.h"

#include <pthread.h>

#include <utility>

#include "client/resp_conn.h"
#include "resp/resp.h"

namespace memdb::shard {

namespace {

// Connect/send/reply deadline of the migration channel.
constexpr uint64_t kChannelTimeoutMs = 5000;

}  // namespace

SlotMigrator::SlotMigrator(Options options, SlotTable* table,
                           MigrationHost* host, MetricsRegistry* registry)
    : options_(options), table_(table), host_(host) {
  if (registry != nullptr) {
    registry->SetHelp("cluster_migrations_total",
                      "Slot migrations completed by this node as source");
    migrations_total_ = registry->GetCounter("cluster_migrations_total");
    registry->SetHelp("cluster_migration_failures_total",
                      "Slot migrations aborted (channel or gate failure)");
    migration_failures_total_ =
        registry->GetCounter("cluster_migration_failures_total");
    registry->SetHelp("cluster_keys_migrated_total",
                      "Keys streamed to an importing peer and deleted here");
    keys_migrated_total_ =
        registry->GetCounter("cluster_keys_migrated_total");
  }
}

SlotMigrator::~SlotMigrator() { Shutdown(); }

Status SlotMigrator::StartMigration(uint16_t slot, std::string to_shard,
                                    std::string to_endpoint) {
  if (state_ != State::kIdle) {
    return Status::InvalidArgument("migration already in progress for slot " +
                                   std::to_string(slot_));
  }
  const SlotTable::Entry& entry = table_->at(slot);
  const bool resuming = entry.state == SlotState::kMigrating &&
                        entry.peer_shard == to_shard &&
                        entry.peer_endpoint == to_endpoint;
  if (!resuming && !table_->BeginMigrating(slot, to_shard, to_endpoint)) {
    return Status::InvalidArgument(
        "slot " + std::to_string(slot) + " is " +
        SlotStateName(table_->at(slot).state) + ", not owned");
  }
  slot_ = slot;
  to_shard_ = std::move(to_shard);
  to_endpoint_ = std::move(to_endpoint);
  commit_epoch_ = table_->at(slot).epoch + 1;
  last_error_.clear();
  in_flight_.clear();
  batch_keys_.clear();
  pending_del_seqs_.clear();
  ownership_seq_ = 0;
  outstanding_job_ = 0;

  {
    MutexLock lock(&mu_);
    stop_worker_ = false;
    jobs_.clear();
    results_.clear();
  }
  worker_ = std::thread([this] { WorkerMain(); });
  worker_running_ = true;

  state_ = State::kHandshake;
  EnqueueJob({{"CLUSTER", "SETSLOT", std::to_string(slot_), "IMPORTING",
               table_->self_shard(), table_->self_endpoint()}});
  return Status::OK();
}

void SlotMigrator::Pump() {
  if (state_ == State::kIdle) return;

  ChannelResult res;
  while (TakeResult(&res)) {
    if (res.id != outstanding_job_) continue;  // stale (post-abort)
    outstanding_job_ = 0;
    if (!res.ok) {
      Fail("channel: " + res.error);
      return;
    }
    switch (state_) {
      case State::kHandshake:
        state_ = State::kStreaming;
        break;
      case State::kStreaming: {
        // The whole batch is durable on the target: delete it here. The
        // keys stay in in_flight_ until the DEL itself is durable, so a
        // client write cannot slip in between and be shadowed by the flip.
        if (!batch_keys_.empty()) {
          const uint64_t seq = host_->MigrationDelete(batch_keys_);
          if (seq != 0) {
            pending_del_seqs_.insert(seq);
          } else {
            for (const std::string& k : batch_keys_) in_flight_.erase(k);
          }
          if (keys_migrated_total_ != nullptr) {
            keys_migrated_total_->Increment(batch_keys_.size());
          }
          batch_keys_.clear();
        }
        break;
      }
      case State::kNotifying:
        // Target committed its side; we are done.
        FinishWorker();
        state_ = State::kIdle;
        if (migrations_total_ != nullptr) migrations_total_->Increment();
        return;
      case State::kCommitting:
      case State::kIdle:
        break;
    }
  }

  if (state_ == State::kStreaming && outstanding_job_ == 0) {
    StartNextBatch();
  }
}

void SlotMigrator::StartNextBatch() {
  const std::vector<std::string> keys =
      host_->MigrationKeys(slot_, options_.batch_keys);
  std::vector<std::vector<std::string>> commands;
  batch_keys_.clear();
  for (const std::string& key : keys) {
    if (in_flight_.count(key) > 0) continue;  // DEL still in the gate
    uint64_t expire_at = 0;
    std::string blob;
    if (!host_->MigrationDump(key, &expire_at, &blob)) continue;
    commands.push_back({"ASKING"});
    commands.push_back({"RESTORE", key, std::to_string(expire_at),
                        std::move(blob), "REPLACE", "ABSTTL"});
    batch_keys_.push_back(key);
    in_flight_.insert(key);
  }
  if (!commands.empty()) {
    EnqueueJob(std::move(commands));
    return;
  }
  // Slot drained; wait for the outstanding DELs to become durable before
  // committing the flip, so the log order is "every key left" before
  // "ownership moved".
  if (!pending_del_seqs_.empty()) return;
  state_ = State::kCommitting;
  ownership_seq_ = host_->MigrationSubmitOwnership(slot_, commit_epoch_,
                                                   to_shard_, to_endpoint_);
  if (ownership_seq_ == 0) {
    // No gate (standalone): the flip is immediately final.
    OnGateCompletion(0, true);
  }
}

bool SlotMigrator::OnGateCompletion(uint64_t seq, bool ok) {
  if (state_ == State::kIdle) return false;
  if (pending_del_seqs_.erase(seq) > 0) {
    if (!ok) {
      Fail("gate: DEL batch failed (fenced?)");
      return true;
    }
    // Durable: the transferred keys can stop answering -TRYAGAIN.
    // (We do not track seq->keys; once no DELs are pending, everything
    // previously batched is durable — clear what is no longer local.)
    if (pending_del_seqs_.empty() && batch_keys_.empty()) {
      in_flight_.clear();
    }
    if (state_ == State::kStreaming && outstanding_job_ == 0) {
      StartNextBatch();
    }
    return true;
  }
  if (state_ == State::kCommitting && seq == ownership_seq_) {
    if (!ok) {
      Fail("gate: ownership append rejected (lease lost)");
      return true;
    }
    table_->CommitMigrationOut(slot_, commit_epoch_);
    state_ = State::kNotifying;
    EnqueueJob({{"CLUSTER", "SETSLOT", std::to_string(slot_), "NODE",
                 to_shard_, to_endpoint_, std::to_string(commit_epoch_)}});
    return true;
  }
  return false;
}

void SlotMigrator::Fail(const std::string& why) {
  last_error_ = why;
  if (migration_failures_total_ != nullptr) {
    migration_failures_total_->Increment();
  }
  // The slot table is deliberately left as-is. Pre-commit the slot stays
  // kMigrating: already-transferred keys are gone locally but durable on
  // the target, and kMigrating keeps answering -ASK for them — reverting
  // to kOwned would turn them into false misses. A retried CLUSTER SETSLOT
  // MIGRATE to the same peer resumes from where the stream stopped.
  // Post-commit (kNotifying) the flip is already durable; only the
  // courtesy notification was lost, and the target flips anyway when it
  // next observes the ownership record or a retried NODE command.
  FinishWorker();
  in_flight_.clear();
  batch_keys_.clear();
  pending_del_seqs_.clear();
  outstanding_job_ = 0;
  state_ = State::kIdle;
}

void SlotMigrator::Shutdown() {
  FinishWorker();
  state_ = State::kIdle;
}

void SlotMigrator::FinishWorker() {
  {
    MutexLock lock(&mu_);
    stop_worker_ = true;
    cv_.Signal();
  }
  if (worker_.joinable()) worker_.join();
  worker_running_ = false;
  MutexLock lock(&mu_);
  jobs_.clear();
  results_.clear();
}

void SlotMigrator::EnqueueJob(std::vector<std::vector<std::string>> commands) {
  ChannelJob job;
  job.id = next_job_id_++;
  job.commands = std::move(commands);
  outstanding_job_ = job.id;
  MutexLock lock(&mu_);
  jobs_.push_back(std::move(job));
  cv_.Signal();
}

bool SlotMigrator::TakeResult(ChannelResult* out) {
  MutexLock lock(&mu_);
  if (results_.empty()) return false;
  *out = std::move(results_.front());
  results_.pop_front();
  return true;
}

// lint:off-loop -- migration channel worker thread body: the one place in
// src/shard allowed to block (socket I/O to the target shard); the loop
// talks to it only through the mutex-guarded job/result queues.
void SlotMigrator::WorkerMain() {
  pthread_setname_np(pthread_self(), "slot-migrate");
  // The channel speaks to the target's normal RESP port, so the transfer
  // rides the same durability gate as any client write — a RESTORE ack
  // means the key is quorum-committed on the target.
  client::RespConn sock;
  const std::string endpoint = to_endpoint_;
  for (;;) {
    ChannelJob job;
    {
      MutexLock lock(&mu_);
      while (jobs_.empty() && !stop_worker_) cv_.Wait(&mu_);
      if (stop_worker_) return;
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }

    ChannelResult res;
    res.id = job.id;
    res.ok = true;
    if (!sock.connected() && !sock.Connect(endpoint, kChannelTimeoutMs)) {
      res.ok = false;
      res.error = "connect to " + endpoint + " failed";
    } else {
      std::string frame;
      for (const auto& argv : job.commands) {
        frame += resp::EncodeCommand(argv);
      }
      if (!sock.Send(frame)) {
        res.ok = false;
        res.error = "send to " + endpoint + " failed";
      } else {
        for (size_t i = 0; i < job.commands.size(); ++i) {
          resp::Value reply;
          if (!sock.ReadReply(&reply)) {
            res.ok = false;
            res.error = "read from " + endpoint + " failed";
            break;
          }
          if (reply.IsError()) {
            res.ok = false;
            res.error = job.commands[i][0] + ": " + reply.str;
            break;
          }
        }
      }
    }
    if (!res.ok) sock.Close();

    {
      MutexLock lock(&mu_);
      results_.push_back(std::move(res));
    }
    host_->MigrationWakeup();
  }
}

}  // namespace memdb::shard
