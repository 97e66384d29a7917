#include "memorydb/offbox.h"

#include <algorithm>
#include <utility>

#include "txlog/actor_transport.h"

namespace memdb::memorydb {

using replication::OffboxCycle;
using sim::NodeId;

namespace {
// How often the freshness check asks the log for its tail.
constexpr sim::Duration kCheckInterval = 500 * sim::kMs;
// Entries kept behind a new snapshot's position when trimming the log.
constexpr uint64_t kTrimSlack = 64;
// Serialization throughput of the shadow replica: bounds how long a
// snapshot takes, not customer latency.
constexpr double kSerializeBytesPerSec = 256.0 * (1 << 20);
}  // namespace

OffboxSnapshotter::OffboxSnapshotter(sim::Simulation* sim, NodeId id,
                                     Config config)
    : Actor(sim, id),
      config_(std::move(config)),
      log_(std::make_unique<txlog::ActorTransport>(this, config_.log_replicas),
           {.rpc_timeout_ms = 150}),
      s3_(this, config_.object_store),
      cpu_(&sim->scheduler(), 1) {
  Periodic(kCheckInterval, [this] { CheckFreshness(); });
}

void OffboxSnapshotter::CheckFreshness() {
  if (cycle_ != nullptr) return;
  log_.Tail([this](const Status& s,
                   const txlog::wire::ClientTailResponse& resp) {
    if (!s.ok() || cycle_ != nullptr) return;
    // Freshness = distance of the latest snapshot from the log tail
    // (§4.2.3); too stale -> cut a new snapshot.
    const uint64_t tail = resp.commit_index;
    if (tail >= last_snapshot_position_ &&
        tail - last_snapshot_position_ >= config_.max_log_distance) {
      Snapshot(nullptr);
    }
  });
}

void OffboxSnapshotter::Snapshot(DoneCallback done) {
  if (cycle_ != nullptr) {
    done(Status::Unavailable("snapshot already in progress"), 0);
    return;
  }
  done_ = std::move(done);
  cycle_ = std::make_unique<OffboxCycle>(
      OffboxCycle::Options{.trim_slack = kTrimSlack});
  log_.Tail([this](const Status& s,
                   const txlog::wire::ClientTailResponse& resp) {
    if (!cycle_->OnTail(s, resp.commit_index)) return Finish();
    s3_.GetLatest(replication::SnapshotPrefix(config_.shard_id),
                  [this](const Status& s, const std::string& blob) {
                    cycle_->OnSnapshot(s, Slice(blob)) ? Read() : Finish();
                  });
  });
}

void OffboxSnapshotter::Read() {
  if (cycle_->next_read() == 0) return Upload();
  log_.Read(cycle_->next_read(), OffboxCycle::kReadBatch,
            OffboxCycle::kReadWaitMs,
            [this](const Status& s,
                   const txlog::wire::ClientReadResponse& read) {
              cycle_->OnRead(Now() / 1000, s, read) ? Read() : Finish();
            });
}

void OffboxSnapshotter::Upload() {
  if (!cycle_->Rehearse(Now() / 1000)) return Finish();
  // Serialization burns shadow-replica CPU only (isolated cluster).
  const sim::Duration cost = std::max<sim::Duration>(
      1, static_cast<sim::Duration>(
             (static_cast<double>(cycle_->blob().size()) +
              static_cast<double>(synthetic_dataset_bytes_)) *
             1'000'000.0 / kSerializeBytesPerSec));
  cpu_.SubmitAnd(cost, [this] {
    s3_.Put(replication::SnapshotKey(config_.shard_id,
                                     cycle_->meta().log_position),
            cycle_->blob(), [this](const Status& s) {
              if (!cycle_->OnUpload(s)) return Finish();
              log_.Trim(cycle_->trim_index(),
                        [this](const Status& s, uint64_t first_index) {
                          cycle_->OnTrim(s, first_index);
                          Finish();
                        });
            });
  });
}

void OffboxSnapshotter::Finish() {
  const std::unique_ptr<OffboxCycle> cycle = std::move(cycle_);
  const replication::CycleResult& r = cycle->result();
  verification_failures_ += cycle->status().IsCorruption();
  snapshots_created_ += r.uploaded;
  if (r.uploaded) last_snapshot_position_ = r.applied_index;
  if (DoneCallback cb = std::exchange(done_, nullptr)) {
    cb(cycle->status(), r.applied_index);
  }
}

}  // namespace memdb::memorydb
