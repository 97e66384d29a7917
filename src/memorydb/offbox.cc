#include "memorydb/offbox.h"

#include <algorithm>
#include <cstdio>

#include "engine/snapshot.h"
#include "replication/effect_batch.h"
#include "txlog/actor_transport.h"

namespace memdb::memorydb {

using sim::NodeId;

namespace {
// How often the freshness check asks the log for its tail.
constexpr sim::Duration kCheckInterval = 500 * sim::kMs;
// Entries kept behind a new snapshot's position when trimming the log.
constexpr uint64_t kTrimSlack = 64;
// Serialization throughput of the shadow replica: bounds how long a
// snapshot takes, not customer latency.
constexpr double kSerializeBytesPerSec = 256.0 * (1 << 20);

// Zero-padded snapshot keys sort lexicographically by position.
std::string SnapshotKey(const std::string& shard_id, uint64_t position) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020llu",
                static_cast<unsigned long long>(position));
  return "snap/" + shard_id + "/" + buf;
}
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
  if (busy_) return;
  log_.Tail([this](const Status& s,
                   const txlog::wire::ClientTailResponse& resp) {
    if (!s.ok() || busy_) return;
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
  if (busy_) {
    done(Status::Unavailable("snapshot already in progress"), 0);
    return;
  }
  busy_ = true;
  done_ = std::move(done);
  engine_.keyspace().Clear();
  applied_index_ = 0;
  running_checksum_ = 0;
  // Record the tail position at creation time (§4.2.2 step 1); the shadow
  // replica replays up to it and stops.
  log_.Tail([this](const Status& s,
                   const txlog::wire::ClientTailResponse& resp) {
    if (!s.ok()) {
      Finish(s, 0);
      return;
    }
    target_tail_ = resp.commit_index;
    RestoreLatestSnapshot();
  });
}

void OffboxSnapshotter::RestoreLatestSnapshot() {
  // No snapshot yet is a cold start: replay from the log's first entry.
  s3_.GetLatest("snap/" + config_.shard_id + "/",
                [this](const Status& s, const std::string& blob) {
                  engine::SnapshotMeta meta;
                  // Step 1 of verification (§7.2.1): the snapshot's own
                  // data checksum must validate.
                  if (s.ok()) {
                    if (DeserializeSnapshot(blob, &engine_.keyspace(), &meta)
                            .ok()) {
                      applied_index_ = meta.log_position;
                      running_checksum_ = meta.log_running_checksum;
                    } else {
                      verification_failed_ = true;
                      engine_.keyspace().Clear();
                    }
                  }
                  Replay();
                });
}

void OffboxSnapshotter::Replay() {
  if (applied_index_ >= target_tail_) {
    DumpAndUpload();
    return;
  }
  log_.Read(applied_index_ + 1, 256, /*wait_ms=*/0,
            [this](const Status& s, const txlog::wire::ClientReadResponse& r) {
              if (!s.ok()) {
                Finish(s, 0);
                return;
              }
              if (r.first_index > applied_index_ + 1) {
                Finish(Status::Corruption("log trimmed past snapshot position"),
                       0);
                return;
              }
              for (const txlog::LogEntry& e : r.entries) {
                if (e.index > target_tail_) break;
                // Step 2 of verification: recompute the chain from the prior
                // snapshot's basis and check each logged checksum against it.
                // A batch that does not decode fails the cycle too, rather
                // than publish a partial state.
                const Status rs = replication::ReplayEntry(
                    e, Now() / 1000, &engine_, &running_checksum_);
                if (!rs.ok()) {
                  verification_failed_ = true;
                  Finish(rs, 0);
                  return;
                }
                applied_index_ = e.index;
              }
              if (r.entries.empty()) {
                DumpAndUpload();
              } else {
                Replay();
              }
            });
}

void OffboxSnapshotter::DumpAndUpload() {
  engine::SnapshotMeta meta;
  meta.engine_version = config_.engine_version;
  meta.log_position = applied_index_;
  meta.log_running_checksum = running_checksum_;
  meta.created_at_ms = Now() / 1000;
  std::string blob;
  const Status rehearsal =
      engine::SerializeRehearsedSnapshot(engine_.keyspace(), meta, &blob);
  if (!rehearsal.ok()) {
    verification_failed_ = true;
    Finish(rehearsal, 0);
    return;
  }
  // Serialization burns shadow-replica CPU only (isolated cluster).
  const sim::Duration cost = std::max<sim::Duration>(
      1, static_cast<sim::Duration>(
             (static_cast<double>(blob.size()) +
              static_cast<double>(synthetic_dataset_bytes_)) *
             1'000'000.0 / kSerializeBytesPerSec));
  const uint64_t position = applied_index_;
  cpu_.SubmitAnd(cost, [this, position, blob = std::move(blob)]() mutable {
    s3_.Put(SnapshotKey(config_.shard_id, position), std::move(blob),
            [this, position](const Status& s) {
              if (s.ok()) {
                ++snapshots_created_;
                last_snapshot_position_ = position;
                // The trim hint goes out only once the snapshot that
                // covers the trimmed history is in the store.
                if (position > kTrimSlack) {
                  log_.Trim(position - kTrimSlack,
                            [](const Status&, uint64_t) {});
                }
              }
              Finish(s, position);
            });
  });
}

void OffboxSnapshotter::Finish(const Status& s, uint64_t position) {
  busy_ = false;
  if (done_) {
    DoneCallback cb = std::move(done_);
    done_ = nullptr;
    cb(s, position);
  }
}

}  // namespace memdb::memorydb
