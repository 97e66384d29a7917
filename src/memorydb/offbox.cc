#include "memorydb/offbox.h"

#include <algorithm>
#include <cstdio>

#include "common/crc.h"
#include "memorydb/node.h"
#include "replication/effect_batch.h"

namespace memdb::memorydb {

using sim::NodeId;

namespace {
// Zero-padded snapshot keys sort lexicographically by position.
std::string SnapshotKey(const std::string& shard_id, uint64_t position) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020llu",
                static_cast<unsigned long long>(position));
  return "snap/" + shard_id + "/" + buf;
}
}  // namespace

OffboxSnapshotter::OffboxSnapshotter(sim::Simulation* sim, NodeId id,
                                     OffboxConfig config)
    : Actor(sim, id),
      config_(std::move(config)),
      log_(this, config_.log_replicas),
      s3_(this, config_.object_store),
      cpu_(&sim->scheduler(), 1) {}

void OffboxSnapshotter::Snapshot(DoneCallback done) {
  if (busy_) {
    done(Status::Unavailable("snapshot already in progress"), 0);
    return;
  }
  busy_ = true;
  done_ = std::move(done);
  ++cycle_;
  engine_.keyspace().Clear();
  applied_index_ = 0;
  running_checksum_ = 0;
  // Record the tail position at creation time (§4.2.2 step 1); the shadow
  // replica replays up to it and stops.
  const uint64_t cycle = cycle_;
  log_.Tail([this, cycle](const Status& s,
                          const txlog::wire::ClientTailResponse& resp) {
    if (cycle != cycle_) return;
    if (!s.ok()) {
      Finish(s, 0);
      return;
    }
    target_tail_ = resp.commit_index;
    RestoreLatestSnapshot();
  });
}

void OffboxSnapshotter::RestoreLatestSnapshot() {
  const uint64_t cycle = cycle_;
  s3_.List("snap/" + config_.shard_id + "/",
           [this, cycle](const Status& s, const std::vector<std::string>& keys) {
             if (cycle != cycle_) return;
             if (!s.ok() || keys.empty()) {
               ReplayFrom(1);
               return;
             }
             s3_.Get(keys.back(), [this, cycle](const Status& gs,
                                                const std::string& blob) {
               if (cycle != cycle_) return;
               if (gs.ok()) {
                 engine::SnapshotMeta meta;
                 // Step 1 of verification (§7.2.1): the snapshot's own data
                 // checksum must validate.
                 if (DeserializeSnapshot(blob, &engine_.keyspace(), &meta)
                         .ok()) {
                   applied_index_ = meta.log_position;
                   running_checksum_ = meta.log_running_checksum;
                 } else {
                   verification_failed_ = true;
                   engine_.keyspace().Clear();
                   applied_index_ = 0;
                   running_checksum_ = 0;
                 }
               }
               ReplayFrom(applied_index_ + 1);
             });
           });
}

void OffboxSnapshotter::ReplayFrom(uint64_t from_index) {
  if (applied_index_ >= target_tail_) {
    DumpAndUpload();
    return;
  }
  const uint64_t cycle = cycle_;
  log_.Read(from_index, 256, [this, cycle](
                                 const Status& s,
                                 const txlog::wire::ClientReadResponse& r) {
    if (cycle != cycle_) return;
    if (!s.ok()) {
      Finish(s, 0);
      return;
    }
    if (r.first_index > applied_index_ + 1) {
      Finish(Status::Corruption("log trimmed past snapshot position"), 0);
      return;
    }
    for (const txlog::LogEntry& e : r.entries) {
      if (e.index > target_tail_) break;
      if (e.record.type == txlog::RecordType::kData) {
        // A batch that does not decode cannot be replayed faithfully: fail
        // the cycle rather than publish a partial state.
        if (!replication::ApplyEffectBatch(&engine_, Slice(e.record.payload),
                                           Now() / 1000)) {
          verification_failed_ = true;
          Finish(Status::Corruption("malformed effect batch at log index " +
                                    std::to_string(e.index)),
                 0);
          return;
        }
        // Step 2 of verification: recompute the running checksum from the
        // prior snapshot's basis...
        running_checksum_ = Crc64(running_checksum_, e.record.payload);
      } else if (e.record.type == txlog::RecordType::kChecksum) {
        // ...and compare against each checksum injected in the log.
        Decoder dec(e.record.payload);
        uint64_t expected;
        if (dec.GetFixed64(&expected) && expected != running_checksum_) {
          verification_failed_ = true;
          Finish(Status::Corruption(
                     "snapshot/log checksum chain mismatch for shard " +
                     config_.shard_id),
                 0);
          return;
        }
      }
      applied_index_ = e.index;
    }
    if (applied_index_ >= target_tail_ || r.entries.empty()) {
      DumpAndUpload();
    } else {
      ReplayFrom(applied_index_ + 1);
    }
  });
}

void OffboxSnapshotter::DumpAndUpload() {
  engine::SnapshotMeta meta;
  meta.engine_version = config_.engine_version;
  meta.log_position = applied_index_;
  meta.log_running_checksum = running_checksum_;
  meta.created_at_ms = Now() / 1000;
  std::string blob = SerializeSnapshot(engine_.keyspace(), meta);

  // Serialization burns shadow-replica CPU only (isolated cluster).
  const sim::Duration cost = std::max<sim::Duration>(
      1, static_cast<sim::Duration>(
             (static_cast<double>(blob.size()) +
              static_cast<double>(config_.synthetic_dataset_bytes)) *
             1'000'000.0 /
             static_cast<double>(config_.serialize_bytes_per_sec)));
  const uint64_t cycle = cycle_;
  cpu_.SubmitAnd(cost, [this, cycle, blob = std::move(blob)]() mutable {
    if (cycle != cycle_) return;
    // Rehearse the restore before publishing (only verified snapshots are
    // made available, §7.2.1).
    engine::Engine rehearsal;
    engine::SnapshotMeta check;
    if (!DeserializeSnapshot(blob, &rehearsal.keyspace(), &check).ok()) {
      verification_failed_ = true;
      Finish(Status::Corruption("snapshot failed restore rehearsal"), 0);
      return;
    }
    const uint64_t position = applied_index_;
    s3_.Put(SnapshotKey(config_.shard_id, position), std::move(blob),
            [this, cycle, position](const Status& s) {
              if (cycle != cycle_) return;
              if (s.ok()) ++snapshots_created_;
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

// --------------------------------------------------------------- scheduler

SnapshotScheduler::SnapshotScheduler(sim::Simulation* sim, NodeId id,
                                     Config config, OffboxSnapshotter* offbox)
    : Actor(sim, id),
      config_(std::move(config)),
      offbox_(offbox),
      log_(this, config_.log_replicas) {
  Periodic(config_.check_interval, [this] { Check(); });
}

void SnapshotScheduler::Check() {
  if (offbox_->busy()) return;
  log_.Tail([this](const Status& s,
                   const txlog::wire::ClientTailResponse& resp) {
    if (!s.ok() || offbox_->busy()) return;
    // Freshness = distance of the latest snapshot from the log tail
    // (§4.2.3); too stale -> cut a new snapshot, then trim behind it.
    const uint64_t tail = resp.commit_index;
    if (tail < last_snapshot_position_ ||
        tail - last_snapshot_position_ < config_.max_log_distance) {
      return;
    }
    ++snapshots_triggered_;
    offbox_->Snapshot([this](const Status& ss, uint64_t position) {
      if (!ss.ok()) return;
      last_snapshot_position_ = position;
      if (position > config_.trim_slack) {
        log_.Trim(position - config_.trim_slack);
      }
    });
  });
}

}  // namespace memdb::memorydb
