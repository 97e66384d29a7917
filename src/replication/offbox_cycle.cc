#include "replication/offbox_cycle.h"

#include <cstdio>

#include "replication/effect_batch.h"

namespace memdb::replication {

std::string SnapshotPrefix(const std::string& shard_id) {
  return "snap/" + shard_id + "/";
}

std::string SnapshotKey(const std::string& shard_id, uint64_t position) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020llu",
                static_cast<unsigned long long>(position));
  return SnapshotPrefix(shard_id) + buf;
}

OffboxCycle::OffboxCycle(Options options)
    : options_(std::move(options)),
      shadow_(std::make_unique<engine::Engine>()),
      engine_(shadow_.get()) {}

OffboxCycle::OffboxCycle(engine::Engine* engine, const RestoreResult& restored)
    : engine_(engine) {
  static_cast<RestoreResult&>(result_) = restored;
}

bool OffboxCycle::OnTail(const Status& s, uint64_t commit_index) {
  target_ = commit_index;
  return s.ok() || Fail(s);
}

bool OffboxCycle::OnSnapshot(const Status& s, Slice blob) {
  const Status loaded = LoadSnapshot(s, blob, engine_, &result_, &meta_);
  return loaded.ok() || Fail(loaded);
}

bool OffboxCycle::OnRead(uint64_t now_ms, const Status& s,
                         const txlog::wire::ClientReadResponse& read) {
  if (!s.ok()) return Fail(s);
  if (read.first_index > result_.applied_index + 1) {
    return Fail(Status::Corruption("log trimmed past snapshot position"));
  }
  if (read.entries.empty() && ++empty_reads_ >= kEmptyReads) {
    return Fail(Status::TimedOut("log tail not served up to target"));
  }
  for (const txlog::LogEntry& e : read.entries) {
    if (e.index > target_) break;
    const Status rs = ReplayEntry(e, now_ms, engine_, &result_.running_checksum,
                                  nullptr, &meta_.engine_version);
    if (!rs.ok()) return Fail(rs);
    result_.data_records_replayed += e.record.type == txlog::RecordType::kData;
    result_.checksum_records_verified +=
        e.record.type == txlog::RecordType::kChecksum;
    result_.applied_index = e.index;
    ++result_.entries_replayed;
  }
  return true;
}

bool OffboxCycle::Rehearse(uint64_t now_ms) {
  const uint64_t tail = result_.applied_index - result_.snapshot_position;
  if (result_.data_records_replayed == 0 &&
      !(options_.trim && tail > options_.trim_slack)) {
    return false;
  }
  meta_.log_position = result_.applied_index;
  meta_.log_running_checksum = result_.running_checksum;
  meta_.created_at_ms = now_ms;
  const Status s =
      engine::SerializeRehearsedSnapshot(engine_->keyspace(), meta_, &blob_);
  if (!s.ok()) return Fail(s);
  result_.snapshot_bytes = blob_.size();
  return true;
}

bool OffboxCycle::OnUpload(const Status& s) {
  if (!s.ok()) return Fail(s);
  result_.uploaded = true;
  return options_.trim && result_.applied_index > options_.trim_slack;
}

Status OffboxCycle::LoadSnapshot(const Status& fetched, Slice blob,
                                 engine::Engine* engine, RestoreResult* result,
                                 engine::SnapshotMeta* meta) {
  *result = RestoreResult();
  if (fetched.IsNotFound()) return Status::OK();
  MEMDB_RETURN_IF_ERROR(fetched);
  MEMDB_RETURN_IF_ERROR(
      engine::DeserializeSnapshot(blob, &engine->keyspace(), meta));
  result->snapshot_position = result->applied_index = meta->log_position;
  result->running_checksum = meta->log_running_checksum;
  return Status::OK();
}

}  // namespace memdb::replication
