#include "replication/recovery.h"

#include <chrono>

namespace memdb::replication {

namespace {
uint64_t WallMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}
}  // namespace

Status RestoreFromStore(SnapshotStore* store, engine::Engine* engine,
                        RestoreResult* result) {
  *result = RestoreResult();
  std::string blob;
  SnapshotManifest manifest;
  Status s = store->GetLatest(&blob, &manifest);
  if (s.IsNotFound()) return Status::OK();  // cold start
  MEMDB_RETURN_IF_ERROR(s);
  engine::SnapshotMeta meta;
  MEMDB_RETURN_IF_ERROR(
      engine::DeserializeSnapshot(Slice(blob), &engine->keyspace(), &meta));
  result->snapshot_position = meta.log_position;
  result->applied_index = meta.log_position;
  result->running_checksum = meta.log_running_checksum;
  return Status::OK();
}

// lint:off-loop -- peer-less restore path: runs on the node's startup
// thread before any event loop exists; blocking sync reads are the point.
Status ReplayLogTail(txlog::RemoteClient* client, engine::Engine* engine,
                     RestoreResult* result, uint64_t target_tail) {
  uint64_t target = target_tail;
  if (target == 0) {
    // Reads may be served by a lagging follower whose commit index trails
    // the leader's — pinning the target to one of those would silently
    // stop recovery short of acked writes. Tail is leader-only (and
    // barrier-gated past elections), so it is the authoritative "everything
    // acked so far" mark.
    txlog::wire::ClientTailResponse tail;
    MEMDB_RETURN_IF_ERROR(client->TailSync(&tail));
    target = tail.commit_index;
  }
  // Empty reads tolerated while a lagging replica catches up to `target`;
  // commit never regresses, so exhausting these means the log group could
  // not serve its own committed tail for the whole window.
  int empty_reads_left = 100;
  for (;;) {
    if (result->applied_index >= target) return Status::OK();
    txlog::wire::ClientReadResponse resp;
    // wait_ms makes the read a long-poll when no entry is available yet;
    // a served read returns immediately regardless.
    MEMDB_RETURN_IF_ERROR(client->ReadSync(result->applied_index + 1,
                                           /*max_count=*/256,
                                           /*wait_ms=*/100, &resp));
    if (resp.first_index > result->applied_index + 1) {
      return Status::Corruption("log trimmed past snapshot position");
    }
    if (resp.entries.empty()) {
      if (--empty_reads_left <= 0) {
        return Status::TimedOut("log tail not served up to target");
      }
      continue;
    }
    const uint64_t now_ms = WallMs();
    for (const txlog::LogEntry& e : resp.entries) {
      if (e.index > target) break;
      MEMDB_RETURN_IF_ERROR(
          ReplayEntry(e, now_ms, engine, &result->running_checksum));
      if (e.record.type == txlog::RecordType::kData) {
        ++result->data_records_replayed;
      } else if (e.record.type == txlog::RecordType::kChecksum) {
        ++result->checksum_records_verified;
      }
      result->applied_index = e.index;
      ++result->entries_replayed;
    }
    if (result->applied_index >= target) return Status::OK();
  }
}

}  // namespace memdb::replication
