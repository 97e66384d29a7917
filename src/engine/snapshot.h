// RDB-style point-in-time snapshot serialization. A snapshot carries, in
// addition to the data, the transaction-log position it reflects and the
// running log checksum at that position — the ingredients of the paper's
// snapshot correctness verification (§7.2.1).

#ifndef MEMDB_ENGINE_SNAPSHOT_H_
#define MEMDB_ENGINE_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "common/coding.h"
#include "common/slice.h"
#include "common/status.h"
#include "engine/keyspace.h"

namespace memdb::engine {

struct SnapshotMeta {
  // Engine version that produced the snapshot (upgrade protection, §7.1).
  std::string engine_version = "7.0.7";
  // Identifier of the last log entry whose effects the snapshot contains.
  uint64_t log_position = 0;
  // Running CRC64 over the transaction log up to log_position.
  uint64_t log_running_checksum = 0;
  uint64_t created_at_ms = 0;
};

// Serializes the whole keyspace + metadata. The returned blob ends with a
// CRC64 over everything preceding it ("checksum covering the data it
// contains", §7.2.1).
std::string SerializeSnapshot(const Keyspace& keyspace,
                              const SnapshotMeta& meta);

// SerializeSnapshot, then a restore rehearsal into a scratch keyspace
// (§7.2.1: only a snapshot that restores is published). Corruption when
// the blob does not restore; the caller must not upload it then.
Status SerializeRehearsedSnapshot(const Keyspace& keyspace,
                                  const SnapshotMeta& meta, std::string* blob);

// Reads only the metadata header (cheap; used by schedulers and verifiers).
Status ReadSnapshotMeta(Slice blob, SnapshotMeta* meta);

// Full restore: validates magic and data checksum, replaces *keyspace.
Status DeserializeSnapshot(Slice blob, Keyspace* keyspace, SnapshotMeta* meta);

// Single-value serialization, shared with DUMP/RESTORE (slot migration).
void SerializeValue(const ds::Value& value, std::string* out);
Status DeserializeValue(Decoder* dec, ds::Value* out);

}  // namespace memdb::engine

#endif  // MEMDB_ENGINE_SNAPSHOT_H_
