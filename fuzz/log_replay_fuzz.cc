// libFuzzer harness for the bytes a log replay reads: a committed log entry
// as the log service hands it out (txlog::LogEntry::DecodeFrom), its
// effect batch or checksum payload (replication::ReplayEntry, the §7.2.1
// replay step every log consumer runs), and a snapshot blob
// (engine::DeserializeSnapshot). Invariants checked:
//
//   - no crash / no sanitizer report on any byte sequence,
//   - a kChecksum entry whose payload is not exactly 8 bytes never replays
//     OK, and one that does carries the chain it was checked against,
//   - the input sealed with a CRC64 trailer (so the fuzzer gets past the
//     blob checksum to the parser behind it) either fails to restore, or
//     restores to a keyspace whose rehearsed re-serialization succeeds.
//
// Build modes as for the other harnesses: linked against driver_main.cc it
// replays fuzz/corpus/log_replay as a ctest regression; with clang's
// -fsanitize=fuzzer it becomes a real coverage-guided fuzzer.

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/coding.h"
#include "common/crc.h"
#include "engine/engine.h"
#include "engine/snapshot.h"
#include "replication/effect_batch.h"
#include "txlog/record.h"

namespace {

void Abort(const char* what) {
  __builtin_trap();
  (void)what;
}

void ReplayOneEntry(memdb::Slice input) {
  memdb::Decoder dec(input);
  memdb::txlog::LogEntry entry;
  if (!memdb::txlog::LogEntry::DecodeFrom(&dec, &entry)) return;
  memdb::engine::Engine engine;
  // Any chain value will do; take it from the entry so a checksum record
  // can match it.
  const uint64_t seed = entry.term;
  uint64_t chain = seed;
  const memdb::Status s =
      memdb::replication::ReplayEntry(entry, 1000, &engine, &chain);
  if (entry.record.type != memdb::txlog::RecordType::kChecksum || !s.ok()) {
    return;
  }
  std::string expected;
  memdb::PutFixed64(&expected, seed);
  if (entry.record.payload != expected) {
    Abort("checksum record accepted without carrying the chain");
  }
}

void RestoreSealedSnapshot(memdb::Slice input) {
  std::string blob(input.data(), input.size());
  memdb::PutFixed64(&blob, memdb::Crc64(0, blob.data(), blob.size()));
  memdb::engine::Keyspace keyspace;
  memdb::engine::SnapshotMeta meta;
  if (!memdb::engine::DeserializeSnapshot(memdb::Slice(blob), &keyspace,
                                          &meta)
           .ok()) {
    return;
  }
  std::string again;
  if (!memdb::engine::SerializeRehearsedSnapshot(keyspace, meta, &again)
           .ok()) {
    Abort("a restored snapshot does not survive its own rehearsal");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const memdb::Slice input(reinterpret_cast<const char*>(data), size);
  ReplayOneEntry(input);
  RestoreSealedSnapshot(input);
  return 0;
}
