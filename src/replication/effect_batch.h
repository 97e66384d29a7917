// The kData effect-batch codec: every data record's payload, written by the
// primaries (memorydb-server's gate, the simulator's Node) and read by
// everything that replays the log. A payload is the producing engine's
// version, then per effect argc + argv.
//
// ReplayEntry is the §7.2.1 replay step every log consumer runs: recovery's
// ReplayLogTail, memorydb-server's log-fed replica, and the simulator's Node
// and off-box snapshotter. Each decides for itself what a Corruption means.

#ifndef MEMDB_REPLICATION_EFFECT_BATCH_H_
#define MEMDB_REPLICATION_EFFECT_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "engine/engine.h"
#include "txlog/record.h"

namespace memdb::replication {

std::string EncodeEffectBatch(const std::string& engine_version,
                              const std::vector<engine::Argv>& effects);

// Appends the effects of the batch `next` to the batch in *batch, so that
// applying the result equals applying *batch and then `next` (group commit
// merges queued writes into one record this way). False, with *batch
// unchanged, when either version prefix is malformed or the two batches
// come from different engine versions.
bool AppendEffectBatch(std::string* batch, Slice next);

// Decodes a whole payload without applying it. False when malformed.
bool DecodeEffectBatch(Slice payload, std::string* engine_version,
                       std::vector<engine::Argv>* effects);

// Decodes one payload and applies every effect to the engine. False on a
// malformed payload; effects already applied stay applied (the payload is
// trusted once its frame CRC passed, so this only trips on version skew or
// producer bugs).
bool ApplyEffectBatch(engine::Engine* engine, Slice payload, uint64_t now_ms);

// Applies one committed log entry to `engine` and advances the running
// CRC64 `*chain` over kData payloads. Every kData payload is folded in,
// one that does not decode too (its effects before the bad byte stay
// applied), so the chain always matches the one the primary logged. A
// kChecksum entry passes only if its payload is exactly Fixed64(*chain).
// Corruption naming the index otherwise; other record types are OK and
// change nothing. *effects, when given, gets the number of effects applied,
// and *engine_version a kData payload's engine version.
Status ReplayEntry(const txlog::LogEntry& entry, uint64_t now_ms,
                   engine::Engine* engine, uint64_t* chain,
                   size_t* effects = nullptr,
                   std::string* engine_version = nullptr);

}  // namespace memdb::replication

#endif  // MEMDB_REPLICATION_EFFECT_BATCH_H_
