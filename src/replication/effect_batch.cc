#include "replication/effect_batch.h"

#include "common/coding.h"
#include "common/crc.h"

namespace memdb::replication {

namespace {
// Hands each decoded effect to `fn`; false at the first malformed byte.
template <typename Fn>
bool ForEachEffect(Slice payload, std::string* engine_version, Fn&& fn) {
  Decoder dec(payload);
  if (!dec.GetLengthPrefixed(engine_version)) return false;
  while (!dec.Empty()) {
    uint64_t argc = 0;
    if (!dec.GetVarint64(&argc) || argc == 0) return false;
    engine::Argv argv(argc);
    for (uint64_t i = 0; i < argc; ++i) {
      if (!dec.GetLengthPrefixed(&argv[i])) return false;
    }
    fn(std::move(argv));
  }
  return true;
}
}  // namespace

std::string EncodeEffectBatch(const std::string& engine_version,
                              const std::vector<engine::Argv>& effects) {
  std::string out;
  PutLengthPrefixed(&out, engine_version);
  for (const engine::Argv& argv : effects) {
    PutVarint64(&out, argv.size());
    for (const std::string& a : argv) PutLengthPrefixed(&out, a);
  }
  return out;
}

bool AppendEffectBatch(std::string* batch, Slice next) {
  Decoder head(*batch);
  Decoder tail(next);
  Slice version;
  Slice next_version;
  if (!head.GetLengthPrefixed(&version) ||
      !tail.GetLengthPrefixed(&next_version) ||
      version.compare(next_version) != 0) {
    return false;
  }
  batch->append(next.data() + tail.Position(), tail.Remaining());
  return true;
}

bool DecodeEffectBatch(Slice payload, std::string* engine_version,
                       std::vector<engine::Argv>* effects) {
  return ForEachEffect(payload, engine_version, [&](engine::Argv argv) {
    effects->push_back(std::move(argv));
  });
}

bool ApplyEffectBatch(engine::Engine* engine, Slice payload, uint64_t now_ms) {
  std::string version;
  return ForEachEffect(payload, &version, [&](const engine::Argv& argv) {
    engine->Apply(argv, now_ms);
  });
}

Status ReplayEntry(const txlog::LogEntry& entry, uint64_t now_ms,
                   engine::Engine* engine, uint64_t* chain, size_t* effects,
                   std::string* engine_version) {
  if (effects != nullptr) *effects = 0;
  if (entry.record.type == txlog::RecordType::kChecksum) {
    std::string expected;
    PutFixed64(&expected, *chain);
    if (entry.record.payload == expected) return Status::OK();
    return Status::Corruption("log checksum chain mismatch at index " +
                              std::to_string(entry.index));
  }
  if (entry.record.type != txlog::RecordType::kData) return Status::OK();
  const Slice payload(entry.record.payload);
  std::string version;
  const bool ok = ForEachEffect(
      payload, engine_version != nullptr ? engine_version : &version,
      [&](const engine::Argv& argv) {
        engine->Apply(argv, now_ms);
        if (effects != nullptr) ++*effects;
      });
  *chain = Crc64(*chain, payload);
  if (ok) return Status::OK();
  return Status::Corruption("malformed effect batch at log index " +
                            std::to_string(entry.index));
}

}  // namespace memdb::replication
