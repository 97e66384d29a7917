#include "engine/snapshot.h"

#include <map>

#include "common/coding.h"
#include "common/crc.h"

namespace memdb::engine {

namespace {

constexpr char kMagic[] = "MDBS";
constexpr uint32_t kVersion = 1;

}  // namespace

void SerializeValue(const ds::Value& v, std::string* out) {
  out->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case ds::ValueType::kString:
      PutLengthPrefixed(out, v.str());
      break;
    case ds::ValueType::kList: {
      const auto items = v.list().ToVector();
      PutVarint64(out, items.size());
      for (const auto& s : items) PutLengthPrefixed(out, s);
      break;
    }
    case ds::ValueType::kHash: {
      const auto items = v.hash().Items();
      PutVarint64(out, items.size());
      for (const auto& [f, val] : items) {
        PutLengthPrefixed(out, f);
        PutLengthPrefixed(out, val);
      }
      break;
    }
    case ds::ValueType::kSet: {
      const auto members = v.set().Members();
      PutVarint64(out, members.size());
      for (const auto& m : members) PutLengthPrefixed(out, m);
      break;
    }
    case ds::ValueType::kZSet: {
      std::vector<ds::ScoredMember> items;
      if (!v.zset().Empty()) {
        v.zset().RangeByRank(0, v.zset().Size() - 1, false, &items);
      }
      PutVarint64(out, items.size());
      for (const auto& sm : items) {
        PutLengthPrefixed(out, sm.member);
        PutDouble(out, sm.score);
      }
      break;
    }
  }
}

Status DeserializeValue(Decoder* dec, ds::Value* out) {
  uint64_t count = 0;
  // The type tag is one raw byte in [0, 4], which decodes identically as a
  // varint.
  uint64_t type_raw;
  if (!dec->GetVarint64(&type_raw) || type_raw > 4) {
    return Status::Corruption("bad value type tag");
  }
  const auto type = static_cast<ds::ValueType>(type_raw);
  switch (type) {
    case ds::ValueType::kString: {
      std::string s;
      if (!dec->GetLengthPrefixed(&s))
        return Status::Corruption("truncated string value");
      *out = ds::Value(std::move(s));
      return Status::OK();
    }
    case ds::ValueType::kList: {
      if (!dec->GetVarint64(&count))
        return Status::Corruption("truncated list count");
      ds::QuickList l;
      std::string s;
      for (uint64_t i = 0; i < count; ++i) {
        if (!dec->GetLengthPrefixed(&s))
          return Status::Corruption("truncated list element");
        l.PushBack(std::move(s));
      }
      *out = ds::Value(std::move(l));
      return Status::OK();
    }
    case ds::ValueType::kHash: {
      if (!dec->GetVarint64(&count))
        return Status::Corruption("truncated hash count");
      ds::Hash h;
      std::string f, v;
      for (uint64_t i = 0; i < count; ++i) {
        if (!dec->GetLengthPrefixed(&f) || !dec->GetLengthPrefixed(&v))
          return Status::Corruption("truncated hash entry");
        h.Set(f, std::move(v));
      }
      *out = ds::Value(std::move(h));
      return Status::OK();
    }
    case ds::ValueType::kSet: {
      if (!dec->GetVarint64(&count))
        return Status::Corruption("truncated set count");
      ds::Set s;
      std::string m;
      for (uint64_t i = 0; i < count; ++i) {
        if (!dec->GetLengthPrefixed(&m))
          return Status::Corruption("truncated set member");
        s.Add(m);
      }
      *out = ds::Value(std::move(s));
      return Status::OK();
    }
    case ds::ValueType::kZSet: {
      if (!dec->GetVarint64(&count))
        return Status::Corruption("truncated zset count");
      ds::ZSet z;
      std::string m;
      double score;
      for (uint64_t i = 0; i < count; ++i) {
        if (!dec->GetLengthPrefixed(&m) || !dec->GetDouble(&score))
          return Status::Corruption("truncated zset entry");
        z.Add(m, score);
      }
      *out = ds::Value(std::move(z));
      return Status::OK();
    }
  }
  return Status::Corruption("unreachable value type");
}

namespace {

Status ParseHeader(Decoder* dec, SnapshotMeta* meta) {
  std::string magic_str;
  if (dec->Remaining() < 4) return Status::Corruption("snapshot too short");
  // Magic is 4 raw ASCII bytes (each < 0x80, so varint-decoding one at a
  // time reads exactly one byte each).
  for (int i = 0; i < 4; ++i) {
    uint64_t b;
    // Raw bytes are < 128 so varint decoding reads exactly one byte each.
    if (!dec->GetVarint64(&b)) return Status::Corruption("bad magic");
    magic_str.push_back(static_cast<char>(b));
  }
  if (magic_str != kMagic) return Status::Corruption("bad snapshot magic");
  uint32_t version;
  if (!dec->GetFixed32(&version) || version != kVersion) {
    return Status::Corruption("unsupported snapshot version");
  }
  if (!dec->GetLengthPrefixed(&meta->engine_version) ||
      !dec->GetFixed64(&meta->log_position) ||
      !dec->GetFixed64(&meta->log_running_checksum) ||
      !dec->GetFixed64(&meta->created_at_ms)) {
    return Status::Corruption("truncated snapshot metadata");
  }
  return Status::OK();
}

}  // namespace

std::string SerializeSnapshot(const Keyspace& keyspace,
                              const SnapshotMeta& meta) {
  std::string out;
  out.append(kMagic, 4);
  PutFixed32(&out, kVersion);
  PutLengthPrefixed(&out, meta.engine_version);
  PutFixed64(&out, meta.log_position);
  PutFixed64(&out, meta.log_running_checksum);
  PutFixed64(&out, meta.created_at_ms);

  // Deterministic body: keys in sorted order so that two snapshots of
  // identical logical state are byte-identical.
  std::map<std::string, const Keyspace::Entry*> ordered;
  keyspace.ForEach([&](const std::string& key, const Keyspace::Entry& e) {
    ordered.emplace(key, &e);
  });
  PutVarint64(&out, ordered.size());
  for (const auto& [key, entry] : ordered) {
    PutLengthPrefixed(&out, key);
    PutFixed64(&out, entry->expire_at_ms());
    SerializeValue(entry->value, &out);
  }
  PutFixed64(&out, Crc64(0, out.data(), out.size()));
  return out;
}

Status SerializeRehearsedSnapshot(const Keyspace& keyspace,
                                  const SnapshotMeta& meta, std::string* blob) {
  *blob = SerializeSnapshot(keyspace, meta);
  Keyspace scratch;
  SnapshotMeta rehearsed;
  const Status s = DeserializeSnapshot(Slice(*blob), &scratch, &rehearsed);
  if (s.ok()) return s;
  return Status::Corruption("snapshot failed restore rehearsal: " +
                            s.ToString());
}

Status ReadSnapshotMeta(Slice blob, SnapshotMeta* meta) {
  Decoder dec(blob);
  return ParseHeader(&dec, meta);
}

Status DeserializeSnapshot(Slice blob, Keyspace* keyspace,
                           SnapshotMeta* meta) {
  if (blob.size() < 12) return Status::Corruption("snapshot too short");
  // Verify the trailing data checksum first.
  Decoder footer(Slice(blob.data() + blob.size() - 8, 8));
  uint64_t stored_crc;
  footer.GetFixed64(&stored_crc);
  const uint64_t actual_crc = Crc64(0, blob.data(), blob.size() - 8);
  if (stored_crc != actual_crc) {
    return Status::Corruption("snapshot data checksum mismatch");
  }

  Decoder dec(Slice(blob.data(), blob.size() - 8));
  MEMDB_RETURN_IF_ERROR(ParseHeader(&dec, meta));
  uint64_t count;
  if (!dec.GetVarint64(&count))
    return Status::Corruption("truncated key count");
  keyspace->Clear();
  std::string key;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t expire_at_ms;
    if (!dec.GetLengthPrefixed(&key) || !dec.GetFixed64(&expire_at_ms)) {
      return Status::Corruption("truncated snapshot entry");
    }
    ds::Value value{std::string()};
    MEMDB_RETURN_IF_ERROR(DeserializeValue(&dec, &value));
    keyspace->Put(key, std::move(value), expire_at_ms);
  }
  if (!dec.Empty()) return Status::Corruption("trailing bytes in snapshot");
  return Status::OK();
}

}  // namespace memdb::engine
