// Generic key-space commands: existence, expiry, rename, scan, and the
// DUMP/RESTORE pair that slot migration is built on (§5.2).

#include <algorithm>

#include "common/crc.h"
#include "engine/commands_common.h"
#include "engine/engine.h"
#include "engine/snapshot.h"

namespace memdb::engine {
namespace {

using resp::Value;

Value CmdDel(Engine& e, const Argv& argv, ExecContext& ctx) {
  int64_t removed = 0;
  for (size_t i = 1; i < argv.size(); ++i) {
    if (e.LookupWrite(argv[i], ctx) != nullptr && e.keyspace().Erase(argv[i])) {
      ctx.dirty_keys.push_back(argv[i]);
      ++removed;
    }
  }
  return Value::Integer(removed);
}

Value CmdExists(Engine& e, const Argv& argv, ExecContext& ctx) {
  int64_t count = 0;
  for (size_t i = 1; i < argv.size(); ++i) {
    if (e.LookupRead(argv[i], ctx) != nullptr) ++count;
  }
  return Value::Integer(count);
}

Value CmdType(Engine& e, const Argv& argv, ExecContext& ctx) {
  Keyspace::Entry* entry = e.LookupRead(argv[1], ctx);
  if (entry == nullptr) return Value::Simple("none");
  return Value::Simple(ds::ValueTypeName(entry->value.type()));
}

// EXPIRE/PEXPIRE/EXPIREAT/PEXPIREAT all normalize to an absolute
// millisecond deadline and replicate as PEXPIREAT (§3.1 determinism).
Value GenericExpire(Engine& e, const Argv& argv, ExecContext& ctx,
                    uint64_t multiplier, bool absolute) {
  int64_t n;
  if (!ParseInt64(argv[2], &n)) return ErrNotInt();
  Keyspace::Entry* entry = e.LookupWrite(argv[1], ctx);
  if (entry == nullptr) return Value::Integer(0);
  int64_t deadline_ms =
      absolute ? n * static_cast<int64_t>(multiplier)
               : static_cast<int64_t>(ctx.now_ms) +
                     n * static_cast<int64_t>(multiplier);
  if (deadline_ms <= static_cast<int64_t>(ctx.now_ms)) {
    // Expiry in the past deletes immediately; replicated as DEL.
    e.keyspace().Erase(argv[1]);
    ctx.dirty_keys.push_back(argv[1]);
    ctx.effects.push_back({"DEL", argv[1]});
    ctx.effects_overridden = true;
    return Value::Integer(1);
  }
  e.keyspace().SetExpiry(argv[1], static_cast<uint64_t>(deadline_ms));
  ctx.dirty_keys.push_back(argv[1]);
  ctx.effects.push_back({"PEXPIREAT", argv[1], std::to_string(deadline_ms)});
  ctx.effects_overridden = true;
  return Value::Integer(1);
}

Value CmdExpire(Engine& e, const Argv& argv, ExecContext& ctx) {
  return GenericExpire(e, argv, ctx, 1000, false);
}
Value CmdPExpire(Engine& e, const Argv& argv, ExecContext& ctx) {
  return GenericExpire(e, argv, ctx, 1, false);
}
Value CmdExpireAt(Engine& e, const Argv& argv, ExecContext& ctx) {
  return GenericExpire(e, argv, ctx, 1000, true);
}
Value CmdPExpireAt(Engine& e, const Argv& argv, ExecContext& ctx) {
  return GenericExpire(e, argv, ctx, 1, true);
}

Value GenericTtl(Engine& e, const Argv& argv, ExecContext& ctx,
                 uint64_t divisor) {
  Keyspace::Entry* entry = e.LookupRead(argv[1], ctx);
  if (entry == nullptr) return Value::Integer(-2);
  if (entry->expire_at_ms() == 0) return Value::Integer(-1);
  const uint64_t remaining_ms = entry->expire_at_ms() - ctx.now_ms;
  return Value::Integer(static_cast<int64_t>(remaining_ms / divisor));
}

Value CmdTtl(Engine& e, const Argv& argv, ExecContext& ctx) {
  return GenericTtl(e, argv, ctx, 1000);
}
Value CmdPTtl(Engine& e, const Argv& argv, ExecContext& ctx) {
  return GenericTtl(e, argv, ctx, 1);
}

Value CmdPersist(Engine& e, const Argv& argv, ExecContext& ctx) {
  Keyspace::Entry* entry = e.LookupWrite(argv[1], ctx);
  if (entry == nullptr || entry->expire_at_ms() == 0) return Value::Integer(0);
  e.keyspace().SetExpiry(argv[1], 0);
  ctx.dirty_keys.push_back(argv[1]);
  return Value::Integer(1);
}

// Glob-style matcher supporting * ? [abc] and backslash escapes.
bool GlobMatch(const std::string& pattern, const std::string& str,
               size_t p = 0, size_t s = 0) {
  while (p < pattern.size()) {
    switch (pattern[p]) {
      case '*': {
        while (p + 1 < pattern.size() && pattern[p + 1] == '*') ++p;
        if (p + 1 == pattern.size()) return true;
        for (size_t i = s; i <= str.size(); ++i) {
          if (GlobMatch(pattern, str, p + 1, i)) return true;
        }
        return false;
      }
      case '?':
        if (s == str.size()) return false;
        ++p;
        ++s;
        break;
      case '[': {
        if (s == str.size()) return false;
        size_t q = p + 1;
        bool negate = q < pattern.size() && pattern[q] == '^';
        if (negate) ++q;
        bool matched = false;
        while (q < pattern.size() && pattern[q] != ']') {
          if (q + 2 < pattern.size() && pattern[q + 1] == '-' &&
              pattern[q + 2] != ']') {
            if (pattern[q] <= str[s] && str[s] <= pattern[q + 2])
              matched = true;
            q += 3;
          } else {
            if (pattern[q] == str[s]) matched = true;
            ++q;
          }
        }
        if (q == pattern.size()) return false;  // unterminated class
        if (matched == negate) return false;
        p = q + 1;
        ++s;
        break;
      }
      case '\\':
        if (p + 1 < pattern.size()) ++p;
        [[fallthrough]];
      default:
        if (s == str.size() || pattern[p] != str[s]) return false;
        ++p;
        ++s;
        break;
    }
  }
  return s == str.size();
}

Value CmdKeys(Engine& e, const Argv& argv, ExecContext& ctx) {
  std::vector<Value> out;
  e.keyspace().ForEach([&](const std::string& key, const Keyspace::Entry& en) {
    if (e.keyspace().IsLogicallyExpired(en, ctx.now_ms)) return;
    if (GlobMatch(argv[1], key)) out.push_back(Value::Bulk(key));
  });
  return Value::Array(std::move(out));
}

// SCAN cursor [MATCH pattern] [COUNT n]. Simplified guarantee: a full
// iteration started on a quiescent keyspace visits every key exactly once.
Value CmdScan(Engine& e, const Argv& argv, ExecContext& ctx) {
  int64_t cursor;
  if (!ParseInt64(argv[1], &cursor) || cursor < 0) return ErrNotInt();
  std::string pattern = "*";
  int64_t count = 10;
  for (size_t i = 2; i < argv.size(); i += 2) {
    if (i + 1 >= argv.size()) return ErrSyntax();
    const std::string opt = Engine::Upper(argv[i]);
    if (opt == "MATCH") {
      pattern = argv[i + 1];
    } else if (opt == "COUNT") {
      if (!ParseInt64(argv[i + 1], &count) || count <= 0) return ErrSyntax();
    } else {
      return ErrSyntax();
    }
  }
  // Iterate keys in sorted order; the cursor is the rank of the next key.
  std::vector<std::string> keys;
  e.keyspace().ForEach([&](const std::string& key, const Keyspace::Entry& en) {
    if (!e.keyspace().IsLogicallyExpired(en, ctx.now_ms)) keys.push_back(key);
  });
  std::sort(keys.begin(), keys.end());
  std::vector<Value> batch;
  size_t i = static_cast<size_t>(cursor);
  for (; i < keys.size() && batch.size() < static_cast<size_t>(count); ++i) {
    if (GlobMatch(pattern, keys[i])) batch.push_back(Value::Bulk(keys[i]));
  }
  const int64_t next = i >= keys.size() ? 0 : static_cast<int64_t>(i);
  return Value::Array({Value::Bulk(std::to_string(next)),
                       Value::Array(std::move(batch))});
}

Value CmdRandomKey(Engine& e, const Argv& argv, ExecContext& ctx) {
  if (ctx.rng == nullptr) return Value::Error("ERR no entropy source");
  for (int attempt = 0; attempt < 16; ++attempt) {
    std::string key = e.keyspace().RandomKey(ctx.rng->Next());
    if (key.empty()) return Value::Null();
    Keyspace::Entry* entry = e.keyspace().FindRaw(key);
    if (entry != nullptr &&
        !e.keyspace().IsLogicallyExpired(*entry, ctx.now_ms)) {
      return Value::Bulk(key);
    }
  }
  return Value::Null();
}

Value CmdRename(Engine& e, const Argv& argv, ExecContext& ctx) {
  if (e.LookupWrite(argv[1], ctx) == nullptr) return ErrNoSuchKey();
  e.keyspace().Rename(argv[1], argv[2]);
  ctx.dirty_keys.push_back(argv[1]);
  ctx.dirty_keys.push_back(argv[2]);
  return Value::Ok();
}

Value CmdRenameNx(Engine& e, const Argv& argv, ExecContext& ctx) {
  if (e.LookupWrite(argv[1], ctx) == nullptr) return ErrNoSuchKey();
  if (e.LookupWrite(argv[2], ctx) != nullptr) return Value::Integer(0);
  e.keyspace().Rename(argv[1], argv[2]);
  ctx.dirty_keys.push_back(argv[1]);
  ctx.dirty_keys.push_back(argv[2]);
  return Value::Integer(1);
}

// DUMP key -> opaque serialized value (with a trailing CRC64), nil if
// missing. TTL is not included, matching Redis semantics.
Value CmdDump(Engine& e, const Argv& argv, ExecContext& ctx) {
  Keyspace::Entry* entry = e.LookupRead(argv[1], ctx);
  if (entry == nullptr) return Value::Null();
  std::string out;
  SerializeValue(entry->value, &out);
  PutFixed64(&out, Crc64(0, out.data(), out.size()));
  return Value::Bulk(std::move(out));
}

// RESTORE key ttl-ms serialized [REPLACE] [ABSTTL]
Value CmdRestore(Engine& e, const Argv& argv, ExecContext& ctx) {
  int64_t ttl;
  if (!ParseInt64(argv[2], &ttl) || ttl < 0) {
    return Value::Error("ERR Invalid TTL value, must be >= 0");
  }
  bool replace = false, absttl = false;
  for (size_t i = 4; i < argv.size(); ++i) {
    const std::string opt = Engine::Upper(argv[i]);
    if (opt == "REPLACE") {
      replace = true;
    } else if (opt == "ABSTTL") {
      absttl = true;
    } else {
      return ErrSyntax();
    }
  }
  if (!replace && e.LookupWrite(argv[1], ctx) != nullptr) {
    return Value::Error("BUSYKEY Target key name already exists");
  }
  const std::string& blob = argv[3];
  if (blob.size() < 8) {
    return Value::Error("ERR DUMP payload version or checksum are wrong");
  }
  Decoder crc_dec(Slice(blob.data() + blob.size() - 8, 8));
  uint64_t stored_crc;
  crc_dec.GetFixed64(&stored_crc);
  if (stored_crc != Crc64(0, blob.data(), blob.size() - 8)) {
    return Value::Error("ERR DUMP payload version or checksum are wrong");
  }
  Decoder dec(Slice(blob.data(), blob.size() - 8));
  ds::Value value{std::string()};
  if (!DeserializeValue(&dec, &value).ok() || !dec.Empty()) {
    return Value::Error("ERR Bad data format");
  }
  const uint64_t expire_at =
      ttl == 0 ? 0
               : (absttl ? static_cast<uint64_t>(ttl)
                         : ctx.now_ms + static_cast<uint64_t>(ttl));
  e.keyspace().Put(argv[1], std::move(value), expire_at);
  e.Touch(argv[1], ctx);
  // Deterministic effect: relative TTLs become absolute.
  Argv effect = {"RESTORE", argv[1], std::to_string(expire_at), argv[3],
                 "REPLACE", "ABSTTL"};
  ctx.effects.push_back(std::move(effect));
  ctx.effects_overridden = true;
  return Value::Ok();
}

Value CmdTouchCmd(Engine& e, const Argv& argv, ExecContext& ctx) {
  int64_t count = 0;
  for (size_t i = 1; i < argv.size(); ++i) {
    if (e.LookupRead(argv[i], ctx) != nullptr) ++count;
  }
  return Value::Integer(count);
}

}  // namespace

void RegisterKeyCommands(Engine* e,
                         const std::function<void(CommandSpec)>& add) {
  add({"DEL", -2, true, 1, -1, 1, CmdDel, /*deny_oom=*/false});
  add({"UNLINK", -2, true, 1, -1, 1, CmdDel, /*deny_oom=*/false});
  add({"EXISTS", -2, false, 1, -1, 1, CmdExists});
  add({"TYPE", 2, false, 1, 1, 1, CmdType});
  add({"EXPIRE", 3, true, 1, 1, 1, CmdExpire, /*deny_oom=*/false});
  add({"PEXPIRE", 3, true, 1, 1, 1, CmdPExpire, /*deny_oom=*/false});
  add({"EXPIREAT", 3, true, 1, 1, 1, CmdExpireAt, /*deny_oom=*/false});
  add({"PEXPIREAT", 3, true, 1, 1, 1, CmdPExpireAt, /*deny_oom=*/false});
  add({"TTL", 2, false, 1, 1, 1, CmdTtl});
  add({"PTTL", 2, false, 1, 1, 1, CmdPTtl});
  add({"PERSIST", 2, true, 1, 1, 1, CmdPersist, /*deny_oom=*/false});
  add({"KEYS", 2, false, 0, 0, 0, CmdKeys});
  add({"SCAN", -2, false, 0, 0, 0, CmdScan});
  add({"RANDOMKEY", 1, false, 0, 0, 0, CmdRandomKey});
  add({"RENAME", 3, true, 1, 2, 1, CmdRename});
  add({"RENAMENX", 3, true, 1, 2, 1, CmdRenameNx});
  add({"TOUCH", -2, false, 1, -1, 1, CmdTouchCmd});
  add({"DUMP", 2, false, 1, 1, 1, CmdDump});
  add({"RESTORE", -4, true, 1, 1, 1, CmdRestore});
}

}  // namespace memdb::engine
