// String command family: GET/SET and friends, counters, ranges.

#include <algorithm>

#include "engine/commands_common.h"
#include "engine/engine.h"

namespace memdb::engine {
namespace {

using resp::Value;

// Largest string a command may build (Redis' proto-max-bulk-len default).
constexpr uint64_t kMaxStringBytes = 512ull << 20;

Keyspace::Entry* GetOrCreateString(Engine& e, const std::string& key,
                                   ExecContext& ctx, Value* err) {
  Keyspace::Entry* entry = e.LookupWrite(key, ctx);
  if (entry == nullptr) return e.keyspace().Put(key, ds::Value(std::string()));
  if (!entry->value.IsString()) {
    *err = ErrWrongType();
    return nullptr;
  }
  return entry;
}

Value CmdGet(Engine& e, const Argv& argv, ExecContext& ctx) {
  Value err = Value::Null();
  Keyspace::Entry* entry =
      FetchTyped(e, argv[1], ds::ValueType::kString, ctx, false, &err);
  if (err.IsError()) return err;
  if (entry == nullptr) return Value::Null();
  return Value::Bulk(entry->value.str());
}

// SET key value [NX|XX] [GET] [EX s|PX ms|EXAT s|PXAT ms|KEEPTTL]
Value CmdSet(Engine& e, const Argv& argv, ExecContext& ctx) {
  const std::string& key = argv[1];
  const std::string& value = argv[2];
  bool nx = false, xx = false, get = false, keepttl = false;
  uint64_t expire_at_ms = 0;
  bool has_expiry = false;
  for (size_t i = 3; i < argv.size(); ++i) {
    const std::string opt = Engine::Upper(argv[i]);
    auto need_arg = [&](uint64_t multiplier, bool absolute) -> bool {
      if (i + 1 >= argv.size()) return false;
      int64_t n;
      if (!ParseInt64(argv[++i], &n) || (!absolute && n <= 0)) return false;
      expire_at_ms = absolute ? static_cast<uint64_t>(n) * multiplier
                              : ctx.now_ms + static_cast<uint64_t>(n) * multiplier;
      has_expiry = true;
      return true;
    };
    if (opt == "NX") {
      nx = true;
    } else if (opt == "XX") {
      xx = true;
    } else if (opt == "GET") {
      get = true;
    } else if (opt == "KEEPTTL") {
      keepttl = true;
    } else if (opt == "EX") {
      if (!need_arg(1000, false)) return ErrSyntax();
    } else if (opt == "PX") {
      if (!need_arg(1, false)) return ErrSyntax();
    } else if (opt == "EXAT") {
      if (!need_arg(1000, true)) return ErrSyntax();
    } else if (opt == "PXAT") {
      if (!need_arg(1, true)) return ErrSyntax();
    } else {
      return ErrSyntax();
    }
  }
  if (nx && xx) return ErrSyntax();

  Keyspace::Entry* existing = e.LookupWrite(key, ctx);
  Value prior = Value::Null();
  if (get) {
    if (existing != nullptr && !existing->value.IsString())
      return ErrWrongType();
    if (existing != nullptr) prior = Value::Bulk(existing->value.str());
  }
  if ((nx && existing != nullptr) || (xx && existing == nullptr)) {
    return get ? prior : Value::Null();
  }

  const uint64_t kept_expiry =
      (keepttl && existing != nullptr) ? existing->expire_at_ms() : 0;
  e.keyspace().Put(key, ds::Value(value),
                   has_expiry ? expire_at_ms : kept_expiry);
  e.Touch(key, ctx);

  // Deterministic effect: NX/XX/GET resolved, relative expiries made
  // absolute.
  Argv effect = {"SET", key, value};
  if (has_expiry) {
    effect.push_back("PXAT");
    effect.push_back(std::to_string(expire_at_ms));
  } else if (keepttl) {
    effect.push_back("KEEPTTL");
  }
  ctx.effects.push_back(std::move(effect));
  ctx.effects_overridden = true;
  return get ? prior : Value::Ok();
}

Value CmdSetNx(Engine& e, const Argv& argv, ExecContext& ctx) {
  if (e.LookupWrite(argv[1], ctx) != nullptr) return Value::Integer(0);
  e.keyspace().Put(argv[1], ds::Value(argv[2]));
  e.Touch(argv[1], ctx);
  return Value::Integer(1);
}

Value SetWithTtl(Engine& e, const Argv& argv, ExecContext& ctx,
                 uint64_t multiplier) {
  int64_t ttl;
  if (!ParseInt64(argv[2], &ttl)) return ErrNotInt();
  if (ttl <= 0) {
    return Value::Error("ERR invalid expire time in '" +
                        Engine::Upper(argv[0]) + "' command");
  }
  const uint64_t expire_at =
      ctx.now_ms + static_cast<uint64_t>(ttl) * multiplier;
  e.keyspace().Put(argv[1], ds::Value(argv[3]), expire_at);
  e.Touch(argv[1], ctx);
  ctx.effects.push_back(
      {"SET", argv[1], argv[3], "PXAT", std::to_string(expire_at)});
  ctx.effects_overridden = true;
  return Value::Ok();
}

Value CmdSetEx(Engine& e, const Argv& argv, ExecContext& ctx) {
  return SetWithTtl(e, argv, ctx, 1000);
}

Value CmdPSetEx(Engine& e, const Argv& argv, ExecContext& ctx) {
  return SetWithTtl(e, argv, ctx, 1);
}

Value CmdGetSet(Engine& e, const Argv& argv, ExecContext& ctx) {
  Keyspace::Entry* existing = e.LookupWrite(argv[1], ctx);
  if (existing != nullptr && !existing->value.IsString())
    return ErrWrongType();
  Value prior = existing == nullptr ? Value::Null()
                                    : Value::Bulk(existing->value.str());
  e.keyspace().Put(argv[1], ds::Value(argv[2]));
  e.Touch(argv[1], ctx);
  ctx.effects.push_back({"SET", argv[1], argv[2]});
  ctx.effects_overridden = true;
  return prior;
}

Value CmdGetDel(Engine& e, const Argv& argv, ExecContext& ctx) {
  Keyspace::Entry* existing = e.LookupWrite(argv[1], ctx);
  if (existing == nullptr) return Value::Null();
  if (!existing->value.IsString()) return ErrWrongType();
  Value prior = Value::Bulk(existing->value.str());
  e.keyspace().Erase(argv[1]);
  ctx.dirty_keys.push_back(argv[1]);
  ctx.effects.push_back({"DEL", argv[1]});
  ctx.effects_overridden = true;
  return prior;
}

Value CmdAppend(Engine& e, const Argv& argv, ExecContext& ctx) {
  Value err = Value::Null();
  Keyspace::Entry* entry = GetOrCreateString(e, argv[1], ctx, &err);
  if (entry == nullptr) return err;
  entry->value.str().append(argv[2]);
  e.Touch(argv[1], ctx);
  return Value::Integer(static_cast<int64_t>(entry->value.str().size()));
}

Value CmdStrlen(Engine& e, const Argv& argv, ExecContext& ctx) {
  Value err = Value::Null();
  Keyspace::Entry* entry =
      FetchTyped(e, argv[1], ds::ValueType::kString, ctx, false, &err);
  if (err.IsError()) return err;
  return Value::Integer(
      entry == nullptr ? 0 : static_cast<int64_t>(entry->value.str().size()));
}

Value IncrDecrBy(Engine& e, const Argv& argv, ExecContext& ctx,
                 int64_t delta) {
  Value err = Value::Null();
  Keyspace::Entry* entry =
      FetchTyped(e, argv[1], ds::ValueType::kString, ctx, true, &err);
  if (err.IsError()) return err;
  int64_t current = 0;
  if (entry != nullptr && !ParseInt64(entry->value.str(), &current)) {
    return ErrNotInt();
  }
  // Overflow check.
  if ((delta > 0 && current > INT64_MAX - delta) ||
      (delta < 0 && current < INT64_MIN - delta)) {
    return Value::Error("ERR increment or decrement would overflow");
  }
  const int64_t result = current + delta;
  if (entry == nullptr) {
    e.keyspace().Put(argv[1], ds::Value(std::to_string(result)));
  } else {
    entry->value.str() = std::to_string(result);
  }
  e.Touch(argv[1], ctx);
  return Value::Integer(result);
}

Value CmdIncr(Engine& e, const Argv& argv, ExecContext& ctx) {
  return IncrDecrBy(e, argv, ctx, 1);
}

Value CmdDecr(Engine& e, const Argv& argv, ExecContext& ctx) {
  return IncrDecrBy(e, argv, ctx, -1);
}

Value CmdIncrBy(Engine& e, const Argv& argv, ExecContext& ctx) {
  int64_t delta;
  if (!ParseInt64(argv[2], &delta)) return ErrNotInt();
  return IncrDecrBy(e, argv, ctx, delta);
}

Value CmdDecrBy(Engine& e, const Argv& argv, ExecContext& ctx) {
  int64_t delta;
  if (!ParseInt64(argv[2], &delta)) return ErrNotInt();
  if (delta == INT64_MIN) return ErrNotInt();
  return IncrDecrBy(e, argv, ctx, -delta);
}

Value CmdIncrByFloat(Engine& e, const Argv& argv, ExecContext& ctx) {
  double delta;
  if (!ParseDouble(argv[2], &delta)) return ErrNotFloat();
  Value err = Value::Null();
  Keyspace::Entry* entry =
      FetchTyped(e, argv[1], ds::ValueType::kString, ctx, true, &err);
  if (err.IsError()) return err;
  double current = 0;
  if (entry != nullptr && !ParseDouble(entry->value.str(), &current)) {
    return ErrNotFloat();
  }
  const double result = current + delta;
  if (std::isnan(result) || std::isinf(result)) {
    return Value::Error("ERR increment would produce NaN or Infinity");
  }
  const std::string formatted = FormatDouble(result);
  if (entry == nullptr) {
    e.keyspace().Put(argv[1], ds::Value(formatted));
  } else {
    entry->value.str() = formatted;
  }
  e.Touch(argv[1], ctx);
  // Float arithmetic replicated by value, not by operation (Redis does the
  // same to keep replicas bit-identical).
  ctx.effects.push_back({"SET", argv[1], formatted});
  ctx.effects_overridden = true;
  return Value::Bulk(formatted);
}

Value CmdMSet(Engine& e, const Argv& argv, ExecContext& ctx) {
  if (argv.size() % 2 != 1) {
    return Value::Error("ERR wrong number of arguments for 'MSET' command");
  }
  for (size_t i = 1; i + 1 < argv.size(); i += 2) {
    e.keyspace().Put(argv[i], ds::Value(argv[i + 1]));
    e.Touch(argv[i], ctx);
  }
  return Value::Ok();
}

Value CmdMSetNx(Engine& e, const Argv& argv, ExecContext& ctx) {
  if (argv.size() % 2 != 1) {
    return Value::Error("ERR wrong number of arguments for 'MSETNX' command");
  }
  for (size_t i = 1; i + 1 < argv.size(); i += 2) {
    if (e.LookupWrite(argv[i], ctx) != nullptr) return Value::Integer(0);
  }
  for (size_t i = 1; i + 1 < argv.size(); i += 2) {
    e.keyspace().Put(argv[i], ds::Value(argv[i + 1]));
    e.Touch(argv[i], ctx);
  }
  return Value::Integer(1);
}

Value CmdMGet(Engine& e, const Argv& argv, ExecContext& ctx) {
  std::vector<Value> out;
  out.reserve(argv.size() - 1);
  for (size_t i = 1; i < argv.size(); ++i) {
    Keyspace::Entry* entry = e.LookupRead(argv[i], ctx);
    if (entry == nullptr || !entry->value.IsString()) {
      out.push_back(Value::Null());
    } else {
      out.push_back(Value::Bulk(entry->value.str()));
    }
  }
  return Value::Array(std::move(out));
}

Value CmdSetRange(Engine& e, const Argv& argv, ExecContext& ctx) {
  int64_t offset;
  if (!ParseInt64(argv[2], &offset) || offset < 0) {
    return Value::Error("ERR offset is out of range");
  }
  if (argv[3].empty()) {
    // Zero-length writes never create or extend the key.
    Keyspace::Entry* existing = e.LookupRead(argv[1], ctx);
    if (existing != nullptr && !existing->value.IsString())
      return ErrWrongType();
    return Value::Integer(
        existing == nullptr
            ? 0
            : static_cast<int64_t>(existing->value.str().size()));
  }
  // Redis' proto-max-bulk-len check, before the key is created and before
  // anything is allocated: a huge offset must not reach resize().
  if (argv[3].size() > kMaxStringBytes ||
      static_cast<uint64_t>(offset) > kMaxStringBytes - argv[3].size()) {
    Keyspace::Entry* existing = e.LookupRead(argv[1], ctx);
    if (existing != nullptr && !existing->value.IsString())
      return ErrWrongType();
    return Value::Error(
        "ERR string exceeds maximum allowed size (proto-max-bulk-len)");
  }
  Value err = Value::Null();
  Keyspace::Entry* entry = GetOrCreateString(e, argv[1], ctx, &err);
  if (entry == nullptr) return err;
  std::string& s = entry->value.str();
  const size_t end = static_cast<size_t>(offset) + argv[3].size();
  if (s.size() < end) s.resize(end, '\0');
  s.replace(static_cast<size_t>(offset), argv[3].size(), argv[3]);
  e.Touch(argv[1], ctx);
  return Value::Integer(static_cast<int64_t>(s.size()));
}

Value CmdGetRange(Engine& e, const Argv& argv, ExecContext& ctx) {
  Value err = Value::Null();
  Keyspace::Entry* entry =
      FetchTyped(e, argv[1], ds::ValueType::kString, ctx, false, &err);
  if (err.IsError()) return err;
  if (entry == nullptr) return Value::Bulk("");
  int64_t start, stop;
  if (!ParseInt64(argv[2], &start) || !ParseInt64(argv[3], &stop)) {
    return ErrNotInt();
  }
  const std::string& s = entry->value.str();
  const int64_t n = static_cast<int64_t>(s.size());
  start = NormalizeIndex(start, s.size());
  stop = NormalizeIndex(stop, s.size());
  if (start < 0) start = 0;
  if (stop >= n) stop = n - 1;
  if (n == 0 || start > stop) return Value::Bulk("");
  return Value::Bulk(s.substr(static_cast<size_t>(start),
                              static_cast<size_t>(stop - start + 1)));
}

}  // namespace

void RegisterStringCommands(Engine* e,
                            const std::function<void(CommandSpec)>& add) {
  add({"GET", 2, false, 1, 1, 1, CmdGet});
  add({"SET", -3, true, 1, 1, 1, CmdSet});
  add({"SETNX", 3, true, 1, 1, 1, CmdSetNx});
  add({"SETEX", 4, true, 1, 1, 1, CmdSetEx});
  add({"PSETEX", 4, true, 1, 1, 1, CmdPSetEx});
  add({"GETSET", 3, true, 1, 1, 1, CmdGetSet});
  add({"GETDEL", 2, true, 1, 1, 1, CmdGetDel, /*deny_oom=*/false});
  add({"APPEND", 3, true, 1, 1, 1, CmdAppend});
  add({"STRLEN", 2, false, 1, 1, 1, CmdStrlen});
  add({"INCR", 2, true, 1, 1, 1, CmdIncr});
  add({"DECR", 2, true, 1, 1, 1, CmdDecr});
  add({"INCRBY", 3, true, 1, 1, 1, CmdIncrBy});
  add({"DECRBY", 3, true, 1, 1, 1, CmdDecrBy});
  add({"INCRBYFLOAT", 3, true, 1, 1, 1, CmdIncrByFloat});
  add({"MSET", -3, true, 1, -1, 2, CmdMSet});
  add({"MSETNX", -3, true, 1, -1, 2, CmdMSetNx});
  add({"MGET", -2, false, 1, -1, 1, CmdMGet});
  add({"SETRANGE", 4, true, 1, 1, 1, CmdSetRange});
  add({"GETRANGE", 4, false, 1, 1, 1, CmdGetRange});
}

}  // namespace memdb::engine
