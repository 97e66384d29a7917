// Extended command set: newer-generation Redis commands (GETEX, COPY,
// LPOS, SINTERCARD, ZRANGESTORE, the Z*STORE aggregations, random-member
// variants with counts, expiry introspection).

#include <algorithm>
#include <map>

#include "engine/commands_common.h"
#include "engine/engine.h"
#include "engine/snapshot.h"

namespace memdb::engine {
namespace {

using resp::Value;

// ------------------------------------------------------------- strings/keys

// GETEX key [EX s|PX ms|EXAT s|PXAT ms|PERSIST] — a GET that can also
// adjust expiry (replicated as PEXPIREAT / PERSIST).
Value CmdGetEx(Engine& e, const Argv& argv, ExecContext& ctx) {
  Value err = Value::Null();
  Keyspace::Entry* entry =
      FetchTyped(e, argv[1], ds::ValueType::kString, ctx, true, &err);
  if (err.IsError()) return err;
  if (entry == nullptr) return Value::Null();
  const Value reply = Value::Bulk(entry->value.str());

  if (argv.size() == 2) return reply;
  bool persist = false;
  uint64_t expire_at_ms = 0;
  bool has_expiry = false;
  for (size_t i = 2; i < argv.size(); ++i) {
    const std::string opt = Engine::Upper(argv[i]);
    if (opt == "PERSIST") {
      persist = true;
      continue;
    }
    if (i + 1 >= argv.size()) return ErrSyntax();
    int64_t n;
    if (!ParseInt64(argv[i + 1], &n)) return ErrSyntax();
    if (opt == "EX") {
      expire_at_ms = ctx.now_ms + static_cast<uint64_t>(n) * 1000;
    } else if (opt == "PX") {
      expire_at_ms = ctx.now_ms + static_cast<uint64_t>(n);
    } else if (opt == "EXAT") {
      expire_at_ms = static_cast<uint64_t>(n) * 1000;
    } else if (opt == "PXAT") {
      expire_at_ms = static_cast<uint64_t>(n);
    } else {
      return ErrSyntax();
    }
    has_expiry = true;
    ++i;
  }
  if (persist && entry->expire_at_ms() != 0) {
    e.keyspace().SetExpiry(argv[1], 0);
    ctx.dirty_keys.push_back(argv[1]);
    ctx.effects.push_back({"PERSIST", argv[1]});
    ctx.effects_overridden = true;
  } else if (has_expiry) {
    e.keyspace().SetExpiry(argv[1], expire_at_ms);
    ctx.dirty_keys.push_back(argv[1]);
    ctx.effects.push_back(
        {"PEXPIREAT", argv[1], std::to_string(expire_at_ms)});
    ctx.effects_overridden = true;
  }
  return reply;
}

// COPY src dst [REPLACE]
Value CmdCopy(Engine& e, const Argv& argv, ExecContext& ctx) {
  bool replace = false;
  if (argv.size() == 4) {
    if (Engine::Upper(argv[3]) != "REPLACE") return ErrSyntax();
    replace = true;
  } else if (argv.size() != 3) {
    return ErrSyntax();
  }
  Keyspace::Entry* src = e.LookupWrite(argv[1], ctx);
  if (src == nullptr) return Value::Integer(0);
  if (!replace && e.LookupWrite(argv[2], ctx) != nullptr) {
    return Value::Integer(0);
  }
  // Deep copy through the serialization path (structure-agnostic).
  std::string blob;
  SerializeValue(src->value, &blob);
  Decoder dec{Slice(blob)};
  ds::Value copy{std::string()};
  if (!DeserializeValue(&dec, &copy).ok()) {
    return Value::Error("ERR copy failed");
  }
  e.keyspace().Put(argv[2], std::move(copy), src->expire_at_ms());
  e.Touch(argv[2], ctx);
  return Value::Integer(1);
}

Value GenericExpireTime(Engine& e, const Argv& argv, ExecContext& ctx,
                        uint64_t divisor) {
  Keyspace::Entry* entry = e.LookupRead(argv[1], ctx);
  if (entry == nullptr) return Value::Integer(-2);
  if (entry->expire_at_ms() == 0) return Value::Integer(-1);
  return Value::Integer(static_cast<int64_t>(entry->expire_at_ms() / divisor));
}

Value CmdExpireTime(Engine& e, const Argv& argv, ExecContext& ctx) {
  return GenericExpireTime(e, argv, ctx, 1000);
}
Value CmdPExpireTime(Engine& e, const Argv& argv, ExecContext& ctx) {
  return GenericExpireTime(e, argv, ctx, 1);
}

// ------------------------------------------------------------------- lists

// LPOS key element [RANK r] [COUNT c]
Value CmdLPos(Engine& e, const Argv& argv, ExecContext& ctx) {
  int64_t rank = 1, count = -1;  // count -1 = single reply
  for (size_t i = 3; i + 1 < argv.size(); i += 2) {
    const std::string opt = Engine::Upper(argv[i]);
    if (opt == "RANK") {
      if (!ParseInt64(argv[i + 1], &rank) || rank == 0) {
        return Value::Error("ERR RANK can't be zero");
      }
    } else if (opt == "COUNT") {
      if (!ParseInt64(argv[i + 1], &count) || count < 0) {
        return Value::Error("ERR COUNT can't be negative");
      }
    } else {
      return ErrSyntax();
    }
  }
  const bool want_array = count >= 0;
  if (count == -1) count = 1;
  if (count == 0) count = INT64_MAX;

  Value err = Value::Null();
  Keyspace::Entry* entry =
      FetchTyped(e, argv[1], ds::ValueType::kList, ctx, false, &err);
  if (err.IsError()) return err;
  if (entry == nullptr) {
    return want_array ? Value::Array({}) : Value::Null();
  }
  const auto items = entry->value.list().ToVector();
  std::vector<Value> matches;
  int64_t to_skip = (rank > 0 ? rank : -rank) - 1;
  auto scan = [&](int64_t idx) {
    if (items[static_cast<size_t>(idx)] != argv[2]) return;
    if (to_skip > 0) {
      --to_skip;
      return;
    }
    if (static_cast<int64_t>(matches.size()) < count) {
      matches.push_back(Value::Integer(idx));
    }
  };
  if (rank > 0) {
    for (int64_t i = 0; i < static_cast<int64_t>(items.size()); ++i) scan(i);
  } else {
    for (int64_t i = static_cast<int64_t>(items.size()) - 1; i >= 0; --i) {
      scan(i);
    }
  }
  if (want_array) return Value::Array(std::move(matches));
  return matches.empty() ? Value::Null() : std::move(matches[0]);
}

// -------------------------------------------------------------------- sets

// SINTERCARD numkeys key [key ...] [LIMIT n]
Value CmdSInterCard(Engine& e, const Argv& argv, ExecContext& ctx) {
  int64_t numkeys;
  if (!ParseInt64(argv[1], &numkeys) || numkeys <= 0 ||
      static_cast<size_t>(numkeys) + 2 > argv.size() + 1) {
    return Value::Error("ERR numkeys should be greater than 0");
  }
  int64_t limit = INT64_MAX;
  const size_t after_keys = 2 + static_cast<size_t>(numkeys);
  if (after_keys < argv.size()) {
    if (after_keys + 2 != argv.size() ||
        Engine::Upper(argv[after_keys]) != "LIMIT" ||
        !ParseInt64(argv[after_keys + 1], &limit) || limit < 0) {
      return ErrSyntax();
    }
    if (limit == 0) limit = INT64_MAX;
  }
  // Intersect progressively.
  std::vector<std::string> acc;
  for (int64_t k = 0; k < numkeys; ++k) {
    Value err = Value::Null();
    Keyspace::Entry* entry = FetchTyped(e, argv[2 + static_cast<size_t>(k)],
                                        ds::ValueType::kSet, ctx, false, &err);
    if (err.IsError()) return err;
    if (entry == nullptr) return Value::Integer(0);
    std::vector<std::string> members = entry->value.set().Members();
    std::sort(members.begin(), members.end());
    if (k == 0) {
      acc = std::move(members);
    } else {
      std::vector<std::string> next;
      std::set_intersection(acc.begin(), acc.end(), members.begin(),
                            members.end(), std::back_inserter(next));
      acc = std::move(next);
    }
    if (acc.empty()) break;
  }
  return Value::Integer(
      std::min<int64_t>(limit, static_cast<int64_t>(acc.size())));
}

// ------------------------------------------------------------------ hashes

// ------------------------------------------------------------------- zsets

// ZRANDMEMBER key [count [WITHSCORES]]
Value CmdZRandMember(Engine& e, const Argv& argv, ExecContext& ctx) {
  if (ctx.rng == nullptr) return Value::Error("ERR no entropy source");
  Value err = Value::Null();
  Keyspace::Entry* entry =
      FetchTyped(e, argv[1], ds::ValueType::kZSet, ctx, false, &err);
  if (err.IsError()) return err;
  if (argv.size() == 2) {
    if (entry == nullptr) return Value::Null();
    std::vector<ds::ScoredMember> all;
    entry->value.zset().RangeByRank(0, entry->value.zset().Size() - 1, false,
                                    &all);
    return Value::Bulk(all[ctx.rng->Uniform(all.size())].member);
  }
  int64_t count;
  if (!ParseInt64(argv[2], &count)) return ErrNotInt();
  bool withscores = argv.size() == 4 &&
                    Engine::Upper(argv[3]) == "WITHSCORES";
  if (argv.size() == 4 && !withscores) return ErrSyntax();
  if (entry == nullptr) return Value::Array({});
  std::vector<ds::ScoredMember> all;
  entry->value.zset().RangeByRank(0, entry->value.zset().Size() - 1, false,
                                  &all);
  std::vector<Value> out;
  auto push = [&](size_t idx) {
    out.push_back(Value::Bulk(all[idx].member));
    if (withscores) out.push_back(Value::Bulk(FormatDouble(all[idx].score)));
  };
  if (count >= 0) {
    std::vector<size_t> order(all.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    const size_t want = std::min<size_t>(static_cast<size_t>(count),
                                         all.size());
    for (size_t i = 0; i < want; ++i) {
      const size_t j = i + ctx.rng->Uniform(order.size() - i);
      std::swap(order[i], order[j]);
      push(order[i]);
    }
  } else {
    for (int64_t i = 0; i < -count; ++i) push(ctx.rng->Uniform(all.size()));
  }
  return Value::Array(std::move(out));
}

// ZREMRANGEBYRANK key start stop
Value CmdZRemRangeByRank(Engine& e, const Argv& argv, ExecContext& ctx) {
  int64_t start, stop;
  if (!ParseInt64(argv[2], &start) || !ParseInt64(argv[3], &stop)) {
    return ErrNotInt();
  }
  Value err = Value::Null();
  Keyspace::Entry* entry =
      FetchTyped(e, argv[1], ds::ValueType::kZSet, ctx, true, &err);
  if (err.IsError()) return err;
  if (entry == nullptr) return Value::Integer(0);
  ds::ZSet& z = entry->value.zset();
  const size_t n = z.Size();
  start = NormalizeIndex(start, n);
  stop = NormalizeIndex(stop, n);
  if (start < 0) start = 0;
  if (start > stop || start >= static_cast<int64_t>(n)) {
    return Value::Integer(0);
  }
  std::vector<ds::ScoredMember> victims;
  z.RangeByRank(static_cast<size_t>(start), static_cast<size_t>(stop), false,
                &victims);
  for (const auto& sm : victims) z.Remove(sm.member);
  if (!victims.empty()) {
    e.Touch(argv[1], ctx);
    if (z.Empty()) e.keyspace().Erase(argv[1]);
  }
  return Value::Integer(static_cast<int64_t>(victims.size()));
}

// Shared by ZUNIONSTORE / ZINTERSTORE / ZDIFFSTORE:
// CMD dst numkeys key... [WEIGHTS w...] [AGGREGATE SUM|MIN|MAX]
enum class ZOp { kUnion, kInter, kDiff };

Value GenericZStore(Engine& e, const Argv& argv, ExecContext& ctx, ZOp op) {
  int64_t numkeys;
  if (!ParseInt64(argv[2], &numkeys) || numkeys <= 0 ||
      3 + static_cast<size_t>(numkeys) > argv.size()) {
    return Value::Error("ERR at least 1 input key is needed");
  }
  std::vector<double> weights(static_cast<size_t>(numkeys), 1.0);
  std::string aggregate = "SUM";
  size_t i = 3 + static_cast<size_t>(numkeys);
  while (i < argv.size()) {
    const std::string opt = Engine::Upper(argv[i]);
    if (opt == "WEIGHTS" && op != ZOp::kDiff) {
      if (i + static_cast<size_t>(numkeys) >= argv.size()) return ErrSyntax();
      for (size_t w = 0; w < static_cast<size_t>(numkeys); ++w) {
        if (!ParseDouble(argv[i + 1 + w], &weights[w])) return ErrNotFloat();
      }
      i += 1 + static_cast<size_t>(numkeys);
    } else if (opt == "AGGREGATE" && op != ZOp::kDiff) {
      if (i + 1 >= argv.size()) return ErrSyntax();
      aggregate = Engine::Upper(argv[i + 1]);
      if (aggregate != "SUM" && aggregate != "MIN" && aggregate != "MAX") {
        return ErrSyntax();
      }
      i += 2;
    } else {
      return ErrSyntax();
    }
  }

  // Collect member->score per source (sets count as score 1).
  std::map<std::string, double> acc;
  std::map<std::string, int> seen_in;
  for (int64_t k = 0; k < numkeys; ++k) {
    const std::string& key = argv[3 + static_cast<size_t>(k)];
    Keyspace::Entry* entry = e.LookupRead(key, ctx);
    std::vector<ds::ScoredMember> members;
    if (entry != nullptr) {
      if (entry->value.type() == ds::ValueType::kZSet) {
        entry->value.zset().RangeByRank(0, entry->value.zset().Size() - 1,
                                        false, &members);
      } else if (entry->value.type() == ds::ValueType::kSet) {
        for (auto& m : entry->value.set().Members()) members.push_back({m, 1});
      } else {
        return ErrWrongType();
      }
    }
    for (const auto& sm : members) {
      const double weighted = sm.score * weights[static_cast<size_t>(k)];
      auto [it, inserted] = acc.emplace(sm.member, weighted);
      if (!inserted) {
        if (aggregate == "SUM") {
          it->second += weighted;
        } else if (aggregate == "MIN") {
          it->second = std::min(it->second, weighted);
        } else {
          it->second = std::max(it->second, weighted);
        }
      }
      ++seen_in[sm.member];
    }
  }

  ds::ZSet result;
  for (const auto& [member, score] : acc) {
    if (op == ZOp::kInter && seen_in[member] != numkeys) continue;
    if (op == ZOp::kDiff) continue;  // handled below
    result.Add(member, score);
  }
  if (op == ZOp::kDiff) {
    // Members of the first key absent from every other key.
    Keyspace::Entry* first = e.LookupRead(argv[3], ctx);
    if (first != nullptr && first->value.type() == ds::ValueType::kZSet) {
      std::vector<ds::ScoredMember> members;
      first->value.zset().RangeByRank(0, first->value.zset().Size() - 1,
                                      false, &members);
      for (const auto& sm : members) {
        if (seen_in[sm.member] == 1) result.Add(sm.member, sm.score);
      }
    }
  }

  const int64_t size = static_cast<int64_t>(result.Size());
  if (size == 0) {
    if (e.LookupWrite(argv[1], ctx) != nullptr) {
      e.keyspace().Erase(argv[1]);
      ctx.dirty_keys.push_back(argv[1]);
    }
    return Value::Integer(0);
  }
  e.keyspace().Put(argv[1], ds::Value(std::move(result)));
  e.Touch(argv[1], ctx);
  return Value::Integer(size);
}

Value CmdZUnionStore(Engine& e, const Argv& argv, ExecContext& ctx) {
  return GenericZStore(e, argv, ctx, ZOp::kUnion);
}
Value CmdZInterStore(Engine& e, const Argv& argv, ExecContext& ctx) {
  return GenericZStore(e, argv, ctx, ZOp::kInter);
}
Value CmdZDiffStore(Engine& e, const Argv& argv, ExecContext& ctx) {
  return GenericZStore(e, argv, ctx, ZOp::kDiff);
}

// ZRANGESTORE dst src start stop [REV]
Value CmdZRangeStore(Engine& e, const Argv& argv, ExecContext& ctx) {
  int64_t start, stop;
  if (!ParseInt64(argv[3], &start) || !ParseInt64(argv[4], &stop)) {
    return ErrNotInt();
  }
  bool rev = false;
  if (argv.size() == 6) {
    if (Engine::Upper(argv[5]) != "REV") return ErrSyntax();
    rev = true;
  }
  Value err = Value::Null();
  Keyspace::Entry* src =
      FetchTyped(e, argv[2], ds::ValueType::kZSet, ctx, false, &err);
  if (err.IsError()) return err;
  ds::ZSet result;
  if (src != nullptr) {
    const size_t n = src->value.zset().Size();
    start = NormalizeIndex(start, n);
    stop = NormalizeIndex(stop, n);
    if (start < 0) start = 0;
    if (start <= stop && start < static_cast<int64_t>(n)) {
      std::vector<ds::ScoredMember> items;
      src->value.zset().RangeByRank(static_cast<size_t>(start),
                                    static_cast<size_t>(stop), rev, &items);
      for (const auto& sm : items) result.Add(sm.member, sm.score);
    }
  }
  const int64_t size = static_cast<int64_t>(result.Size());
  if (size == 0) {
    if (e.LookupWrite(argv[1], ctx) != nullptr) {
      e.keyspace().Erase(argv[1]);
      ctx.dirty_keys.push_back(argv[1]);
    }
    return Value::Integer(0);
  }
  e.keyspace().Put(argv[1], ds::Value(std::move(result)));
  e.Touch(argv[1], ctx);
  return Value::Integer(size);
}

}  // namespace

void RegisterExtendedCommands(Engine* e,
                              const std::function<void(CommandSpec)>& add) {
  add({"GETEX", -2, true, 1, 1, 1, CmdGetEx, /*deny_oom=*/false});
  add({"COPY", -3, true, 1, 2, 1, CmdCopy});
  add({"EXPIRETIME", 2, false, 1, 1, 1, CmdExpireTime});
  add({"PEXPIRETIME", 2, false, 1, 1, 1, CmdPExpireTime});
  add({"LPOS", -3, false, 1, 1, 1, CmdLPos});
  add({"SINTERCARD", -3, false, 2, -1, 1, CmdSInterCard});
  add({"ZRANDMEMBER", -2, false, 1, 1, 1, CmdZRandMember});
  add({"ZREMRANGEBYRANK", 4, true, 1, 1, 1, CmdZRemRangeByRank, /*deny_oom=*/false});
  add({"ZUNIONSTORE", -4, true, 1, 1, 1, CmdZUnionStore});
  add({"ZINTERSTORE", -4, true, 1, 1, 1, CmdZInterStore});
  add({"ZDIFFSTORE", -4, true, 1, 1, 1, CmdZDiffStore});
  add({"ZRANGESTORE", -5, true, 1, 2, 1, CmdZRangeStore});
}

}  // namespace memdb::engine
