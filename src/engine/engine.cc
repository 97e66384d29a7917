#include "engine/engine.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "engine/commands_common.h"

namespace memdb::engine {

std::string FormatDouble(double v) {
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  // Integral doubles print without a decimal point, like Redis.
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::abs(v) < 1e17) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Keyspace::Entry* FetchTyped(Engine& e, const std::string& key,
                            ds::ValueType type, ExecContext& ctx,
                            bool for_write, resp::Value* err) {
  Keyspace::Entry* entry =
      for_write ? e.LookupWrite(key, ctx) : e.LookupRead(key, ctx);
  if (entry == nullptr) return nullptr;
  if (entry->value.type() != type) {
    *err = ErrWrongType();
    return nullptr;
  }
  return entry;
}

std::string Engine::Upper(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return out;
}

Engine::Engine() : Engine(Config{}) {}

Engine::Engine(Config config)
    : config_(config), rng_(config.rng_seed) {
  RegisterAll();
}

void Engine::Register(CommandSpec spec) {
  if (spec.name.size() > kMaxCommandName) {
    std::fprintf(stderr, "engine: command name %s is too long\n",
                 spec.name.c_str());
    std::abort();
  }
  longest_name_ = std::max(longest_name_, spec.name.size());
  spec.id = static_cast<uint32_t>(table_.size());
  table_.emplace(spec.name, std::move(spec));
}

void Engine::RegisterAll() {
  auto add = [this](CommandSpec spec) { Register(std::move(spec)); };
  RegisterStringCommands(this, add);
  RegisterKeyCommands(this, add);
  RegisterListCommands(this, add);
  RegisterHashCommands(this, add);
  RegisterSetCommands(this, add);
  RegisterZSetCommands(this, add);
  RegisterServerCommands(this, add);
  RegisterBitmapCommands(this, add);
  RegisterHllCommands(this, add);
  RegisterExtendedCommands(this, add);
}

void Engine::set_metrics(MetricsRegistry* registry) {
  metrics_override_ = registry;
  calls_by_id_.clear();  // counters live in the old registry
  evicted_total_ = nullptr;
  expired_total_ = nullptr;
  used_memory_gauge_ = nullptr;
  maxmemory_gauge_ = nullptr;
}

const CommandSpec* Engine::FindCommand(std::string_view name) const {
  if (name.size() > longest_name_) return nullptr;
  char upper[kMaxCommandName];
  for (size_t i = 0; i < name.size(); ++i) {
    upper[i] = static_cast<char>(
        std::toupper(static_cast<unsigned char>(name[i])));
  }
  auto it = table_.find(std::string_view(upper, name.size()));
  return it == table_.end() ? nullptr : &it->second;
}

std::vector<const CommandSpec*> Engine::ListCommands() const {
  std::vector<const CommandSpec*> out;
  out.reserve(table_.size());
  for (const auto& [name, spec] : table_) out.push_back(&spec);
  return out;
}

std::vector<std::string> Engine::CommandKeys(const CommandSpec& spec,
                                             const Argv& argv) {
  std::vector<std::string> keys;
  if (spec.first_key == 0) return keys;
  const int argc = static_cast<int>(argv.size());
  int last = spec.last_key == -1 ? argc - 1 : spec.last_key;
  if (last >= argc) last = argc - 1;
  for (int i = spec.first_key; i <= last; i += spec.key_step) {
    keys.push_back(argv[static_cast<size_t>(i)]);
  }
  return keys;
}

void Engine::ExpireNow(const std::string& key, ExecContext& ctx) {
  keyspace_.Erase(key);
  ctx.effects.push_back({"DEL", key});
  ctx.dirty_keys.push_back(key);
  EnsureMemoryMetrics();
  expired_total_->Increment();
}

uint16_t Engine::SlotOf(const std::string& key, ExecContext& ctx) {
  if (&key != ctx.slot_key) return KeyHashSlot(Slice(key));
  if (ctx.slot < 0) ctx.slot = KeyHashSlot(Slice(key));
  return static_cast<uint16_t>(ctx.slot);
}

Keyspace::Entry* Engine::LookupRead(const std::string& key, ExecContext& ctx) {
  Keyspace::Entry* e = keyspace_.FindRaw(key, SlotOf(key, ctx));
  if (e == nullptr) return nullptr;
  if (ctx.role == Role::kReplicaApply) return e;  // effects are literal
  if (keyspace_.IsLogicallyExpired(*e, ctx.now_ms)) {
    if (ctx.role == Role::kPrimary) ExpireNow(key, ctx);
    return nullptr;
  }
  BumpAccess(e, ctx.now_ms);
  return e;
}

Keyspace::Entry* Engine::LookupWrite(const std::string& key,
                                     ExecContext& ctx) {
  return LookupRead(key, ctx);
}

void Engine::Touch(const std::string& key, ExecContext& ctx) {
  Keyspace::Entry* e = keyspace_.OnValueMutated(key, SlotOf(key, ctx));
  if (e != nullptr) BumpAccess(e, ctx.now_ms);
  ctx.dirty_keys.push_back(key);
}

resp::Value Engine::Execute(const CommandSpec* spec, const Argv& argv,
                            ExecContext* ctx) {
  // The first-key slot memo lives for this command only: the next command
  // may reuse argv's strings for other keys.
  struct SlotMemo {
    ExecContext* ctx;
    ~SlotMemo() {
      ctx->slot_key = nullptr;
      ctx->slot = -1;
    }
  } memo{ctx};
  if (argv.empty()) return resp::Value::Error("ERR empty command");
  if (spec == nullptr) {
    return resp::Value::Error("ERR unknown command '" + argv[0] + "'");
  }
  const int argc = static_cast<int>(argv.size());
  if ((spec->arity >= 0 && argc != spec->arity) ||
      (spec->arity < 0 && argc < -spec->arity)) {
    return resp::Value::Error("ERR wrong number of arguments for '" +
                              spec->name + "' command");
  }
  if (spec->first_key > 0 && spec->first_key < argc) {
    ctx->slot_key = &argv[static_cast<size_t>(spec->first_key)];
  }
  // Fresh entries created by the handler get stamped with this clock.
  keyspace_.set_clock_ms(ctx->now_ms);
  // Admission under maxmemory: size the incoming payload BEFORE running the
  // handler, so a single write larger than the remaining budget is rejected
  // (or evicted around) instead of silently blowing past the ceiling.
  // Memory-relieving writes (deny_oom = false) always run.
  if (spec->is_write && spec->deny_oom && ctx->role == Role::kPrimary &&
      config_.maxmemory_bytes != 0) {
    size_t incoming = 0;
    for (size_t i = 1; i < argv.size(); ++i) incoming += argv[i].size();
    if (!EnsureMemoryFor(incoming, *ctx)) return ErrOom();
  }
  if (ctx->role != Role::kReplicaApply) {
    if (spec->id >= calls_by_id_.size()) {
      calls_by_id_.resize(table_.size(), nullptr);
    }
    Counter*& calls = calls_by_id_[spec->id];
    if (calls == nullptr) {
      calls = metrics().GetCounter("engine_commands_total",
                                   {{"cmd", spec->name}});
    }
    calls->Increment();
  }
  // Marks are taken AFTER the admission check: eviction DELs already in
  // ctx->effects survive handlers that rewrite their own effects, and the
  // victims' dirty entries never trigger spurious verbatim replication.
  ctx->effects_overridden = false;
  ctx->effects_mark = ctx->effects.size();
  const size_t dirty_mark = ctx->dirty_keys.size();
  resp::Value reply = spec->handler(*this, argv, *ctx);
  // Default replication: a write that changed something and did not emit
  // custom effects replicates verbatim (matching Redis command
  // propagation).
  if (spec->is_write && ctx->role != Role::kReplicaApply &&
      !ctx->effects_overridden && ctx->dirty_keys.size() > dirty_mark &&
      !reply.IsError()) {
    ctx->effects.push_back(argv);
  }
  if (spec->is_write) {
    EnsureMemoryMetrics();
    used_memory_gauge_->Set(static_cast<int64_t>(keyspace_.used_memory()));
  }
  return reply;
}

resp::Value Engine::Apply(const Argv& argv, uint64_t now_ms) {
  ExecContext ctx;
  ctx.now_ms = now_ms;
  ctx.role = Role::kReplicaApply;
  ctx.rng = &rng_;
  return Execute(argv, &ctx);
}

size_t Engine::ActiveExpire(ExecContext* ctx, size_t limit) {
  keyspace_.set_clock_ms(ctx->now_ms);
  std::vector<std::string> victims = keyspace_.ExpiredKeys(ctx->now_ms, limit);
  for (const std::string& key : victims) ExpireNow(key, *ctx);
  if (!victims.empty()) {
    used_memory_gauge_->Set(static_cast<int64_t>(keyspace_.used_memory()));
  }
  return victims.size();
}

}  // namespace memdb::engine
