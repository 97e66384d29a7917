// Server / connection commands that execute inside the engine. Cluster and
// session concerns (WAIT, READONLY, MULTI/EXEC queueing) live in the node
// layers, which intercept those commands before dispatching here.

#include <cctype>
#include <cstdio>

#include "engine/commands_common.h"
#include "engine/engine.h"

namespace memdb::engine {
namespace {

using resp::Value;

Value CmdPing(Engine& e, const Argv& argv, ExecContext& ctx) {
  if (argv.size() == 2) return Value::Bulk(argv[1]);
  return Value::Simple("PONG");
}

Value CmdEcho(Engine& e, const Argv& argv, ExecContext& ctx) {
  return Value::Bulk(argv[1]);
}

Value CmdDbSize(Engine& e, const Argv& argv, ExecContext& ctx) {
  return Value::Integer(static_cast<int64_t>(e.keyspace().Size()));
}

Value CmdFlushAll(Engine& e, const Argv& argv, ExecContext& ctx) {
  e.keyspace().Clear();
  ctx.effects.push_back({"FLUSHALL"});
  ctx.effects_overridden = true;
  ctx.keyspace_dirty = true;
  return Value::Ok();
}

Value CmdTime(Engine& e, const Argv& argv, ExecContext& ctx) {
  const uint64_t secs = ctx.now_ms / 1000;
  const uint64_t usecs = (ctx.now_ms % 1000) * 1000;
  return Value::Array(
      {Value::Bulk(std::to_string(secs)), Value::Bulk(std::to_string(usecs))});
}

Value CmdSelect(Engine& e, const Argv& argv, ExecContext& ctx) {
  int64_t db;
  if (!ParseInt64(argv[1], &db)) return ErrNotInt();
  // Cluster-mode engines expose only database 0, like Redis Cluster.
  if (db != 0) return Value::Error("ERR DB index is out of range");
  return Value::Ok();
}

Value CmdCommand(Engine& e, const Argv& argv, ExecContext& ctx) {
  if (argv.size() >= 2 && Engine::Upper(argv[1]) == "COUNT") {
    return Value::Integer(static_cast<int64_t>(e.ListCommands().size()));
  }
  // COMMAND with no args: reply with per-command metadata arrays
  // [name, arity, flags, first_key, last_key, step].
  std::vector<Value> out;
  for (const CommandSpec* spec : e.ListCommands()) {
    std::vector<Value> flags;
    flags.push_back(Value::Simple(spec->is_write ? "write" : "readonly"));
    out.push_back(Value::Array({
        Value::Bulk(spec->name),
        Value::Integer(spec->arity),
        Value::Array(std::move(flags)),
        Value::Integer(spec->first_key),
        Value::Integer(spec->last_key),
        Value::Integer(spec->key_step),
    }));
  }
  return Value::Array(std::move(out));
}

std::string LowerName(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(c));
  return out;
}

Value CmdInfo(Engine& e, const Argv& argv, ExecContext& ctx) {
  static const ServerInfo kDefaultInfo;
  const ServerInfo& srv = ctx.server != nullptr ? *ctx.server : kDefaultInfo;
  const std::string section =
      argv.size() >= 2 ? Engine::Upper(argv[1]) : std::string();
  auto want = [&](const char* s) { return section.empty() || section == s; };
  const MetricsRegistry& reg = e.metrics();
  std::string out;

  if (want("SERVER")) {
    out += "# Server\r\n";
    out += "engine_version:" + srv.engine_version + "\r\n";
    out += "engine:memorydb\r\n";
    out += "node_id:" + std::to_string(srv.node_id) + "\r\n";
    out += "process_id:" + std::to_string(srv.pid) + "\r\n";
    out += "run_id:" + (srv.run_id.empty() ? std::string("0") : srv.run_id) +
           "\r\n";
    const uint64_t uptime_s =
        (srv.start_unix_ms != 0 && ctx.now_ms > srv.start_unix_ms)
            ? (ctx.now_ms - srv.start_unix_ms) / 1000
            : 0;
    out += "uptime_in_seconds:" + std::to_string(uptime_s) + "\r\n";
    out += "build_sha:" +
           (srv.build_sha.empty() ? std::string("unknown") : srv.build_sha) +
           "\r\n";
  }
  if (want("CLIENTS")) {
    // Backed by the net layer's gauges when a RespServer shares this
    // registry; a bare engine (or the simulated path) reports zeros.
    auto gauge = [&](const char* name) -> int64_t {
      const Gauge* g = reg.FindGauge(name);
      return g == nullptr ? 0 : g->value();
    };
    out += "# Clients\r\n";
    out += "connected_clients:" +
           std::to_string(gauge("net_connected_clients")) + "\r\n";
    out += "blocked_clients:" + std::to_string(gauge("net_blocked_clients")) +
           "\r\n";
    out += "client_recent_max_input_buffer:" +
           std::to_string(gauge("net_client_recent_max_input_buffer")) +
           "\r\n";
    out += "maxclients:" + std::to_string(gauge("net_maxclients")) + "\r\n";
  }
  if (want("REPLICATION")) {
    // Gauges come from the replication layer when a log-fed replica or a
    // durable primary shares this registry; a bare engine reports the
    // neutral defaults.
    auto gauge = [&](const char* name) -> int64_t {
      const Gauge* g = reg.FindGauge(name);
      return g == nullptr ? 0 : g->value();
    };
    auto counter = [&](const char* name) -> uint64_t {
      const Counter* c = reg.FindCounter(name);
      return c == nullptr ? 0 : c->value();
    };
    out += "# Replication\r\n";
    out += "role:" + srv.role + "\r\n";
    out += "applied_index:" + std::to_string(srv.applied_index) + "\r\n";
    // Automatic-failover state (§4.1/§4.2): present on every role so a
    // monitor can watch a promotion progress through replica -> master.
    // The gauge holds replication::Election::State; map it back to its name.
    auto failover_state_name = [](int64_t s) -> const char* {
      switch (s) {
        case 2: return "holding";
        case 3: return "monitoring";
        case 4: return "electing";
        case 6: return "fenced";
        default: return "none";
      }
    };
    out += "master_failover_state:" +
           std::string(failover_state_name(gauge("failover_state"))) + "\r\n";
    out += "failovers_total:" + std::to_string(counter("failovers_total")) +
           "\r\n";
    out += "last_failover_duration_ms:" +
           std::to_string(gauge("failover_last_duration_ms")) + "\r\n";
    if (srv.role == "replica" || srv.role == "fenced") {
      // Link to the transaction log, and how far behind its commit index
      // this replica's applied state is.
      out += "replica_link_status:" +
             std::string(gauge("repl_link_up") != 0 ? "up" : "down") + "\r\n";
      out += "replica_lag_records:" +
             std::to_string(gauge("repl_lag_records")) + "\r\n";
      out += "replica_lag_bytes:" + std::to_string(gauge("repl_lag_bytes")) +
             "\r\n";
      out += "replica_log_commit_index:" +
             std::to_string(gauge("repl_last_commit_index")) + "\r\n";
      out += "replica_entries_applied:" +
             std::to_string(counter("repl_entries_applied_total")) + "\r\n";
      out += "replica_bytes_applied:" +
             std::to_string(counter("repl_bytes_applied_total")) + "\r\n";
      out += "replica_checksum_failures:" +
             std::to_string(counter("repl_checksum_failures_total")) + "\r\n";
    } else {
      // Primary: consumers parked on the log group (lower bound — each log
      // replica only sees its own long-poll followers) and the log's
      // commit index from the last tail poll.
      out += "log_consumers:" + std::to_string(gauge("repl_log_consumers")) +
             "\r\n";
      out += "log_commit_index:" +
             std::to_string(gauge("txlog_tail_commit_index")) + "\r\n";
      out += "checksum_records_injected:" +
             std::to_string(counter("txlog_checksum_records_total")) + "\r\n";
    }
  }
  if (want("MEMORY")) {
    auto counter = [&](const char* name) -> uint64_t {
      const Counter* c = reg.FindCounter(name);
      return c == nullptr ? 0 : c->value();
    };
    out += "# Memory\r\nused_memory:" +
           std::to_string(e.keyspace().used_memory()) + "\r\n";
    out += "used_memory_peak:" +
           std::to_string(e.keyspace().used_memory_peak()) + "\r\n";
    out += "maxmemory:" + std::to_string(e.config().maxmemory_bytes) + "\r\n";
    out += "maxmemory_policy:" +
           std::string(EvictionPolicyName(e.config().eviction_policy)) +
           "\r\n";
    out += "maxmemory_samples:" +
           std::to_string(e.config().eviction_samples) + "\r\n";
    out += "evicted_keys:" + std::to_string(counter("evicted_keys_total")) +
           "\r\n";
    out += "expired_keys:" + std::to_string(counter("expired_keys_total")) +
           "\r\n";
  }
  if (want("STATS")) {
    uint64_t total_calls = 0;
    for (const auto& [labels, c] : reg.CounterSeries("engine_commands_total")) {
      total_calls += c->value();
    }
    out += "# Stats\r\n";
    out += "total_commands_processed:" + std::to_string(total_calls) + "\r\n";
    // Node-level counters appear once the embedding layer shares its
    // registry (zero for a bare engine).
    for (const auto& [metric, field] :
         {std::pair<const char*, const char*>{"node_records_appended_total",
                                              "total_records_appended"},
          std::pair<const char*, const char*>{"node_reads_deferred_total",
                                              "reads_deferred_by_tracker"}}) {
      const Counter* c = reg.FindCounter(metric);
      out += std::string(field) + ":" +
             std::to_string(c == nullptr ? 0 : c->value()) + "\r\n";
    }
  }
  if (want("COMMANDSTATS")) {
    out += "# Commandstats\r\n";
    for (const auto& [labels, c] : reg.CounterSeries("engine_commands_total")) {
      if (c->value() == 0 || labels.empty()) continue;
      const std::string& cmd = labels.front().second;
      const Histogram* h = reg.FindHistogram("cmd_latency_us", labels);
      const uint64_t usec = h == nullptr ? 0 : h->sum();
      char line[160];
      std::snprintf(line, sizeof(line),
                    "cmdstat_%s:calls=%llu,usec=%llu,usec_per_call=%.2f\r\n",
                    LowerName(cmd).c_str(),
                    static_cast<unsigned long long>(c->value()),
                    static_cast<unsigned long long>(usec),
                    c->value() == 0
                        ? 0.0
                        : static_cast<double>(usec) /
                              static_cast<double>(c->value()));
      out += line;
    }
  }
  if (want("LATENCYSTATS")) {
    out += "# Latencystats\r\n";
    for (const auto& [labels, h] : reg.HistogramSeries("cmd_latency_us")) {
      if (h->count() == 0 || labels.empty()) continue;
      char line[160];
      std::snprintf(line, sizeof(line),
                    "latency_percentiles_usec_%s:p50=%llu,p99=%llu,"
                    "p99.9=%llu\r\n",
                    LowerName(labels.front().second).c_str(),
                    static_cast<unsigned long long>(h->Percentile(0.50)),
                    static_cast<unsigned long long>(h->Percentile(0.99)),
                    static_cast<unsigned long long>(h->Percentile(0.999)));
      out += line;
    }
  }
  if (want("RPC")) {
    // Populated when the embedding layer talks to an out-of-process
    // transaction log (rpc client instruments live in the shared registry);
    // a bare engine or sim deployment reports an empty section.
    out += "# Rpc\r\n";
    for (const auto& [labels, c] : reg.CounterSeries("rpc_requests_total")) {
      if (labels.empty() || c->value() == 0) continue;
      const std::string& method = labels.front().second;
      const Counter* errs = reg.FindCounter("rpc_errors_total", labels);
      const Histogram* rtt = reg.FindHistogram("rpc_rtt_us", labels);
      char line[192];
      std::snprintf(line, sizeof(line),
                    "rpc_%s:calls=%llu,errors=%llu,rtt_p50_usec=%llu,"
                    "rtt_p99_usec=%llu\r\n",
                    LowerName(method).c_str(),
                    static_cast<unsigned long long>(c->value()),
                    static_cast<unsigned long long>(
                        errs == nullptr ? 0 : errs->value()),
                    static_cast<unsigned long long>(
                        rtt == nullptr ? 0 : rtt->Percentile(0.50)),
                    static_cast<unsigned long long>(
                        rtt == nullptr ? 0 : rtt->Percentile(0.99)));
      out += line;
    }
    const Gauge* inflight = reg.FindGauge("rpc_inflight");
    out += "rpc_inflight:" +
           std::to_string(inflight == nullptr ? 0 : inflight->value()) +
           "\r\n";
    for (const char* name :
         {"txlog_retries_total", "txlog_redirects_total",
          "txlog_gate_appends_total", "txlog_gate_records_total",
          "txlog_gate_append_failures_total"}) {
      const Counter* c = reg.FindCounter(name);
      if (c != nullptr) {
        out += std::string(name) + ":" + std::to_string(c->value()) + "\r\n";
      }
    }
  }
  if (want("CLUSTER")) {
    // Backed by the shard layer's instruments when a cluster-mode
    // RespServer shares this registry; a non-cluster node reports
    // cluster_enabled:0 and zeros.
    auto gauge = [&](const char* name) -> int64_t {
      const Gauge* g = reg.FindGauge(name);
      return g == nullptr ? 0 : g->value();
    };
    auto counter = [&](const char* name) -> uint64_t {
      const Counter* c = reg.FindCounter(name);
      return c == nullptr ? 0 : c->value();
    };
    out += "# Cluster\r\n";
    out += "cluster_enabled:" + std::string(srv.cluster_enabled ? "1" : "0") +
           "\r\n";
    out += "shard_id:" + (srv.shard_id.empty() ? std::string("-")
                                               : srv.shard_id) + "\r\n";
    out += "cluster_slots_owned:" +
           std::to_string(gauge("cluster_slots_owned")) + "\r\n";
    out += "cluster_slots_migrating:" +
           std::to_string(gauge("cluster_slots_migrating")) + "\r\n";
    out += "cluster_slots_importing:" +
           std::to_string(gauge("cluster_slots_importing")) + "\r\n";
    out += "cluster_redirects_total:" +
           std::to_string(counter("cluster_redirects_total")) + "\r\n";
    out += "cluster_migrations_total:" +
           std::to_string(counter("cluster_migrations_total")) + "\r\n";
    out += "cluster_keys_migrated_total:" +
           std::to_string(counter("cluster_keys_migrated_total")) + "\r\n";
  }
  if (want("KEYSPACE")) {
    out += "# Keyspace\r\ndb0:keys=" + std::to_string(e.keyspace().Size()) +
           ",expires=" + std::to_string(e.keyspace().ExpiresSize()) + "\r\n";
  }
  return Value::Bulk(std::move(out));
}

// Prometheus text exposition of the process registry (engine series plus
// whatever the embedding node records into the shared registry).
Value CmdMetrics(Engine& e, const Argv& argv, ExecContext& ctx) {
  return Value::Bulk(e.metrics().ExpositionText());
}

}  // namespace

void RegisterServerCommands(Engine* e,
                            const std::function<void(CommandSpec)>& add) {
  add({"PING", -1, false, 0, 0, 0, CmdPing});
  add({"ECHO", 2, false, 0, 0, 0, CmdEcho});
  add({"DBSIZE", 1, false, 0, 0, 0, CmdDbSize});
  add({"FLUSHALL", -1, true, 0, 0, 0, CmdFlushAll, /*deny_oom=*/false});
  add({"FLUSHDB", -1, true, 0, 0, 0, CmdFlushAll, /*deny_oom=*/false});
  add({"TIME", 1, false, 0, 0, 0, CmdTime});
  add({"SELECT", 2, false, 0, 0, 0, CmdSelect});
  add({"COMMAND", -1, false, 0, 0, 0, CmdCommand});
  add({"INFO", -1, false, 0, 0, 0, CmdInfo});
  add({"METRICS", 1, false, 0, 0, 0, CmdMetrics});
}

}  // namespace memdb::engine
