// memorydb-server: standalone single-node server — engine::Engine behind the
// real epoll RESP front end (net::RespServer). Serves PING/GET/SET/INFO/
// METRICS and the rest of the engine's command table over TCP.
//
//   memorydb-server [--port N] [--bind ADDR] [--maxclients N]
//                   [--tcp-backlog N] [--io-threads N] [--maxmemory-mb N]
//                   [--txlog-endpoints HOST:PORT,...] [--writer-id N]
//                   [--txlog-timeout-ms N] [--shutdown-drain-ms N]
//                   [--checksum-every N]
//                   [--replica-of-log HOST:PORT,...]
//                   [--restore --store-dir PATH [--shard-id ID]]
//                   [--failover] [--lease-duration-ms N]
//                   [--lease-renew-ms N]
//                   [--trace-sample-rate N] [--trace-file PATH]
//                   [--trace-proc LABEL] [--slowlog-slower-than-us N]
//                   [--slowlog-max-len N]
//                   [--cluster] [--cluster-slots RANGES]
//                   [--cluster-announce HOST:PORT]
//                   [--cluster-peer SHARD@HOST:PORT=RANGES]...
//                   [--migration-batch-keys N]
//
// With --txlog-endpoints the server runs as a durable primary: every write's
// effect batch is appended to the out-of-process transaction log group
// (memorydb-txlogd, one endpoint per simulated AZ) and the client's reply is
// withheld until a majority of log replicas persisted it (§3.1). On
// shutdown, in-flight appends are drained for up to --shutdown-drain-ms.
//
// With --replica-of-log the server runs as a log-fed replica (§4.2.1): it
// long-polls the same txlogd group for committed entries, applies them, and
// serves reads; writes answer -READONLY and WAIT answers 0.
//
// With --restore the server first recovers peer-lessly from the snapshot
// store at --store-dir plus the log tail (§4.2.1) before accepting traffic
// — the recovery half of the off-box snapshots memorydb-snapshotd writes.
//
// With --failover (§4.1/§4.2) leadership is won through the log alone. The
// node follows the log as a replica; when the holder has been silent for
// longer than the lease, a caught-up node claims the shard with one
// conditional append at its applied index, then renews every
// --lease-renew-ms through its own fenced append chain. With
// --txlog-endpoints the server starts serving only once it holds the shard;
// with --replica-of-log it serves reads until it wins one. A claim needs a
// renewal interval shorter than --lease-duration-ms. No operator action
// needed.
//
// With --cluster (§5) the server becomes one shard of a hash-slot cluster:
// it serves only the slot ranges in --cluster-slots (e.g. "0-8191"),
// answers -MOVED for slots owned by the peers declared via repeated
// --cluster-peer flags (shard1@127.0.0.1:7001=8192-16383), and accepts
// CLUSTER SETSLOT ... MIGRATE to stream a live slot to a peer with the
// ownership flip fenced through the transaction log.
//
// Runs until SIGINT/SIGTERM. With --port 0 the kernel picks a port; the
// chosen port is printed on the "listening" banner either way.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "net/server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void OnSignal(int) { g_stop = 1; }

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

std::vector<std::string> SplitList(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      if (start < s.size()) out.push_back(s.substr(start));
      break;
    }
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

// "shard1@127.0.0.1:7001=8192-16383" -> ClusterPeer{shard, endpoint, slots}.
bool ParseClusterPeer(const std::string& s,
                      memdb::net::ServerConfig::ClusterPeer* out) {
  const size_t at = s.find('@');
  const size_t eq = s.find('=', at == std::string::npos ? 0 : at);
  if (at == std::string::npos || eq == std::string::npos || at == 0 ||
      eq <= at + 1 || eq + 1 >= s.size()) {
    return false;
  }
  out->shard_id = s.substr(0, at);
  out->endpoint = s.substr(at + 1, eq - at - 1);
  out->slots = s.substr(eq + 1);
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--bind ADDR] [--maxclients N]\n"
               "          [--tcp-backlog N] [--io-threads N] "
               "[--maxmemory-mb N]\n"
               "          [--maxmemory-policy noeviction|allkeys-lru|"
               "allkeys-lfu|volatile-ttl]\n"
               "          [--maxmemory-samples N (LRU/LFU only)]\n"
               "          [--txlog-endpoints HOST:PORT,...] [--writer-id N]\n"
               "          [--txlog-timeout-ms N] [--shutdown-drain-ms N]\n"
               "          [--checksum-every N] [--replica-of-log "
               "HOST:PORT,...]\n"
               "          [--restore --store-dir PATH [--shard-id ID]]\n"
               "          [--failover] [--lease-duration-ms N]\n"
               "          [--lease-renew-ms N]\n"
               "          [--trace-sample-rate N] [--trace-file PATH]\n"
               "          [--trace-proc LABEL] [--slowlog-slower-than-us N]\n"
               "          [--slowlog-max-len N]\n"
               "          [--cluster] [--cluster-slots RANGES]\n"
               "          [--cluster-announce HOST:PORT]\n"
               "          [--cluster-peer SHARD@HOST:PORT=RANGES]...\n"
               "          [--migration-batch-keys N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  memdb::net::ServerConfig config;
  uint64_t maxmemory_mb = 0;
  memdb::engine::EvictionPolicy eviction_policy =
      memdb::engine::EvictionPolicy::kNoEviction;
  uint64_t eviction_samples = 5;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    uint64_t v = 0;
    if (arg == "--port" && has_value && ParseUint(argv[++i], &v) &&
        v <= 65535) {
      config.port = static_cast<uint16_t>(v);
    } else if (arg == "--bind" && has_value) {
      config.bind_address = argv[++i];
    } else if (arg == "--maxclients" && has_value &&
               ParseUint(argv[++i], &v) && v > 0) {
      config.maxclients = v;
    } else if (arg == "--tcp-backlog" && has_value &&
               ParseUint(argv[++i], &v) && v > 0) {
      config.tcp_backlog = static_cast<int>(v);
    } else if (arg == "--io-threads" && has_value &&
               ParseUint(argv[++i], &v) && v >= 1 && v <= 128) {
      config.io_threads = static_cast<int>(v);
    } else if (arg == "--maxmemory-mb" && has_value &&
               ParseUint(argv[++i], &v)) {
      maxmemory_mb = v;
    } else if (arg == "--maxmemory-policy" && has_value &&
               memdb::engine::ParseEvictionPolicy(argv[i + 1],
                                                  &eviction_policy)) {
      ++i;
    } else if (arg == "--maxmemory-samples" && has_value &&
               ParseUint(argv[++i], &v) && v >= 1 && v <= 64) {
      eviction_samples = v;
    } else if (arg == "--txlog-endpoints" && has_value) {
      config.txlog_endpoints = SplitList(argv[++i]);
    } else if (arg == "--writer-id" && has_value && ParseUint(argv[++i], &v) &&
               v > 0) {
      config.txlog_writer_id = v;
    } else if (arg == "--txlog-timeout-ms" && has_value &&
               ParseUint(argv[++i], &v) && v > 0) {
      config.txlog_rpc_timeout_ms = v;
    } else if (arg == "--shutdown-drain-ms" && has_value &&
               ParseUint(argv[++i], &v)) {
      config.shutdown_drain_ms = v;
    } else if (arg == "--checksum-every" && has_value &&
               ParseUint(argv[++i], &v)) {
      config.txlog_checksum_every = v;
    } else if (arg == "--replica-of-log" && has_value) {
      config.replica_of_log = SplitList(argv[++i]);
    } else if (arg == "--restore") {
      config.restore = true;
    } else if (arg == "--store-dir" && has_value) {
      config.store_dir = argv[++i];
    } else if (arg == "--shard-id" && has_value) {
      config.shard_id = argv[++i];
    } else if (arg == "--failover") {
      config.failover = true;
    } else if (arg == "--lease-duration-ms" && has_value &&
               ParseUint(argv[++i], &v) && v > 0) {
      config.lease_duration_ms = v;
    } else if (arg == "--lease-renew-ms" && has_value &&
               ParseUint(argv[++i], &v) && v > 0) {
      config.lease_renew_ms = v;
    } else if (arg == "--trace-sample-rate" && has_value &&
               ParseUint(argv[++i], &v)) {
      config.trace_sample_rate = v;
    } else if (arg == "--trace-file" && has_value) {
      config.trace_file = argv[++i];
    } else if (arg == "--trace-proc" && has_value) {
      config.trace_proc = argv[++i];
    } else if (arg == "--slowlog-slower-than-us" && has_value &&
               ParseUint(argv[++i], &v)) {
      config.slowlog_slower_than_us = v;
    } else if (arg == "--slowlog-max-len" && has_value &&
               ParseUint(argv[++i], &v) && v > 0) {
      config.slowlog_max_len = v;
    } else if (arg == "--cluster") {
      config.cluster = true;
    } else if (arg == "--cluster-slots" && has_value) {
      config.cluster_slots = argv[++i];
    } else if (arg == "--cluster-announce" && has_value) {
      config.cluster_announce = argv[++i];
    } else if (arg == "--cluster-peer" && has_value) {
      memdb::net::ServerConfig::ClusterPeer peer;
      if (!ParseClusterPeer(argv[++i], &peer)) return Usage(argv[0]);
      config.cluster_peers.push_back(std::move(peer));
    } else if (arg == "--migration-batch-keys" && has_value &&
               ParseUint(argv[++i], &v) && v > 0) {
      config.migration_batch_keys = v;
    } else {
      return Usage(argv[0]);
    }
  }

  memdb::engine::Engine::Config engine_config;
  engine_config.maxmemory_bytes = maxmemory_mb << 20;
  engine_config.eviction_policy = eviction_policy;
  engine_config.eviction_samples = static_cast<int>(eviction_samples);
  memdb::engine::Engine engine(engine_config);

  memdb::net::RespServer server(&engine, config);
  const memdb::Status s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "memorydb-server: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf(
      "memorydb-server listening on %s:%u (maxclients=%zu, "
      "tcp-backlog=%d, io-threads=%d%s)\n",
      server.config().bind_address.c_str(), server.port(),
      server.config().maxclients, server.config().tcp_backlog,
      server.config().io_threads,
      !config.replica_of_log.empty()
          ? ", replica: log-fed"
          : (config.txlog_endpoints.empty()
                 ? ""
                 : ", durable: remote transaction log"));
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGPIPE, SIG_IGN);
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("memorydb-server: shutting down\n");
  server.Stop();
  return 0;
}
