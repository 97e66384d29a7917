// memorydb-txlogd: standalone transaction-log daemon — one raft replica of
// the durable multi-AZ log (paper §3.1), run as its own process (one per
// simulated AZ). Database nodes reach it through txlog::RemoteClient.
//
//   memorydb-txlogd --node-id N --peers HOST:PORT,HOST:PORT,...
//                   [--bind ADDR] [--port N] [--data-dir PATH] [--no-fsync]
//                   [--dedup-max N] [--heartbeat-ms N] [--election-min-ms N]
//                   [--election-max-ms N] [--trace-file PATH]
//
// --peers lists the FULL group membership (including this node) in node-id
// order: entry i serves node id i+1. --node-id selects which entry is this
// process; its port is taken from that entry unless --port overrides it.
// With a --data-dir, appends are fsynced before they count toward the
// commit quorum; without one the replica is memory-only (tests/demos).
//
// Runs until SIGINT/SIGTERM (exit 0), or until a write to the data dir
// fails: the replica stops serving (fail-stop) and the process exits 1.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "txlog/service.h"

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

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --node-id N --peers HOST:PORT,HOST:PORT,...\n"
               "          [--bind ADDR] [--port N] [--data-dir PATH]\n"
               "          [--no-fsync] [--dedup-max N] [--heartbeat-ms N]\n"
               "          [--election-min-ms N] [--election-max-ms N]\n"
               "          [--trace-file PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  memdb::txlog::LogService::Options options;
  options.node_id = 0;
  std::vector<std::string> peers;
  bool port_overridden = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    uint64_t v = 0;
    if (arg == "--node-id" && has_value && ParseUint(argv[++i], &v) && v > 0) {
      options.node_id = v;
    } else if (arg == "--peers" && has_value) {
      peers = SplitList(argv[++i]);
    } else if (arg == "--bind" && has_value) {
      options.listen_host = argv[++i];
    } else if (arg == "--port" && has_value && ParseUint(argv[++i], &v) &&
               v <= 65535) {
      options.listen_port = static_cast<uint16_t>(v);
      port_overridden = true;
    } else if (arg == "--data-dir" && has_value) {
      options.data_dir = argv[++i];
    } else if (arg == "--no-fsync") {
      options.fsync = false;
    } else if (arg == "--dedup-max" && has_value && ParseUint(argv[++i], &v)) {
      options.dedup_max_entries = v;
    } else if (arg == "--heartbeat-ms" && has_value &&
               ParseUint(argv[++i], &v) && v > 0) {
      options.heartbeat_ms = v;
    } else if (arg == "--election-min-ms" && has_value &&
               ParseUint(argv[++i], &v) && v > 0) {
      options.election_min_ms = v;
    } else if (arg == "--election-max-ms" && has_value &&
               ParseUint(argv[++i], &v) && v > 0) {
      options.election_max_ms = v;
    } else if (arg == "--trace-file" && has_value) {
      options.trace_file = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (options.node_id == 0 || peers.empty() ||
      options.node_id > peers.size() ||
      options.election_min_ms > options.election_max_ms) {
    return Usage(argv[0]);
  }

  // This node's listen port defaults to its own --peers entry.
  const std::string& self = peers[options.node_id - 1];
  std::string host;
  if (!port_overridden && !memdb::txlog::rpcwire::SplitEndpoint(
                              self, &host, &options.listen_port)) {
    std::fprintf(stderr, "memorydb-txlogd: bad self endpoint '%s'\n",
                 self.c_str());
    return 2;
  }

  memdb::txlog::LogService service(options);
  const memdb::Status s = service.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "memorydb-txlogd: %s\n", s.ToString().c_str());
    return 1;
  }
  std::vector<std::pair<uint64_t, std::string>> membership;
  for (size_t i = 0; i < peers.size(); ++i) {
    membership.emplace_back(static_cast<uint64_t>(i + 1), peers[i]);
  }
  service.SetPeers(std::move(membership));

  std::printf(
      "memorydb-txlogd node %llu listening on %s:%u (%zu-replica group%s%s)\n",
      static_cast<unsigned long long>(options.node_id),
      options.listen_host.c_str(), service.port(), peers.size(),
      options.data_dir.empty() ? ", memory-only" : ", data-dir=",
      options.data_dir.c_str());
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGPIPE, SIG_IGN);
  while (!g_stop && !service.failed()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const bool failed = service.failed();
  std::printf("memorydb-txlogd node %llu: %s\n",
              static_cast<unsigned long long>(options.node_id),
              failed ? "persistence failed, exiting" : "shutting down");
  service.Stop();
  return failed ? 1 : 0;
}
