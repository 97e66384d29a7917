// memorydb-snapshotd: off-box snapshot daemon (paper §4.2.2) — builds
// snapshots from the transaction log and the snapshot store alone, so the
// serving primary never forks or stalls for persistence. Periodically (or
// once with --once) it runs the shadow-cluster cycle in
// replication::OffboxRunner: restore latest snapshot, replay the log tail
// with checksum-chain verification, dump, rehearse the restore, upload,
// and hint the log group to trim covered history.
//
//   memorydb-snapshotd --txlog HOST:PORT,HOST:PORT,... --store-dir PATH
//                      [--shard-id ID] [--interval-ms N] [--once]
//                      [--trim-slack N] [--no-trim] [--no-fsync]
//                      [--trace-file PATH] [--stats-port N]
//
// --stats-port serves svc.Metrics + svc.TraceDump over rpc (memorydb-stat
// scrapes it); --trace-file writes the cycle spans as JSONL at shutdown
// for offline merging with tools/memorydb-trace.
//
// Runs until SIGINT/SIGTERM (or one cycle with --once; exit status reflects
// that cycle's outcome).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/trace_export.h"
#include "replication/offbox_runner.h"

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
               "usage: %s --txlog HOST:PORT,HOST:PORT,... --store-dir PATH\n"
               "          [--shard-id ID] [--interval-ms N] [--once]\n"
               "          [--trim-slack N] [--no-trim] [--no-fsync]\n"
               "          [--trace-file PATH] [--stats-port N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  memdb::replication::OffboxRunner::Options options;
  uint64_t interval_ms = 10000;
  bool once = false;
  std::string trace_file;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    uint64_t v = 0;
    if (arg == "--txlog" && has_value) {
      options.endpoints = SplitList(argv[++i]);
    } else if (arg == "--store-dir" && has_value) {
      options.store_dir = argv[++i];
    } else if (arg == "--shard-id" && has_value) {
      options.shard_id = argv[++i];
    } else if (arg == "--interval-ms" && has_value && ParseUint(argv[++i], &v) &&
               v > 0) {
      interval_ms = v;
    } else if (arg == "--once") {
      once = true;
    } else if (arg == "--trim-slack" && has_value && ParseUint(argv[++i], &v)) {
      options.trim_slack = v;
    } else if (arg == "--no-trim") {
      options.issue_trim = false;
    } else if (arg == "--no-fsync") {
      options.fsync = false;
    } else if (arg == "--trace-file" && has_value) {
      trace_file = argv[++i];
    } else if (arg == "--stats-port" && has_value && ParseUint(argv[++i], &v) &&
               v <= 65535) {
      options.serve_stats = true;
      options.stats_port = static_cast<uint16_t>(v);
    } else {
      return Usage(argv[0]);
    }
  }
  if (options.endpoints.empty() || options.store_dir.empty()) {
    return Usage(argv[0]);
  }

  memdb::replication::OffboxRunner runner(options);
  const memdb::Status s = runner.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "memorydb-snapshotd: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("memorydb-snapshotd shard %s: store=%s, %zu log endpoints%s\n",
              options.shard_id.c_str(), options.store_dir.c_str(),
              options.endpoints.size(), once ? ", single cycle" : "");
  if (options.serve_stats) {
    std::printf("memorydb-snapshotd: stats on %s:%u\n",
                memdb::replication::OffboxRunner::kStatsBind,
                runner.stats_port());
  }
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGPIPE, SIG_IGN);

  int rc = 0;
  do {
    memdb::replication::CycleResult result;
    const memdb::Status cs = runner.RunCycle(&result);
    if (cs.ok()) {
      std::printf(
          "memorydb-snapshotd: cycle ok: position=%llu replayed=%llu "
          "bytes=%zu%s%s\n",
          static_cast<unsigned long long>(result.applied_index),
          static_cast<unsigned long long>(result.entries_replayed),
          result.snapshot_bytes, result.uploaded ? " uploaded" : " (no-op)",
          result.trimmed_first_index > 0 ? " trimmed" : "");
      rc = 0;
    } else {
      std::fprintf(stderr, "memorydb-snapshotd: cycle failed: %s\n",
                   cs.ToString().c_str());
      rc = 1;
    }
    std::fflush(stdout);
    if (once) break;
    // Sleep in small slices so signals are honored promptly.
    for (uint64_t slept = 0; slept < interval_ms && !g_stop; slept += 50) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  } while (!g_stop);

  std::printf("memorydb-snapshotd: shutting down\n");
  runner.Stop();
  if (!trace_file.empty()) {
    const std::string jsonl =
        memdb::ExportSpansJsonl(runner.trace_log(), "snapshotd");
    std::FILE* f = std::fopen(trace_file.c_str(), "w");
    if (f != nullptr) {
      std::fwrite(jsonl.data(), 1, jsonl.size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "memorydb-snapshotd: cannot write trace file %s\n",
                   trace_file.c_str());
    }
  }
  return once ? rc : 0;
}
