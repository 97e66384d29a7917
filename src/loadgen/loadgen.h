// loadgen: a memtier-style multi-connection load generator over the real
// RESP socket path — the workload half of DESIGN.md "Memory pressure & load
// harness". N client connections spread across a small thread pool drive a
// GET/SET mix with a configurable key distribution (scrambled Zipfian or
// uniform over millions of keys), value-size distribution, pipelining
// depth, warmup, and fixed-duration or fixed-op runs; a per-second
// HDR-style recorder yields throughput and latency-percentile trajectories
// for the standing BENCH_load.json envelope.
//
// Threading: deliberately client-side blocking sockets (client::RespConn)
// on plain threads — like client::ClusterClient, this is never an event
// loop and stays OFF the loop-owned dirs in tools/memdb_analyzer.py.

#ifndef MEMDB_LOADGEN_LOADGEN_H_
#define MEMDB_LOADGEN_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"

namespace memdb::loadgen {

enum class KeyDist { kUniform, kZipfian };

struct LoadConfig {
  // "host:port" targets. Standalone mode uses endpoints[0]; cluster mode
  // treats them all as seeds for client::ClusterClient slot discovery.
  std::vector<std::string> endpoints;
  bool cluster = false;

  int connections = 8;  // total sockets, spread round-robin across threads
  int threads = 2;

  uint64_t keyspace = 1'000'000;  // distinct keys addressed
  KeyDist dist = KeyDist::kZipfian;
  double zipf_theta = 0.99;  // YCSB-style skew for kZipfian
  std::string key_prefix = "key:";

  double write_ratio = 0.2;  // fraction of ops that are SET
  size_t value_min = 64;     // SET payload size, uniform in [min, max]
  size_t value_max = 64;
  int pipeline = 8;  // commands in flight per connection per round

  // With probability `ttl_fraction` a SET carries PX `ttl_ms` — the knob
  // behind expiry-storm phases.
  double ttl_fraction = 0.0;
  uint64_t ttl_ms = 0;

  uint64_t duration_ms = 10'000;  // measured window; 0 = use total_ops
  uint64_t total_ops = 0;         // fixed-op budget when duration_ms == 0
  uint64_t warmup_ms = 1'000;     // excluded from totals, kept per-second

  uint64_t seed = 42;
};

// One second of the run, workers merged. Seconds [0, warmup_seconds) are
// the warmup.
struct SecondSample {
  uint64_t ops = 0;
  uint64_t errors = 0;
  uint64_t p50_us = 0;
  uint64_t p99_us = 0;
};

struct LoadReport {
  bool ok = true;            // false on connect/protocol-level failure
  std::string error_detail;  // first failure or error reply seen

  // Totals over the measured (post-warmup) window.
  uint64_t ops = 0;
  uint64_t errors = 0;      // error replies (-OOM counted separately too)
  uint64_t oom_errors = 0;  // subset of `errors` that were -OOM
  uint64_t hits = 0;        // GET found
  uint64_t misses = 0;      // GET nil
  double seconds = 0;
  double throughput = 0;  // ops / seconds
  Histogram latency;      // µs, batch-RTT per op, post-warmup

  uint64_t warmup_seconds = 0;
  std::vector<SecondSample> per_second;  // whole run including warmup
};

// YCSB-style Zipfian over [0, n) (Gray et al. approximation) with FNV
// scrambling so the hot items spread across the key space — and, in
// cluster mode, across hash slots.
class ZipfianGenerator {
 public:
  ZipfianGenerator(uint64_t n, double theta);
  uint64_t Next(Rng& rng) const;  // in [0, n)

 private:
  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
};

class LoadGenerator {
 public:
  explicit LoadGenerator(LoadConfig config);

  // Runs the configured workload to completion and merges the per-worker
  // recorders. Blocking; spawns config.threads workers internally.
  LoadReport Run();

  const LoadConfig& config() const { return config_; }

 private:
  LoadConfig config_;
};

// Scrapes one counter/gauge series from a server's RESP METRICS exposition
// (sums across labeled series of that name). False on connect/protocol
// failure.
bool ScrapeMetric(const std::string& endpoint, const std::string& series,
                  double* value);

// Renders the report as a raw JSON object ({"ops":...,"per_second":[...]})
// for splicing into a BENCH_load.json phase; pairs with
// bench::BenchEnvelopeJson, which handles the envelope itself.
std::string ReportJson(const LoadReport& report);

// Config echo as raw JSON (key/value pairs mirror the flag names).
std::string ConfigJson(const LoadConfig& config);

}  // namespace memdb::loadgen

#endif  // MEMDB_LOADGEN_LOADGEN_H_
