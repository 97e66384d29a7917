#include "loadgen/loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>

#include "client/cluster_client.h"
#include "client/resp_conn.h"
#include "common/metrics.h"
#include "resp/resp.h"

namespace memdb::loadgen {
namespace {

// Connect/send/reply deadline of every load connection.
constexpr uint64_t kRecvTimeoutMs = 5000;

uint64_t NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// FNV-1a on the index bytes: the "scrambled" in scrambled Zipfian — rank 0
// (the hottest item) lands on an arbitrary key id, not key 0.
uint64_t Scramble(uint64_t x) {
  uint64_t h = 1469598103934665603ULL;
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (i * 8)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

// Per-worker recorder: a histogram per elapsed second plus the post-warmup
// aggregate, merged across workers after the run.
struct SecondBucket {
  uint64_t ops = 0;
  uint64_t errors = 0;
  Histogram hist;
};

struct WorkerState {
  Rng rng;
  std::vector<SecondBucket> seconds;
  Histogram measured;  // post-warmup aggregate
  uint64_t ops = 0;
  uint64_t errors = 0;
  uint64_t oom_errors = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  bool failed = false;
  std::string error_detail;

  explicit WorkerState(uint64_t seed) : rng(seed) {}

  SecondBucket& BucketAt(uint64_t elapsed_ms) {
    const size_t idx = static_cast<size_t>(elapsed_ms / 1000);
    if (seconds.size() <= idx) seconds.resize(idx + 1);
    return seconds[idx];
  }

  void Fail(const std::string& what) {
    failed = true;
    if (error_detail.empty()) error_detail = what;
  }
};

struct Op {
  bool is_write;
};

}  // namespace

ZipfianGenerator::ZipfianGenerator(uint64_t n, double theta)
    : n_(n == 0 ? 1 : n), theta_(theta) {
  double zetan = 0;
  for (uint64_t i = 1; i <= n_; ++i) zetan += 1.0 / std::pow(double(i), theta_);
  zetan_ = zetan;
  const double zeta2 = 1.0 + std::pow(0.5, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / double(n_), 1.0 - theta_)) /
         (1.0 - zeta2 / zetan_);
}

uint64_t ZipfianGenerator::Next(Rng& rng) const {
  // Gray et al. "Quickly generating billion-record synthetic databases";
  // the YCSB generator. Returns a rank, scrambled into a key id.
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  uint64_t rank;
  if (uz < 1.0) {
    rank = 0;
  } else if (uz < 1.0 + std::pow(0.5, theta_)) {
    rank = 1;
  } else {
    rank = static_cast<uint64_t>(
        double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    if (rank >= n_) rank = n_ - 1;
  }
  return Scramble(rank) % n_;
}

LoadGenerator::LoadGenerator(LoadConfig config) : config_(std::move(config)) {
  if (config_.threads < 1) config_.threads = 1;
  if (config_.connections < config_.threads) {
    config_.connections = config_.threads;
  }
  if (config_.pipeline < 1) config_.pipeline = 1;
  if (config_.value_max < config_.value_min) {
    config_.value_max = config_.value_min;
  }
  if (config_.keyspace == 0) config_.keyspace = 1;
}

LoadReport LoadGenerator::Run() {
  const LoadConfig& cfg = config_;
  LoadReport report;
  report.warmup_seconds = cfg.warmup_ms / 1000;
  if (cfg.endpoints.empty()) {
    report.ok = false;
    report.error_detail = "no endpoints";
    return report;
  }

  // Zipfian tables are O(keyspace) to build; share one across workers.
  std::unique_ptr<ZipfianGenerator> zipf;
  if (cfg.dist == KeyDist::kZipfian) {
    zipf = std::make_unique<ZipfianGenerator>(cfg.keyspace, cfg.zipf_theta);
  }

  const uint64_t start_ms = NowMs();
  const uint64_t total_ms = cfg.warmup_ms + cfg.duration_ms;
  std::atomic<uint64_t> ops_budget{cfg.duration_ms == 0 ? cfg.total_ops : 0};
  std::vector<std::unique_ptr<WorkerState>> states;
  std::vector<std::thread> workers;

  auto make_key = [&cfg](uint64_t id) {
    return cfg.key_prefix + std::to_string(id);
  };
  auto pick_key = [&](WorkerState& ws) {
    return cfg.dist == KeyDist::kZipfian ? zipf->Next(ws.rng)
                                         : ws.rng.Uniform(cfg.keyspace);
  };
  auto build_command = [&](WorkerState& ws, Op* op,
                           std::vector<std::string>* argv) {
    const uint64_t key_id = pick_key(ws);
    op->is_write = ws.rng.NextDouble() < cfg.write_ratio;
    argv->clear();
    if (op->is_write) {
      const size_t len = cfg.value_min == cfg.value_max
                             ? cfg.value_min
                             : cfg.value_min + ws.rng.Uniform(cfg.value_max -
                                                              cfg.value_min +
                                                              1);
      argv->push_back("SET");
      argv->push_back(make_key(key_id));
      argv->push_back(ws.rng.RandomString(len));
      if (cfg.ttl_ms != 0 && cfg.ttl_fraction > 0 &&
          ws.rng.NextDouble() < cfg.ttl_fraction) {
        argv->push_back("PX");
        argv->push_back(std::to_string(cfg.ttl_ms));
      }
    } else {
      argv->push_back("GET");
      argv->push_back(make_key(key_id));
    }
  };
  auto record_reply = [&](WorkerState& ws, const Op& op,
                          const resp::Value& reply, uint64_t rtt_us,
                          uint64_t elapsed_ms) {
    SecondBucket& bucket = ws.BucketAt(elapsed_ms);
    ++bucket.ops;
    bucket.hist.Record(rtt_us);
    const bool measured = elapsed_ms >= cfg.warmup_ms;
    if (measured) {
      ++ws.ops;
      ws.measured.Record(rtt_us);
    }
    if (reply.IsError()) {
      ++bucket.errors;
      if (measured) {
        ++ws.errors;
        if (reply.str.rfind("OOM", 0) == 0) ++ws.oom_errors;
      }
      if (ws.error_detail.empty()) ws.error_detail = reply.str;
    } else if (!op.is_write) {
      if (reply.IsNull()) {
        if (measured) ++ws.misses;
      } else if (measured) {
        ++ws.hits;
      }
    }
  };
  // True while the run should keep issuing batches. Fixed-op runs draw
  // from the shared budget; fixed-duration runs check the clock.
  auto claim_batch = [&](size_t want) -> size_t {
    if (cfg.duration_ms == 0) {
      uint64_t left = ops_budget.load(std::memory_order_relaxed);
      while (left != 0) {
        const uint64_t take = std::min<uint64_t>(left, want);
        if (ops_budget.compare_exchange_weak(left, left - take,
                                             std::memory_order_relaxed)) {
          return static_cast<size_t>(take);
        }
      }
      return 0;
    }
    return NowMs() - start_ms < total_ms ? want : 0;
  };

  // Standalone worker: owns conns_per_thread sockets; per round sends a
  // pipelined batch on every socket, then drains them all, overlapping
  // server-side work across its connections.
  auto direct_worker = [&](WorkerState* ws, int nconns) {
    std::vector<client::RespConn> conns(static_cast<size_t>(nconns));
    for (client::RespConn& conn : conns) {
      if (!conn.Connect(cfg.endpoints[0], kRecvTimeoutMs)) {
        ws->Fail("connect " + cfg.endpoints[0] + " failed");
        return;
      }
    }
    const size_t depth = static_cast<size_t>(cfg.pipeline);
    std::vector<std::vector<Op>> inflight(conns.size());
    std::vector<uint64_t> sent_us(conns.size());
    std::vector<std::string> argv;
    std::string wire;
    for (;;) {
      bool any = false;
      for (size_t c = 0; c < conns.size(); ++c) {
        inflight[c].clear();
        const size_t batch = claim_batch(depth);
        if (batch == 0) continue;
        any = true;
        wire.clear();
        for (size_t i = 0; i < batch; ++i) {
          Op op;
          build_command(*ws, &op, &argv);
          wire += resp::EncodeCommand(argv);
          inflight[c].push_back(op);
        }
        sent_us[c] = NowUs();
        if (!conns[c].Send(wire)) {
          ws->Fail("send failed");
          return;
        }
      }
      if (!any) return;
      for (size_t c = 0; c < conns.size(); ++c) {
        for (const Op& op : inflight[c]) {
          resp::Value reply;
          if (!conns[c].ReadReply(&reply)) {
            ws->Fail("recv failed or timed out");
            return;
          }
          record_reply(*ws, op, reply, NowUs() - sent_us[c],
                       NowMs() - start_ms);
        }
      }
    }
  };

  // Cluster worker: one slot-routing ClusterClient per thread, strict
  // request-response (the redirect protocol is per-command; pipelining
  // stays a standalone-mode feature).
  auto cluster_worker = [&](WorkerState* ws) {
    client::ClusterClient::Options opts;
    opts.recv_timeout_ms = kRecvTimeoutMs;
    client::ClusterClient cc(cfg.endpoints, opts);
    std::vector<std::string> argv;
    for (;;) {
      if (claim_batch(1) == 0) return;
      Op op;
      build_command(*ws, &op, &argv);
      const uint64_t t0 = NowUs();
      resp::Value reply;
      const Status s = cc.Execute(argv, &reply);
      if (!s.ok()) {
        ws->Fail("cluster execute: " + s.ToString());
        return;
      }
      record_reply(*ws, op, reply, NowUs() - t0, NowMs() - start_ms);
    }
  };

  const int nthreads = cfg.cluster ? cfg.connections : cfg.threads;
  for (int t = 0; t < nthreads; ++t) {
    states.push_back(std::make_unique<WorkerState>(
        cfg.seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(t) + 1));
  }
  for (int t = 0; t < nthreads; ++t) {
    WorkerState* ws = states[static_cast<size_t>(t)].get();
    if (cfg.cluster) {
      workers.emplace_back(cluster_worker, ws);
    } else {
      // Spread the connection count across threads, remainder to the first.
      const int base = cfg.connections / cfg.threads;
      const int extra = t < cfg.connections % cfg.threads ? 1 : 0;
      workers.emplace_back(direct_worker, ws, base + extra);
    }
  }
  for (std::thread& th : workers) th.join();
  const uint64_t end_ms = NowMs();

  // Merge workers.
  size_t max_seconds = 0;
  for (const auto& ws : states) {
    max_seconds = std::max(max_seconds, ws->seconds.size());
  }
  std::vector<Histogram> merged(max_seconds);
  report.per_second.resize(max_seconds);
  for (const auto& ws : states) {
    if (ws->failed) {
      report.ok = false;
      if (report.error_detail.empty()) report.error_detail = ws->error_detail;
    } else if (report.error_detail.empty() && !ws->error_detail.empty()) {
      report.error_detail = ws->error_detail;
    }
    report.ops += ws->ops;
    report.errors += ws->errors;
    report.oom_errors += ws->oom_errors;
    report.hits += ws->hits;
    report.misses += ws->misses;
    report.latency.Merge(ws->measured);
    for (size_t s = 0; s < ws->seconds.size(); ++s) {
      report.per_second[s].ops += ws->seconds[s].ops;
      report.per_second[s].errors += ws->seconds[s].errors;
      merged[s].Merge(ws->seconds[s].hist);
    }
  }
  for (size_t s = 0; s < max_seconds; ++s) {
    report.per_second[s].p50_us = merged[s].Percentile(0.50);
    report.per_second[s].p99_us = merged[s].Percentile(0.99);
  }
  const uint64_t run_ms = end_ms - start_ms;
  report.seconds =
      run_ms > cfg.warmup_ms ? double(run_ms - cfg.warmup_ms) / 1000.0 : 0;
  report.throughput =
      report.seconds > 0 ? double(report.ops) / report.seconds : 0;
  return report;
}

bool ScrapeMetric(const std::string& endpoint, const std::string& series,
                  double* value) {
  client::RespConn conn;
  resp::Value reply;
  if (!conn.Connect(endpoint, 2000) || !conn.RoundTrip({"METRICS"}, &reply) ||
      reply.IsError()) {
    return false;
  }
  return MetricsRegistry::ParseSeries(reply.str, series, value);
}

std::string ReportJson(const LoadReport& report) {
  std::string out = "{";
  out += "\"ok\":" + std::string(report.ok ? "true" : "false");
  out += ",\"ops\":" + std::to_string(report.ops);
  out += ",\"errors\":" + std::to_string(report.errors);
  out += ",\"oom_errors\":" + std::to_string(report.oom_errors);
  out += ",\"hits\":" + std::to_string(report.hits);
  out += ",\"misses\":" + std::to_string(report.misses);
  out += ",\"seconds\":" + std::to_string(report.seconds);
  out += ",\"throughput_ops_s\":" + std::to_string(report.throughput);
  out += ",\"p50_us\":" + std::to_string(report.latency.Percentile(0.50));
  out += ",\"p99_us\":" + std::to_string(report.latency.Percentile(0.99));
  out += ",\"p999_us\":" + std::to_string(report.latency.Percentile(0.999));
  out += ",\"max_us\":" + std::to_string(report.latency.max());
  out += ",\"warmup_seconds\":" + std::to_string(report.warmup_seconds);
  out += ",\"per_second\":[";
  for (size_t i = 0; i < report.per_second.size(); ++i) {
    const SecondSample& s = report.per_second[i];
    if (i != 0) out += ",";
    out += "{\"t\":" + std::to_string(i) + ",\"ops\":" +
           std::to_string(s.ops) + ",\"errors\":" + std::to_string(s.errors) +
           ",\"p50_us\":" + std::to_string(s.p50_us) + ",\"p99_us\":" +
           std::to_string(s.p99_us) + "}";
  }
  out += "]}";
  return out;
}

std::string ConfigJson(const LoadConfig& config) {
  std::string eps = "[";
  for (size_t i = 0; i < config.endpoints.size(); ++i) {
    if (i != 0) eps += ",";
    eps += "\"" + config.endpoints[i] + "\"";
  }
  eps += "]";
  std::string out = "{";
  out += "\"endpoints\":" + eps;
  out += ",\"cluster\":" + std::string(config.cluster ? "true" : "false");
  out += ",\"connections\":" + std::to_string(config.connections);
  out += ",\"threads\":" + std::to_string(config.threads);
  out += ",\"keyspace\":" + std::to_string(config.keyspace);
  out += ",\"dist\":\"" +
         std::string(config.dist == KeyDist::kZipfian ? "zipfian"
                                                      : "uniform") +
         "\"";
  out += ",\"zipf_theta\":" + std::to_string(config.zipf_theta);
  out += ",\"write_ratio\":" + std::to_string(config.write_ratio);
  out += ",\"value_min\":" + std::to_string(config.value_min);
  out += ",\"value_max\":" + std::to_string(config.value_max);
  out += ",\"pipeline\":" + std::to_string(config.pipeline);
  out += ",\"ttl_fraction\":" + std::to_string(config.ttl_fraction);
  out += ",\"ttl_ms\":" + std::to_string(config.ttl_ms);
  out += ",\"duration_ms\":" + std::to_string(config.duration_ms);
  out += ",\"total_ops\":" + std::to_string(config.total_ops);
  out += ",\"warmup_ms\":" + std::to_string(config.warmup_ms);
  out += ",\"seed\":" + std::to_string(config.seed);
  out += "}";
  return out;
}

}  // namespace memdb::loadgen
