// Loopback throughput benchmark for the real I/O path (src/net): N client
// threads each keep one TCP connection saturated with pipelined SET/GET
// batches against a RespServer on 127.0.0.1, reporting client-side req/s
// and batch-RTT percentiles, plus the server-side batch-size histogram.
// Writes BENCH_net.json to the current directory.
//
//   net_throughput [connections] [pipeline_depth] [seconds] [io_threads]
//
// Defaults (8 conns x 32-deep pipeline, 2s, 4 io threads) finish in a few
// seconds; this is the real-socket counterpart of fig4's simulated
// throughput panels.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_support/envelope.h"
#include "bench_support/metrics_json.h"
#include "client/resp_conn.h"
#include "common/histogram.h"
#include "engine/engine.h"
#include "net/server.h"
#include "resp/resp.h"

namespace memdb::bench {
namespace {

constexpr size_t kValueBytes = 100;
constexpr uint64_t kKeySpace = 10000;
constexpr double kSetRatio = 0.2;

struct ClientStats {
  Histogram batch_rtt_us;
  uint64_t ops = 0;
};

void ClientMain(uint16_t port, int pipeline, int seconds, uint64_t seed,
                ClientStats* stats, std::atomic<bool>* failed) {
  client::RespConn conn(port, /*deadline_ms=*/0);
  if (!conn.connected()) {
    failed->store(true);
    return;
  }
  const std::string value(kValueBytes, 'v');
  uint64_t rng = seed | 1;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    std::string wire;
    for (int i = 0; i < pipeline; ++i) {
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      const std::string key = "key:" + std::to_string((rng >> 33) % kKeySpace);
      if ((rng >> 16 & 0xff) < static_cast<uint64_t>(kSetRatio * 256)) {
        wire += resp::EncodeCommand({"SET", key, value});
      } else {
        wire += resp::EncodeCommand({"GET", key});
      }
    }
    const auto t0 = std::chrono::steady_clock::now();
    if (!conn.Send(wire)) break;
    resp::Value v;
    for (int replies = 0; replies < pipeline; ++replies) {
      if (!conn.ReadReply(&v)) {
        failed->store(true);
        return;
      }
    }
    stats->batch_rtt_us.Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
    stats->ops += static_cast<uint64_t>(pipeline);
  }
}

int Run(int connections, int pipeline, int seconds, int io_threads) {
  engine::Engine engine;
  net::ServerConfig config;
  config.port = 0;
  config.io_threads = io_threads;
  net::RespServer server(&engine, config);
  const Status s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "net_throughput: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf(
      "net_throughput: %d connections x %d-deep pipeline, %ds, "
      "io-threads=%d, port=%u\n",
      connections, pipeline, seconds, io_threads, server.port());

  std::vector<ClientStats> stats(static_cast<size_t>(connections));
  std::atomic<bool> failed{false};
  const auto wall0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int i = 0; i < connections; ++i) {
    threads.emplace_back(ClientMain, server.port(), pipeline, seconds,
                         0x9e3779b9ULL * static_cast<uint64_t>(i + 1),
                         &stats[static_cast<size_t>(i)], &failed);
  }
  for (std::thread& t : threads) t.join();
  const double wall_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - wall0)
          .count();

  // Join the loop thread before scraping its registry.
  server.Stop();

  Histogram rtt;
  uint64_t ops = 0;
  for (const ClientStats& cs : stats) {
    rtt.Merge(cs.batch_rtt_us);
    ops += cs.ops;
  }
  const double reqs_per_sec = wall_s > 0 ? static_cast<double>(ops) / wall_s
                                         : 0;
  std::printf("  reqs/s: %.0f  batch RTT p50=%lluus p99=%lluus (%llu ops)%s\n",
              reqs_per_sec,
              static_cast<unsigned long long>(rtt.Percentile(0.50)),
              static_cast<unsigned long long>(rtt.Percentile(0.99)),
              static_cast<unsigned long long>(ops),
              failed.load() ? "  [SOME CLIENTS FAILED]" : "");

  std::string json = "{";
  json += BenchEnvelopeJson("net_throughput",
                            {{"connections", std::to_string(connections)},
                             {"pipeline", std::to_string(pipeline)},
                             {"io_threads", std::to_string(io_threads)},
                             {"seconds", std::to_string(seconds)}});
  json += ",\"connections\":" + std::to_string(connections);
  json += ",\"pipeline\":" + std::to_string(pipeline);
  json += ",\"io_threads\":" + std::to_string(io_threads);
  json += ",\"seconds\":" + std::to_string(seconds);
  json += ",\"reqs_per_sec\":" + std::to_string(reqs_per_sec);
  json += ",\"batch_rtt_p50_us\":" + std::to_string(rtt.Percentile(0.50));
  json += ",\"batch_rtt_p99_us\":" + std::to_string(rtt.Percentile(0.99));
  json += ",\"ops\":" + std::to_string(ops);
  json += ",\"server\":" +
          MetricsJson(server.metrics(), {"net_batch_commands"},
                      {"net_input_bytes_total", "net_output_bytes_total",
                       "net_connections_accepted_total",
                       "net_evicted_clients_total"});
  json += "}\n";
  std::FILE* f = std::fopen("BENCH_net.json", "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("  wrote BENCH_net.json\n");
  }
  return failed.load() ? 1 : 0;
}

}  // namespace
}  // namespace memdb::bench

int main(int argc, char** argv) {
  const int connections = argc > 1 ? std::atoi(argv[1]) : 8;
  const int pipeline = argc > 2 ? std::atoi(argv[2]) : 32;
  const int seconds = argc > 3 ? std::atoi(argv[3]) : 2;
  const int io_threads = argc > 4 ? std::atoi(argv[4]) : 4;
  if (connections < 1 || pipeline < 1 || seconds < 1 || io_threads < 1) {
    std::fprintf(stderr,
                 "usage: net_throughput [connections] [pipeline] [seconds] "
                 "[io_threads]\n");
    return 2;
  }
  return memdb::bench::Run(connections, pipeline, seconds, io_threads);
}
