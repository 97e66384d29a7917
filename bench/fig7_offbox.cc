// Figure 7 — MemoryDB throughput and latency while an off-box cluster takes
// a snapshot (§6.2.2).
//
// Same workload shape as Figure 6 (mixed GET/SET, 500-byte values) against
// a MemoryDB shard; a shadow off-box replica restores from S3 + the
// transaction log and dumps a fresh snapshot in parallel.
//
// Expected shape (paper): average latency around a millisecond with p100
// between ~10 and ~20 ms throughout — stable before, during, and after the
// snapshot, because the customer cluster is not involved at all. (The p100
// reflects reads that hit a key with an in-flight commit and wait on the
// tracker.)

#include <cstdio>

#include "bench_support/driver.h"
#include "bench_support/fixtures.h"
#include "bench_support/instances.h"

namespace memdb::bench {
namespace {

constexpr uint64_t kGiB = 1ULL << 30;

void Run() {
  const InstanceModel& m = R7g("r7g.large");
  MemDbFixture::Params params;
  params.replicas = 1;
  params.with_offbox = true;
  // Freshness check disabled (huge distance); the bench triggers one snapshot
  // explicitly so the timeline is aligned.
  params.snapshot_max_log_distance = ~0ULL >> 2;
  MemDbFixture f = MemDbFixture::Create(m, params);
  if (f.primary == nullptr) {
    std::printf("bootstrap failed\n");
    return;
  }
  f.shard->offbox()->SetSyntheticDatasetBytes(10 * kGiB);
  f.Prefill(20'000, 500);

  LoadDriver::Options read_opts;
  read_opts.connections = 100;
  read_opts.set_ratio = 0.0;
  read_opts.value_bytes = 500;
  read_opts.key_space = 20'000;
  LoadDriver readers(f.sim.get(), f.sim->AddHost(0), f.primary->id(),
                     read_opts);
  LoadDriver::Options write_opts = read_opts;
  write_opts.connections = 20;
  write_opts.set_ratio = 1.0;
  write_opts.seed = 99;
  LoadDriver writers(f.sim.get(), f.sim->AddHost(0), f.primary->id(),
                     write_opts);
  readers.Start();
  writers.Start();

  std::printf("%6s %12s %10s %10s %s\n", "t[s]", "thruput[op/s]", "avg[ms]",
              "p100[ms]", "phase");
  const int kSnapshotStartSec = 5;
  bool snapshot_done = false;
  bool snapshot_started = false;
  int done_at = 1 << 30;
  for (int sec = 1; sec <= 60; ++sec) {
    if (sec == kSnapshotStartSec) {
      snapshot_started = true;
      f.shard->offbox()->Snapshot([&](const Status& s, uint64_t position) {
        snapshot_done = true;
        if (!s.ok()) {
          std::printf("snapshot failed: %s\n", s.ToString().c_str());
        }
      });
    }
    readers.ResetStats();
    writers.ResetStats();
    f.sim->RunFor(1 * sim::kSec);
    Histogram all;
    all.Merge(readers.read_latency());
    all.Merge(writers.write_latency());
    const char* phase =
        !snapshot_started ? "before"
                          : (snapshot_done ? "after" : "OFF-BOX SNAPSHOT");
    std::printf("%6d %12.0f %10.2f %10.2f %s\n", sec,
                readers.Throughput() + writers.Throughput(),
                all.Mean() / 1000.0,
                static_cast<double>(all.max()) / 1000.0, phase);
    std::fflush(stdout);
    if (snapshot_done && done_at > sec) done_at = sec;
    if (sec > done_at + 3) break;
  }
  std::printf("snapshots created: %llu, verification failures: %d\n",
              static_cast<unsigned long long>(
                  f.shard->offbox()->snapshots_created()),
              f.shard->offbox()->verification_failed() ? 1 : 0);
}

}  // namespace
}  // namespace memdb::bench

int main() {
  std::printf(
      "Figure 7: MemoryDB during off-box snapshotting (mixed workload, "
      "500B values)\n");
  memdb::bench::Run();
  return 0;
}
