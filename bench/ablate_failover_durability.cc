// Ablation A1 — acknowledged-write durability across failover (§2.2 / §4.1).
//
// Both systems run the same experiment: a client streams SETs with unique
// values, the primary is killed mid-stream, a replacement takes over, and
// we count acknowledged writes that the surviving cluster no longer has.
//
// Expected: Redis (asynchronous replication, ranked failover) loses the
// tail of acknowledged writes that had not been flushed to any replica;
// MemoryDB loses none — a write is only acknowledged after commit to the
// multi-AZ transaction log, and only fully caught-up replicas can win
// election. We also report the write-availability gap (time from crash to
// the first successful write on the new primary).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_support/fixtures.h"
#include "client/db_client.h"
#include "bench_support/instances.h"

namespace memdb::bench {
namespace {

using client::ClientActor;
using resp::Value;
using sim::kMs;
using sim::kSec;

struct TrialResult {
  int acked = 0;
  int lost = 0;
  double gap_ms = 0;  // crash -> first successful write
};

// Runs the experiment against an already-bootstrapped cluster.
template <typename CrashFn, typename AliveFn>
TrialResult RunTrial(sim::Simulation* sim, ClientActor* client,
                     CrashFn crash_primary, AliveFn cluster_has_primary,
                     uint64_t seed) {
  TrialResult result;
  std::vector<std::string> acked_keys;
  // Phase 1: stream writes; crash the primary mid-stream without waiting
  // for quiescence.
  int completed = 0;
  int issued = 0;
  bool crashed = false;
  sim::Time crash_time = 0;
  while (issued < 400) {
    const std::string key =
        "d" + std::to_string(seed) + "-" + std::to_string(issued);
    ++issued;
    bool done = false;
    client->db.Command({"SET", key, "v"}, [&](const Value& v) {
      if (v == Value::Ok()) acked_keys.push_back(key);
      done = true;
      ++completed;
    });
    // Poll briefly; do not wait for every reply (writes overlap the crash).
    for (int t = 0; t < 4 && !done; ++t) sim->RunFor(500);
    if (!crashed && issued == 300) {
      crash_time = sim->Now();
      crash_primary();
      crashed = true;
    }
  }
  // Let the failover finish and in-flight replies drain.
  sim->RunFor(5 * kSec);
  result.acked = static_cast<int>(acked_keys.size());

  // Availability gap: first successful write after the crash.
  bool recovered = false;
  while (!recovered) {
    bool done = false;
    client->db.Command({"SET", "probe", "x"}, [&](const Value& v) {
      recovered = (v == Value::Ok());
      done = true;
    });
    for (int t = 0; t < 20000 && !done; ++t) sim->RunFor(1 * kMs);
    if (!done) break;
  }
  result.gap_ms =
      static_cast<double>(sim->Now() - crash_time) / 1000.0 - 5000.0;
  if (result.gap_ms < 0) result.gap_ms = 0;

  // Phase 2: count acked writes that are gone.
  for (const std::string& key : acked_keys) {
    bool done = false;
    bool present = false;
    client->db.Command({"GET", key}, [&](const Value& v) {
      present = (v.type == resp::Type::kBulkString);
      done = true;
    });
    for (int t = 0; t < 20000 && !done; ++t) sim->RunFor(1 * kMs);
    if (!present) ++result.lost;
  }
  return result;
}

void Run() {
  std::printf("%-10s %-6s %8s %8s %14s\n", "system", "trial", "acked",
              "lost", "gap-to-write");
  const InstanceModel& m = R7g("r7g.2xlarge");

  int memdb_total_lost = 0, redis_total_lost = 0;
  for (uint64_t trial = 1; trial <= 3; ++trial) {
    {
      MemDbFixture::Params p;
      p.replicas = 2;
      p.seed = trial;
      MemDbFixture f = MemDbFixture::Create(m, p);
      ClientActor client(f.sim.get(), f.sim->AddHost(0),
                         f.shard->node_ids());
      TrialResult r = RunTrial(
          f.sim.get(), &client,
          [&] {
            memorydb::Node* primary = f.shard->Primary();
            if (primary != nullptr) f.sim->Crash(primary->id());
          },
          [&] { return f.shard->Primary() != nullptr; }, trial);
      memdb_total_lost += r.lost;
      std::printf("%-10s %-6llu %8d %8d %11.0f ms\n", "MemoryDB",
                  static_cast<unsigned long long>(trial), r.acked, r.lost,
                  r.gap_ms);
    }
    {
      RedisFixture::Params p;
      p.replicas = 2;
      p.seed = trial;
      p.base_config.repl_flush_interval = 20 * kMs;
      RedisFixture f = RedisFixture::Create(m, p);
      ClientActor client(f.sim.get(), f.sim->AddHost(0), [&] {
        std::vector<sim::NodeId> ids;
        for (auto& n : f.nodes) ids.push_back(n->id());
        return ids;
      }());
      TrialResult r = RunTrial(
          f.sim.get(), &client,
          [&] { f.sim->Crash(f.nodes[0]->id()); },
          [&] {
            for (auto& n : f.nodes) {
              if (f.sim->IsAlive(n->id()) && n->IsPrimary()) return true;
            }
            return false;
          },
          trial);
      redis_total_lost += r.lost;
      std::printf("%-10s %-6llu %8d %8d %11.0f ms\n", "Redis",
                  static_cast<unsigned long long>(trial), r.acked, r.lost,
                  r.gap_ms);
    }
    std::fflush(stdout);
  }
  std::printf(
      "\ntotal acknowledged writes lost: MemoryDB=%d  Redis=%d\n"
      "(paper: MemoryDB must lose zero; Redis loses the unreplicated "
      "tail)\n",
      memdb_total_lost, redis_total_lost);
}

}  // namespace
}  // namespace memdb::bench

int main() {
  std::printf("Ablation A1: acknowledged-write durability across primary "
              "failover\n");
  memdb::bench::Run();
  return 0;
}
