// M1 — engine micro-benchmarks (google-benchmark): raw command execution
// cost of the in-memory engine, outside the simulator. These numbers ground
// the CPU cost model in bench_support/instances.cc.

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "engine/snapshot.h"

namespace memdb::engine {
namespace {

class EngineBench {
 public:
  EngineBench() {
    ctx_.now_ms = 1;
    ctx_.rng = &engine_.rng();
  }
  resp::Value Run(const Argv& argv) {
    ctx_.effects.clear();
    ctx_.dirty_keys.clear();
    return engine_.Execute(argv, &ctx_);
  }
  Engine& engine() { return engine_; }

 private:
  Engine engine_;
  ExecContext ctx_;
};

void BM_Set(benchmark::State& state) {
  EngineBench e;
  const std::string value(100, 'x');
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        e.Run({"SET", "key:" + std::to_string(i++ % 10000), value}));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Set);

void BM_GetHit(benchmark::State& state) {
  EngineBench e;
  for (int i = 0; i < 10000; ++i) {
    e.Run({"SET", "key:" + std::to_string(i), std::string(100, 'x')});
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.Run({"GET", "key:" + std::to_string(i++ % 10000)}));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_GetHit);

// durbench's key shape: 'k' plus 16 hex digits, 100-byte values, 100K
// keys. Each key and value needs a heap block (17 bytes is past the inline
// string buffer), and the keyspace outgrows the caches, so these two show
// the keyspace's layout where BM_Set and BM_GetHit cannot.
constexpr size_t kWideKeys = 100000;

std::vector<std::string> WideKeys() {
  Rng rng(7);
  std::vector<std::string> keys;
  keys.reserve(kWideKeys);
  char buf[24];
  for (size_t i = 0; i < kWideKeys; ++i) {
    std::snprintf(buf, sizeof(buf), "k%016llx",
                  static_cast<unsigned long long>(rng.Next()));
    keys.emplace_back(buf);
  }
  return keys;
}

size_t HeapInUse() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

// SETs every key once and reports the heap the fill took per key.
void FillWide(benchmark::State& state, EngineBench& e,
              const std::vector<std::string>& keys, const std::string& value) {
  const size_t before = HeapInUse();
  for (const std::string& k : keys) e.Run({"SET", k, value});
  state.counters["heap_bytes_per_key"] =
      static_cast<double>(HeapInUse() - before) /
      static_cast<double>(keys.size());
}

void BM_SetReplaceWide(benchmark::State& state) {
  EngineBench e;
  const std::vector<std::string> keys = WideKeys();
  const std::string value(100, 'x');
  FillWide(state, e, keys, value);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.Run({"SET", keys[i++ % kWideKeys], value}));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SetReplaceWide);

void BM_GetHitWide(benchmark::State& state) {
  EngineBench e;
  const std::vector<std::string> keys = WideKeys();
  FillWide(state, e, keys, std::string(100, 'x'));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.Run({"GET", keys[i++ % kWideKeys]}));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_GetHitWide);

// SET of a new key into a keyspace of kWideKeys durbench-shaped keys held
// at its allkeys-lru budget, so every SET runs a sampled eviction round
// (5 samples). The argument spreads the keys over hash tags: 0 is none
// (every slot), 100 stands for a cluster node that owns 100 slots, and 1
// puts every key in one slot's table.
void BM_SetEvictWide(benchmark::State& state) {
  const uint64_t tags = static_cast<uint64_t>(state.range(0));
  EngineBench e;
  Rng rng(7);
  uint64_t n = 0;
  char buf[40];
  const auto next_key = [&] {
    const auto id = static_cast<unsigned long long>(rng.Next());
    if (tags == 0) {
      std::snprintf(buf, sizeof(buf), "k%016llx", id);
    } else {
      std::snprintf(buf, sizeof(buf), "{%llu}k%016llx",
                    static_cast<unsigned long long>(n++ % tags), id);
    }
    return std::string(buf);
  };
  const std::string value(100, 'x');
  for (size_t i = 0; i < kWideKeys; ++i) e.Run({"SET", next_key(), value});
  Engine& engine = e.engine();
  engine.set_maxmemory(engine.keyspace().used_memory());
  engine.set_eviction_policy(EvictionPolicy::kAllKeysLru);
  const size_t before = engine.keyspace().Size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.Run({"SET", next_key(), value}));
  }
  const size_t after = engine.keyspace().Size();
  state.counters["evictions_per_set"] =
      static_cast<double>(before + static_cast<size_t>(state.iterations()) -
                          after) /
      static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SetEvictWide)->Arg(0)->Arg(100)->Arg(1);

void BM_GetMiss(benchmark::State& state) {
  EngineBench e;
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.Run({"GET", "absent"}));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_GetMiss);

void BM_Incr(benchmark::State& state) {
  EngineBench e;
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.Run({"INCR", "counter"}));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Incr);

void BM_LPushRPop(benchmark::State& state) {
  EngineBench e;
  for (auto _ : state) {
    e.Run({"LPUSH", "list", "element"});
    benchmark::DoNotOptimize(e.Run({"RPOP", "list"}));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_LPushRPop);

void BM_HSet(benchmark::State& state) {
  EngineBench e;
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        e.Run({"HSET", "hash", "f" + std::to_string(i++ % 1000), "value"}));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HSet);

void BM_ZAdd(benchmark::State& state) {
  EngineBench e;
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.Run({"ZADD", "zset", std::to_string(i % 5000),
                                    "m" + std::to_string(i % 5000)}));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ZAdd);

void BM_ZRangeTop10(benchmark::State& state) {
  EngineBench e;
  for (int i = 0; i < 10000; ++i) {
    e.Run({"ZADD", "zset", std::to_string(i), "m" + std::to_string(i)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        e.Run({"ZRANGE", "zset", "0", "9", "REV", "WITHSCORES"}));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ZRangeTop10);

void BM_SAddSpop(benchmark::State& state) {
  EngineBench e;
  uint64_t i = 0;
  for (auto _ : state) {
    e.Run({"SADD", "set", std::to_string(i++ % 4096)});
    benchmark::DoNotOptimize(e.Run({"SPOP", "set"}));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_SAddSpop);

void BM_SnapshotSerialize10k(benchmark::State& state) {
  EngineBench e;
  for (int i = 0; i < 10000; ++i) {
    e.Run({"SET", "key:" + std::to_string(i), std::string(100, 'x')});
  }
  SnapshotMeta meta;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SerializeSnapshot(e.engine().keyspace(), meta));
  }
}
BENCHMARK(BM_SnapshotSerialize10k);

void BM_SnapshotRestore10k(benchmark::State& state) {
  EngineBench e;
  for (int i = 0; i < 10000; ++i) {
    e.Run({"SET", "key:" + std::to_string(i), std::string(100, 'x')});
  }
  SnapshotMeta meta;
  const std::string blob = SerializeSnapshot(e.engine().keyspace(), meta);
  Engine target;
  for (auto _ : state) {
    SnapshotMeta m2;
    benchmark::DoNotOptimize(
        DeserializeSnapshot(blob, &target.keyspace(), &m2));
  }
}
BENCHMARK(BM_SnapshotRestore10k);

}  // namespace
}  // namespace memdb::engine

BENCHMARK_MAIN();
