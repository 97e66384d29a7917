#include "bench_support/fixtures.h"

namespace memdb::bench {

void PrefillEngine(engine::Engine* engine, uint64_t keys, size_t value_bytes,
                   const std::string& prefix) {
  const std::string value(value_bytes, 'x');
  for (uint64_t i = 0; i < keys; ++i) {
    engine->keyspace().Put(prefix + std::to_string(i), ds::Value(value));
  }
}

MemDbFixture MemDbFixture::Create(const InstanceModel& m, Params params) {
  MemDbFixture f;
  f.sim = std::make_unique<sim::Simulation>(params.seed);
  f.s3 = std::make_unique<storage::ObjectStore>(f.sim.get(),
                                                f.sim->AddHost(0));
  memorydb::Shard::Options so;
  so.shard_id = "bench-shard";
  so.num_replicas = params.replicas;
  so.object_store = f.s3->id();
  so.with_offbox = params.with_offbox;
  so.snapshot_max_log_distance = params.snapshot_max_log_distance;
  so.node_template.io_threads = m.io_threads;
  so.node_template.io_op_cost_ns = m.io_op_ns;
  so.node_template.engine_read_cost_ns = m.memdb_read_ns;
  so.node_template.engine_write_cost_ns = m.memdb_write_ns;
  so.node_template.maxmemory_bytes = params.maxmemory_bytes;
  f.shard = std::make_unique<memorydb::Shard>(f.sim.get(), so);
  f.sim->RunFor(3 * sim::kSec);
  f.primary = f.shard->Primary();
  return f;
}

void MemDbFixture::Prefill(uint64_t keys, size_t value_bytes,
                           const std::string& prefix) {
  for (size_t i = 0; i < shard->num_nodes(); ++i) {
    PrefillEngine(&shard->node(i)->engine(), keys, value_bytes, prefix);
  }
}

RedisFixture RedisFixture::Create(const InstanceModel& m, Params params) {
  RedisFixture f;
  f.sim = std::make_unique<sim::Simulation>(params.seed);
  std::vector<sim::NodeId> ids;
  for (int i = 0; i <= params.replicas; ++i) {
    redisbaseline::BaselineConfig c = params.base_config;
    c.start_as_primary = (i == 0);
    c.io_threads = m.io_threads;
    c.io_op_cost_ns = m.io_op_ns;
    c.engine_read_cost_ns = m.redis_read_ns;
    c.engine_write_cost_ns = m.redis_write_ns;
    c.ram_bytes = m.memory_gb << 30;
    const sim::NodeId id =
        f.sim->AddHost(static_cast<sim::AzId>(i % sim::kNumAzs));
    ids.push_back(id);
    f.nodes.push_back(
        std::make_unique<redisbaseline::BaselineNode>(f.sim.get(), id, c));
  }
  for (auto& n : f.nodes) {
    n->SetPeers(ids);
    n->SetPrimary(ids[0]);
  }
  f.sim->RunFor(200 * sim::kMs);
  f.primary = f.nodes[0].get();
  return f;
}

void RedisFixture::Prefill(uint64_t keys, size_t value_bytes,
                           const std::string& prefix) {
  for (auto& n : nodes) {
    PrefillEngine(&n->engine(), keys, value_bytes, prefix);
  }
}

}  // namespace memdb::bench
