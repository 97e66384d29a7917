#include "bench_support/command_path.h"

#include <cstdio>

#include "common/rng.h"
#include "loadgen/loadgen.h"

namespace memdb::bench {

GetBatchPath::GetBatchPath(size_t keys, size_t batch, uint64_t seed)
    : batch_(batch), slots_(batch) {
  Rng rng(seed);
  std::vector<std::string> names;
  names.reserve(keys);
  char buf[24];
  for (size_t i = 0; i < keys; ++i) {
    std::snprintf(buf, sizeof(buf), "k%016llx",
                  static_cast<unsigned long long>(rng.Next()));
    names.emplace_back(buf);
  }
  ctx_.now_ms = 1;
  ctx_.rng = &engine_.rng();
  const std::string value(100, 'v');
  for (const std::string& name : names) {
    engine_.Execute({"SET", name, value}, &ctx_);
    ctx_.effects.clear();
    ctx_.dirty_keys.clear();
  }
  const loadgen::ZipfianGenerator zipf(keys, 0.99);
  for (size_t b = 0; b < kBatches; ++b) {
    std::string wire;
    for (size_t i = 0; i < batch; ++i) {
      wire += resp::EncodeCommand({"GET", names[zipf.Next(rng) % keys]});
    }
    wires_.push_back(std::move(wire));
  }
}

size_t GetBatchPath::RunBatch() {
  decoder_.Feed(Slice(wires_[next_]));
  next_ = next_ + 1 == wires_.size() ? 0 : next_ + 1;
  size_t decoded = 0;
  while (decoded < slots_.size() &&
         decoder_.DecodeCommand(&slots_[decoded]) == resp::DecodeStatus::kOk) {
    ++decoded;
  }
  size_t hits = 0;
  out_.clear();
  for (size_t i = 0; i < decoded; ++i) {
    const engine::Argv& argv = slots_[i];
    const engine::CommandSpec* spec = engine_.FindCommand(argv[0]);
    const resp::Value reply = engine_.Execute(spec, argv, &ctx_);
    hits += reply.IsNull() ? 0 : 1;
    reply.EncodeTo(&out_);
  }
  return hits;
}

}  // namespace memdb::bench
