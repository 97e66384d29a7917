// Per-layer attribution for the traced run: in-process timings of the
// public calls each layer exposes, run on the workload's own inputs, and
// the span report merged from the daemons' --trace-file exports.

#ifndef DURBENCH_LAYERS_H_
#define DURBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "bench.h"

namespace durbench {

// Times resp::Decoder / Value::EncodeTo, engine::Engine::Execute,
// replication::ApplyEffectBatch, storage::FsObjectStore::Get,
// replication::RestoreFromStore + ReplayLogTail against the live log group
// and snapshot store, and txlog::RemoteClient::AppendSync (last: it
// appends probe records to the log). Returns one flat JSON object.
std::string MeasureLayers(const Shape& shape,
                          const std::vector<std::string>& keys,
                          const std::vector<std::string>& txlog_endpoints,
                          const std::string& store_dir);

// Merges the JSONL span files with common/trace_export and returns the
// per-stage p50s (µs) of the durable write chain as one flat JSON object.
std::string AttributeSpans(const std::vector<std::string>& files);

}  // namespace durbench

#endif  // DURBENCH_LAYERS_H_
