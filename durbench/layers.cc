#include "layers.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <sstream>

#include "common/coding.h"
#include "common/trace_export.h"
#include "engine/engine.h"
#include "replication/recovery.h"
#include "replication/snapshot_store.h"
#include "resp/resp.h"
#include "rpc/loop.h"
#include "storage/fs_object_store.h"
#include "txlog/record.h"
#include "txlog/remote_client.h"
#include "txlog/wire.h"

namespace durbench {
namespace {

using Clock = std::chrono::steady_clock;

double NsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

// Exact quantile of the samples (nearest rank).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const size_t k =
      std::min(v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return v[k];
}

// Median of whole-microsecond span deltas, interpolated inside the
// median's 1 µs bucket (the grouped-data median), so stamp resolution does
// not pin it to an integer.
double GroupedMedian(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double half = static_cast<double>(v.size()) / 2;
  const double m = v[v.size() / 2];
  const auto lo = std::lower_bound(v.begin(), v.end(), m);
  const auto hi = std::upper_bound(v.begin(), v.end(), m);
  return m - 0.5 +
         (half - static_cast<double>(lo - v.begin())) /
             static_cast<double>(hi - lo);
}

// Same wire form memorydb-server appends (engine version, then argc + argv
// per effect), so the probes feed the log and the replay path real records.
std::string EncodeEffectBatch(const std::vector<memdb::engine::Argv>& effects) {
  std::string out;
  memdb::PutLengthPrefixed(&out, "7.0.7");
  for (const memdb::engine::Argv& argv : effects) {
    memdb::PutVarint64(&out, argv.size());
    for (const std::string& a : argv) memdb::PutLengthPrefixed(&out, a);
  }
  return out;
}

// The workload's own command stream: write_heavy's 50/50 SET/GET over
// uniform keys, read_mostly's readers' Zipfian GETs.
std::vector<memdb::engine::Argv> WorkloadCommands(
    const Shape& shape, const std::vector<std::string>& keys, size_t n,
    bool sets) {
  memdb::Rng rng(Mix64(shape.seed ^ 0x1a7e5));
  std::vector<memdb::engine::Argv> out;
  out.reserve(n);
  if (sets) {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t k =
          shape.write_base + static_cast<uint32_t>(rng.Uniform(shape.write_keys));
      out.push_back({"SET", keys[k], MakeValue(shape, k, 1)});
    }
    return out;
  }
  if (shape.workload == Workload::kReadMostly) {
    const ZipfKeys zipf(shape.read_keys, 0.99, shape.seed);
    for (size_t i = 0; i < n; ++i) out.push_back({"GET", keys[zipf.Next(rng)]});
  } else {
    for (size_t i = 0; i < n; ++i) {
      out.push_back({"GET", keys[rng.Uniform(shape.read_keys)]});
    }
  }
  return out;
}

std::vector<memdb::engine::Argv> RequestMix(
    const Shape& shape, const std::vector<std::string>& keys, size_t n) {
  std::vector<memdb::engine::Argv> gets = WorkloadCommands(shape, keys, n, false);
  if (shape.workload == Workload::kReadMostly) return gets;
  const std::vector<memdb::engine::Argv> sets =
      WorkloadCommands(shape, keys, n / 2, true);
  for (size_t i = 0; i < sets.size(); ++i) gets[2 * i] = sets[i];
  return gets;
}

void MeasureResp(const Shape& shape, const std::vector<std::string>& keys,
                 Json* j) {
  constexpr size_t kCommands = 50000;
  const std::vector<memdb::engine::Argv> cmds = RequestMix(shape, keys, kCommands);
  std::string wire;
  std::vector<memdb::resp::Value> replies;
  for (const memdb::engine::Argv& argv : cmds) {
    wire += memdb::resp::EncodeCommand(argv);
    replies.push_back(argv[0] == "SET"
                          ? memdb::resp::Value::Ok()
                          : memdb::resp::Value::Bulk(MakeValue(shape, 0, 0)));
  }
  std::vector<double> decode_ns, encode_ns;
  std::vector<std::string> argv;
  std::string encoded;
  for (int round = 0; round < 5; ++round) {
    memdb::resp::Decoder dec;
    size_t decoded = 0;
    const Clock::time_point t0 = Clock::now();
    // Fed in socket-read-sized chunks, as net::Connection feeds it.
    for (size_t off = 0; off < wire.size(); off += 16 * 1024) {
      dec.Feed(memdb::Slice(wire.data() + off,
                            std::min<size_t>(16 * 1024, wire.size() - off)));
      while (dec.DecodeCommand(&argv) == memdb::resp::DecodeStatus::kOk) {
        ++decoded;
      }
    }
    decode_ns.push_back(NsSince(t0) / static_cast<double>(decoded));
    const Clock::time_point t1 = Clock::now();
    size_t bytes = 0;
    for (const memdb::resp::Value& v : replies) {
      encoded.clear();
      v.EncodeTo(&encoded);
      bytes += encoded.size();
    }
    encode_ns.push_back(NsSince(t1) / static_cast<double>(replies.size()));
    if (decoded != cmds.size() || bytes == 0) {
      j->Str("resp_error", "decoded " + std::to_string(decoded));
    }
  }
  j->Num("resp.decode_ns_per_cmd", Quantile(decode_ns, 0.5));
  j->Num("resp.encode_ns_per_reply", Quantile(encode_ns, 0.5));
}

// engine::Engine::Execute on a keyspace of the workload's size, then
// replication::ApplyEffectBatch on the effect batches those SETs produced.
void MeasureEngine(const Shape& shape, const std::vector<std::string>& keys,
                   Json* j) {
  memdb::engine::Engine engine;
  memdb::engine::ExecContext ctx;
  for (uint32_t i = 0; i < shape.total_keys(); ++i) {
    engine.Execute({"SET", keys[i], MakeValue(shape, i, 0)}, &ctx);
    ctx.effects.clear();
    ctx.dirty_keys.clear();
  }
  const std::vector<memdb::engine::Argv> gets =
      WorkloadCommands(shape, keys, 200000, false);
  const std::vector<memdb::engine::Argv> sets =
      WorkloadCommands(shape, keys, 100000, true);
  std::vector<double> get_ns, set_ns;
  size_t misses = 0;
  for (int round = 0; round < 3; ++round) {
    Clock::time_point t0 = Clock::now();
    for (const memdb::engine::Argv& argv : gets) {
      if (engine.Execute(argv, &ctx).IsNull()) ++misses;
    }
    get_ns.push_back(NsSince(t0) / static_cast<double>(gets.size()));
    t0 = Clock::now();
    for (const memdb::engine::Argv& argv : sets) {
      engine.Execute(argv, &ctx);
      ctx.effects.clear();
      ctx.dirty_keys.clear();
    }
    set_ns.push_back(NsSince(t0) / static_cast<double>(sets.size()));
  }
  j->Num("engine.get_ns", Quantile(get_ns, 0.5));
  j->Num("engine.set_ns", Quantile(set_ns, 0.5));
  if (misses > 0) j->Int("engine_misses", misses);

  std::vector<std::string> payloads;
  for (size_t i = 0; i < 50000; ++i) {
    engine.Execute(sets[i], &ctx);
    payloads.push_back(EncodeEffectBatch(ctx.effects));
    ctx.effects.clear();
    ctx.dirty_keys.clear();
  }
  std::vector<double> apply_ns;
  for (int round = 0; round < 3; ++round) {
    const Clock::time_point t0 = Clock::now();
    for (const std::string& p : payloads) {
      memdb::replication::ApplyEffectBatch(&engine, memdb::Slice(p), 0);
    }
    apply_ns.push_back(NsSince(t0) / static_cast<double>(payloads.size()));
  }
  j->Num("replication.apply_ns_per_entry", Quantile(apply_ns, 0.5));
}

// storage::FsObjectStore::Get of the latest snapshot, then the peer-less
// restore (RestoreFromStore + ReplayLogTail) a recovering node runs.
void MeasureRecovery(const Shape& shape,
                     const std::vector<std::string>& endpoints,
                     const std::string& store_dir, memdb::rpc::LoopThread* loop,
                     Json* j) {
  memdb::storage::FsObjectStore store(store_dir);
  memdb::replication::SnapshotStore snapshots(&store, "shard-0");
  std::string blob;
  memdb::replication::SnapshotManifest manifest;
  if (!store.Open().ok() || !snapshots.GetLatest(&blob, &manifest).ok()) {
    j->Str("storage_error", "no snapshot in " + store_dir);
    return;
  }
  std::vector<double> get_ms;
  for (int round = 0; round < 3; ++round) {
    const Clock::time_point t0 = Clock::now();
    if (!store.Get(manifest.object_key, &blob).ok()) {
      j->Str("storage_error", "Get failed");
      return;
    }
    get_ms.push_back(NsSince(t0) / 1e6);
  }
  j->Num("storage.snapshot_get_ms", Quantile(get_ms, 0.5));
  j->Num("storage.snapshot_bytes_per_key",
         static_cast<double>(blob.size()) / shape.total_keys());
  blob.clear();
  blob.shrink_to_fit();

  memdb::engine::Engine engine;
  memdb::replication::RestoreResult rr;
  Clock::time_point t0 = Clock::now();
  if (!memdb::replication::RestoreFromStore(&snapshots, &engine, &rr).ok()) {
    j->Str("replication_error", "RestoreFromStore failed");
    return;
  }
  j->Num("replication.snapshot_load_s", NsSince(t0) / 1e9);
  memdb::txlog::RemoteClient::Options copt;
  copt.rpc_timeout_ms = 2000;
  memdb::txlog::RemoteClient client(loop, endpoints, copt, nullptr);
  t0 = Clock::now();
  const memdb::Status s =
      memdb::replication::ReplayLogTail(&client, &engine, &rr, 0);
  const double replay_s = NsSince(t0) / 1e9;
  client.Shutdown();
  if (!s.ok() || rr.entries_replayed == 0) {
    j->Str("replication_error", "ReplayLogTail: " + s.ToString());
    return;
  }
  j->Num("replication.replay_entries_per_s",
         static_cast<double>(rr.entries_replayed) / replay_s);
  j->Int("replication_entries_replayed", rr.entries_replayed);
}

// txlog::RemoteClient::AppendSync, one append in flight, carrying a SET
// effect batch the size of the workload's.
void MeasureAppend(const Shape& shape, const std::vector<std::string>& endpoints,
                   memdb::rpc::LoopThread* loop, Json* j) {
  memdb::txlog::RemoteClient::Options copt;
  copt.writer_id = 0xd0be;
  copt.rpc_timeout_ms = 2000;
  memdb::txlog::RemoteClient client(loop, endpoints, copt, nullptr);
  std::vector<double> us;
  for (int i = 0; i < 1020; ++i) {
    memdb::txlog::LogRecord rec;
    rec.type = memdb::txlog::RecordType::kData;
    rec.writer = copt.writer_id;
    rec.request_id = client.NextRequestId();
    rec.payload = EncodeEffectBatch(
        {{"SET", KeyName(shape.seed ^ 0xd0be, static_cast<uint32_t>(i % 64)),
          MakeValue(shape, 0, static_cast<uint32_t>(i))}});
    uint64_t index = 0;
    const Clock::time_point t0 = Clock::now();
    if (!client.AppendSync(memdb::txlog::wire::kUnconditional, std::move(rec),
                           &index)
             .ok()) {
      j->Str("txlog_error", "AppendSync failed");
      break;
    }
    if (i >= 20) us.push_back(NsSince(t0) / 1e3);  // first 20 warm up
  }
  client.Shutdown();
  j->Num("txlog.append_us_p50", Quantile(us, 0.5));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

std::string MeasureLayers(const Shape& shape,
                          const std::vector<std::string>& keys,
                          const std::vector<std::string>& txlog_endpoints,
                          const std::string& store_dir) {
  Json j;
  MeasureResp(shape, keys, &j);
  MeasureEngine(shape, keys, &j);
  memdb::rpc::LoopThread loop;
  if (!loop.Start().ok()) return j.Str("error", "rpc loop").Done();
  MeasureRecovery(shape, txlog_endpoints, store_dir, &loop, &j);
  MeasureAppend(shape, txlog_endpoints, &loop, &j);
  loop.Stop();
  return j.Done();
}

std::string AttributeSpans(const std::vector<std::string>& files) {
  std::vector<memdb::ExportedSpan> spans;
  for (const std::string& f : files) {
    memdb::ParseSpansJsonl(ReadFile(f), &spans);
  }
  const size_t total = spans.size();
  const auto by_trace = memdb::GroupSpansByTrace(std::move(spans));
  const memdb::WritePathReport report =
      memdb::BuildWritePathReport(by_trace, memdb::WritePathChain());

  // Self times of single layers, per trace that carries both ends.
  std::map<std::string, std::vector<double>> self_us;
  for (const auto& [id, trace] : by_trace) {
    std::map<std::string, double> at;
    for (const memdb::ExportedSpan& s : trace) {
      at.emplace(s.stage, static_cast<double>(s.wall_us));  // first stamp wins
    }
    const auto span = [&](const char* from, const char* to, double* out) {
      const auto a = at.find(from), b = at.find(to);
      if (a == at.end() || b == at.end()) return false;
      *out = b->second - a->second;
      return true;
    };
    // An idle gate issues the append inside SubmitAppend, before the loop
    // stamps gate.submit; the loop handed the write off at whichever came
    // first, and such a write waited 0 in the gate queue.
    double x = 0, y = 0, queued = 0;
    const bool issued = span("gate.submit", "gate.append.issue", &queued);
    if (span("cmd.receive", "gate.submit", &x) &&
        span("append.ack", "reply.release", &y)) {
      self_us["net.loop_self_us_p50"].push_back(
          x + y + (issued ? std::min(queued, 0.0) : 0));
    }
    if (issued) {
      self_us["net.gate.queue_wait_us_p50"].push_back(std::max(queued, 0.0));
    }
    if (span("rpc.send", "rpc.recv", &x)) self_us["rpc.rtt_us_p50"].push_back(x);
    if (span("log.append.receive", "log.durable.local", &x)) {
      self_us["txlog.persist_self_us_p50"].push_back(x);
    }
    if (span("log.durable.local", "log.quorum.commit", &x)) {
      self_us["txlog.quorum_wait_us_p50"].push_back(x);
    }
  }
  Json j;
  j.Int("spans", total)
      .Int("traces", report.traces)
      .Int("complete_chains", report.complete_chains)
      .Num("end_to_end_p50_us",
           static_cast<double>(report.end_to_end_us.Percentile(0.5)));
  double stage_sum = 0;
  for (const memdb::StageDelta& d : report.deltas) {
    stage_sum += static_cast<double>(d.latency_us.Percentile(0.5));
  }
  j.Num("stage_p50_sum_us", stage_sum);
  for (const auto& [name, v] : self_us) {
    j.Num(name, GroupedMedian(v));
    j.Int(name + "_samples", v.size());
  }
  return j.Done();
}

}  // namespace durbench
