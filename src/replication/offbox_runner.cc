#include "replication/offbox_runner.h"

#include <chrono>
#include <utility>

#include "common/trace_export.h"
#include "replication/recovery.h"
#include "txlog/rpc_wire.h"

namespace memdb::replication {

namespace {
uint64_t WallMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Trace-id origin for snapshot cycles — outside the writer-id space used by
// primaries, so merged trace files cannot collide.
constexpr uint64_t kSnapTraceOrigin = 0xA5;

// lint:off-loop -- `cycle`'s reads over `client`, on a restore's startup
// thread or snapshotd's cycle thread; false once the cycle is over.
bool ReadToTarget(txlog::RemoteClient* client, OffboxCycle* cycle) {
  for (uint64_t from; (from = cycle->next_read()) != 0;) {
    txlog::wire::ClientReadResponse read;
    const Status s = client->ReadSync(from, OffboxCycle::kReadBatch,
                                      OffboxCycle::kReadWaitMs, &read);
    if (!cycle->OnRead(WallMs(), s, read)) return false;
  }
  return true;
}
}  // namespace

Status RestoreFromStore(SnapshotStore* store, engine::Engine* engine,
                        RestoreResult* result) {
  std::string blob;
  SnapshotManifest manifest;
  engine::SnapshotMeta meta;
  const Status fetched = store->GetLatest(&blob, &manifest);
  return OffboxCycle::LoadSnapshot(fetched, Slice(blob), engine, result, &meta);
}

// lint:off-loop -- peer-less restore path: runs on the node's startup
// thread before any event loop exists; blocking sync reads are the point.
Status ReplayLogTail(txlog::RemoteClient* client, engine::Engine* engine,
                     RestoreResult* result, uint64_t target_tail) {
  OffboxCycle replay(engine, *result);
  txlog::wire::ClientTailResponse tail{.commit_index = target_tail};
  // Reads may be served by a lagging follower; Tail is leader-only (and
  // barrier-gated past elections), the authoritative "everything acked".
  const Status s = target_tail == 0 ? client->TailSync(&tail) : Status::OK();
  if (replay.OnTail(s, tail.commit_index)) ReadToTarget(client, &replay);
  *result = replay.result();
  return replay.status();
}

OffboxRunner::OffboxRunner(Options options, MetricsRegistry* registry)
    : options_(std::move(options)),
      store_(options_.store_dir,
             storage::FsObjectStore::Options{options_.fsync}),
      snapshots_(&store_, options_.shard_id) {
  registry_ = registry != nullptr ? registry : &own_metrics_;
  cycles_ = registry_->GetCounter("offbox_cycles_total");
  failures_ = registry_->GetCounter("offbox_cycle_failures_total");
  verification_failures_ =
      registry_->GetCounter("offbox_verification_failures_total");
  last_position_ = registry_->GetGauge("offbox_last_snapshot_position");
  txlog::RemoteClient::Options copt;
  copt.writer_id = 0;  // reader + trim hints only
  client_ = std::make_unique<txlog::RemoteClient>(&loop_, options_.endpoints,
                                                  copt, registry_);
  if (options_.serve_stats) {
    stats_server_ = std::make_unique<rpc::Server>(&loop_, kStatsBind,
                                                  options_.stats_port);
    stats_server_->RegisterHandler(
        txlog::rpcwire::kMetrics, [this](rpc::Server::Call&& call) {
          call.respond(rpc::Code::kOk, registry_->ExpositionText());
        });
    stats_server_->RegisterHandler(
        txlog::rpcwire::kTraceDump, [this](rpc::Server::Call&& call) {
          call.respond(rpc::Code::kOk, ExportSpansJsonl(trace_, "snapshotd"));
        });
  }
}

OffboxRunner::~OffboxRunner() { Stop(); }

Status OffboxRunner::Start() {
  if (options_.endpoints.empty()) {
    return Status::InvalidArgument("offbox runner needs txlog endpoints");
  }
  MEMDB_RETURN_IF_ERROR(store_.Open());
  MEMDB_RETURN_IF_ERROR(loop_.Start("snapshotd-loop"));
  if (stats_server_ != nullptr) {
    const Status s = stats_server_->Start();
    if (!s.ok()) {
      loop_.Stop();
      return s;
    }
  }
  started_ = true;
  return Status::OK();
}

void OffboxRunner::Stop() {
  if (!started_) return;
  started_ = false;
  if (stats_server_ != nullptr) stats_server_->Stop();
  client_->Shutdown();
  loop_.Stop();
}

uint16_t OffboxRunner::stats_port() const {
  return stats_server_ != nullptr ? stats_server_->port() : 0;
}

// lint:off-loop -- snapshot cycle runs on the offbox daemon's own thread
// (restore -> replay -> rehearse -> upload); blocking sync reads are the
// point of being off-box.
Status OffboxRunner::RunCycle(CycleResult* out) {
  cycles_->Increment();
  // One trace per cycle; the spans bound every §4.2.2 stage so a merged
  // trace shows where snapshot production spends its time.
  const uint64_t trace_id = MakeTraceId(kSnapTraceOrigin, ++cycle_seq_);
  trace_.Record(trace_id, "snap.cycle.begin", NowUs());
  auto span = [&](const char* stage, uint64_t value) {
    trace_.Record(trace_id, stage, NowUs(), value);
  };
  OffboxCycle cycle(
      {.trim = options_.issue_trim, .trim_slack = options_.trim_slack});
  [&] {
    txlog::wire::ClientTailResponse tail;
    const Status tail_status = client_->TailSync(&tail);
    if (!cycle.OnTail(tail_status, tail.commit_index)) return;
    span("snap.cycle.tail", tail.commit_index);
    std::string blob;
    SnapshotManifest manifest;
    const Status fetched = snapshots_.GetLatest(&blob, &manifest);
    if (!cycle.OnSnapshot(fetched, Slice(blob))) return;
    span("snap.cycle.restore", cycle.result().snapshot_position);
    if (!ReadToTarget(client_.get(), &cycle)) return;
    span("snap.cycle.replay", cycle.result().entries_replayed);
    if (!cycle.Rehearse(WallMs())) return;
    span("snap.cycle.dump", cycle.blob().size());
    const bool trim =
        cycle.OnUpload(snapshots_.PutSnapshot(cycle.blob(), cycle.meta()));
    if (!cycle.result().uploaded) return;
    span("snap.cycle.upload", cycle.blob().size());
    last_position_->Set(static_cast<int64_t>(cycle.result().applied_index));
    if (!trim) return;
    uint64_t first = 0;
    const Status trimmed = client_->TrimSync(cycle.trim_index(), &first);
    cycle.OnTrim(trimmed, first);
  }();
  *out = cycle.result();
  const Status& s = cycle.status();
  trace_.Record(trace_id, s.ok() ? "snap.cycle.end" : "snap.cycle.fail",
                NowUs());
  if (!s.ok()) failures_->Increment();
  // Restore, replay and rehearsal failures are §7.2.1 verification
  // failures: the store or the log does not hold what it claims.
  if (s.IsCorruption()) verification_failures_->Increment();
  return s;
}

}  // namespace memdb::replication
