#include "replication/offbox_runner.h"

#include <chrono>
#include <utility>

#include "common/trace_export.h"
#include "engine/engine.h"
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
}  // namespace

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
  *out = CycleResult();
  cycles_->Increment();
  // One trace per cycle; the spans bound every §4.2.2 stage so a merged
  // trace shows where snapshot production spends its time.
  const uint64_t trace_id = MakeTraceId(kSnapTraceOrigin, ++cycle_seq_);
  trace_.Record(trace_id, "snap.cycle.begin", NowUs());
  // Restore, replay and rehearsal failures are §7.2.1 verification
  // failures: the store or the log does not hold what it claims.
  auto verify = [this](Status st) {
    if (st.IsCorruption()) verification_failures_->Increment();
    return st;
  };
  Status s = [&]() -> Status {
    // 1. Pin the cycle target: everything committed as of now.
    txlog::wire::ClientTailResponse tail;
    MEMDB_RETURN_IF_ERROR(client_->TailSync(&tail));
    const uint64_t target = tail.commit_index;
    trace_.Record(trace_id, "snap.cycle.tail", NowUs(), target);

    // 2. Restore the prior snapshot into a private engine.
    engine::Engine engine;
    RestoreResult rr;
    MEMDB_RETURN_IF_ERROR(verify(RestoreFromStore(&snapshots_, &engine, &rr)));
    out->restored_from_snapshot = rr.snapshot_position > 0;
    trace_.Record(trace_id, "snap.cycle.restore", NowUs(),
                  rr.snapshot_position);

    if (target <= rr.snapshot_position) {
      // Nothing committed past the snapshot we already have.
      out->position = rr.snapshot_position;
      out->running_checksum = rr.running_checksum;
      return Status::OK();
    }

    // 3. Replay the tail, verifying the checksum chain as we go.
    MEMDB_RETURN_IF_ERROR(
        verify(ReplayLogTail(client_.get(), &engine, &rr, target)));
    out->entries_replayed = rr.entries_replayed;
    trace_.Record(trace_id, "snap.cycle.replay", NowUs(),
                  rr.entries_replayed);
    if (rr.data_records_replayed == 0) {
      // The tail moved but carried no data — election noop barriers and
      // checksum records don't change the keyspace, so re-uploading the
      // same state under a newer position would be a redundant snapshot.
      out->position = rr.applied_index;
      out->running_checksum = rr.running_checksum;
      return Status::OK();
    }

    // 4. Dump, and rehearse the restore before anything depends on it.
    engine::SnapshotMeta meta;
    meta.log_position = rr.applied_index;
    meta.log_running_checksum = rr.running_checksum;
    meta.created_at_ms = WallMs();
    std::string blob;
    MEMDB_RETURN_IF_ERROR(verify(
        engine::SerializeRehearsedSnapshot(engine.keyspace(), meta, &blob)));
    trace_.Record(trace_id, "snap.cycle.dump", NowUs(), blob.size());

    // 5. Upload.
    MEMDB_RETURN_IF_ERROR(snapshots_.PutSnapshot(blob, meta));
    trace_.Record(trace_id, "snap.cycle.upload", NowUs(), blob.size());
    out->position = meta.log_position;
    out->running_checksum = meta.log_running_checksum;
    out->snapshot_bytes = blob.size();
    out->uploaded = true;
    last_position_->Set(static_cast<int64_t>(meta.log_position));

    // 6. Trim hint — best-effort; a failed trim never fails the cycle.
    if (options_.issue_trim && meta.log_position > options_.trim_slack) {
      uint64_t first = 0;
      if (client_
              ->TrimSync(meta.log_position - options_.trim_slack, &first)
              .ok()) {
        out->trimmed_first_index = first;
      }
    }
    return Status::OK();
  }();
  trace_.Record(trace_id, s.ok() ? "snap.cycle.end" : "snap.cycle.fail",
                NowUs());
  if (!s.ok()) failures_->Increment();
  return s;
}

}  // namespace memdb::replication
