// txlog::RemoteClient: the database node's handle to an out-of-process
// transaction-log group (a set of memorydb-txlogd endpoints). It runs the
// one log client (txlog/log_client.h: its results, retry, redirect and
// indeterminacy rules) over rpc::Channel calls on the caller's LoopThread;
// endpoint i serves txlogd node id i + 1, which is how kNotLeader hints
// resolve.
//
// The async calls may come from any thread; their callbacks run on the
// loop thread. The *Sync wrappers block the calling thread (never call them
// from the loop thread).

#ifndef MEMDB_TXLOG_REMOTE_CLIENT_H_
#define MEMDB_TXLOG_REMOTE_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "rpc/channel.h"
#include "rpc/loop.h"
#include "txlog/log_client.h"
#include "txlog/record.h"
#include "txlog/rpc_wire.h"
#include "txlog/wire.h"

namespace memdb::txlog {

class RemoteClient {
 public:
  using AppendCallback = LogClient::AppendCallback;
  using ReadCallback = LogClient::ReadCallback;
  using TailCallback = LogClient::TailCallback;
  using TrimCallback = LogClient::TrimCallback;

  struct Options : LogClient::Options {
    // Optional write-path tracing: traced calls record rpc.send/rpc.recv
    // spans into this log (owned by the embedding process).
    TraceLog* trace = nullptr;
  };

  // Endpoints as "host:port". `registry` (optional) receives
  // rpc_requests_total / rpc_errors_total / rpc_rtt_us / rpc_inflight plus
  // txlog_retries_total / txlog_redirects_total.
  RemoteClient(rpc::LoopThread* loop, std::vector<std::string> endpoints,
               Options options, MetricsRegistry* registry = nullptr);
  ~RemoteClient();
  RemoteClient(const RemoteClient&) = delete;
  RemoteClient& operator=(const RemoteClient&) = delete;

  // One of these must run before destruction while the loop still runs:
  // Shutdown from any non-loop thread, Close on the loop thread. Every
  // operation still running fails inside it, and every later one at once.
  void Shutdown();
  void Close();

  // --- async API (callbacks on the loop thread) ----------------------------
  void Append(uint64_t prev_index, LogRecord record, AppendCallback cb) {
    core_.Append(prev_index, std::move(record), std::move(cb));
  }
  void Read(uint64_t from_index, uint64_t max_count, uint64_t wait_ms,
            ReadCallback cb) {
    core_.Read(from_index, max_count, wait_ms, std::move(cb));
  }
  void Tail(TailCallback cb) { core_.Tail(std::move(cb)); }
  void Trim(uint64_t upto_index, TrimCallback cb) {
    core_.Trim(upto_index, std::move(cb));
  }
  void CancelAppends() { core_.CancelAppends(); }

  // --- blocking wrappers (not from the loop thread) ------------------------
  Status AppendSync(uint64_t prev_index, LogRecord record, uint64_t* index);
  Status ReadSync(uint64_t from_index, uint64_t max_count, uint64_t wait_ms,
                  wire::ClientReadResponse* out);
  Status TailSync(wire::ClientTailResponse* out);
  Status TrimSync(uint64_t upto_index, uint64_t* first_index);

  // Allocates a writer-unique request id (thread-safe).
  uint64_t NextRequestId() { return core_.NextRequestId(); }

  size_t endpoint_count() const { return channels_.size(); }

  // Test hook, fired on the loop thread before every backoff sleep with the
  // attempt ordinal and the jittered delay actually scheduled.
  std::function<void(int attempt, uint64_t delay_ms)> backoff_hook;

 private:
  class ChannelTransport;

  std::unique_ptr<rpc::RpcStats> stats_;
  std::vector<std::unique_ptr<rpc::Channel>> channels_;
  LogClient core_;
};

}  // namespace memdb::txlog

#endif  // MEMDB_TXLOG_REMOTE_CLIENT_H_
