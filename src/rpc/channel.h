// rpc::Channel: a multiplexed client connection to one RPC endpoint.
//
// Calls are submitted from any thread; each carries a per-call deadline and
// completes exactly once on the channel's loop thread — with the response
// payload, or TimedOut when the deadline lapses (the call is abandoned but
// the connection stays up; a late response is dropped by request-id), or
// Unavailable when the connection cannot be established / resets (every
// in-flight call fails; the next Call() reconnects lazily).
//
// A Call made on the loop thread starts at once: its request is encoded and
// sent before Call returns. No Call runs a callback before it returns: a
// completion the Call itself causes (a shut-down channel, a refused
// connect, a failed send that fails every call in flight) is posted to the
// loop instead, so callers may call from code that is not re-entrant
// (txlogd's Pump, the gate's Drive).
//
// RpcStats pre-resolves the per-method instruments from a shared registry at
// setup time so the hot path never mutates registry maps — that keeps
// concurrent scrapes (INFO/METRICS on another thread) race-free.

#ifndef MEMDB_RPC_CHANNEL_H_
#define MEMDB_RPC_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "rpc/frame.h"
#include "rpc/loop.h"

namespace memdb::rpc {

// Pre-resolved per-method instruments (rpc_requests_total{method=},
// rpc_errors_total{method=}, rpc_rtt_us{method=}) plus the shared
// rpc_inflight gauge. Construct before any thread touches the registry.
class RpcStats {
 public:
  struct MethodStats {
    Counter* requests = nullptr;
    Counter* errors = nullptr;
    Histogram* rtt_us = nullptr;
  };

  RpcStats() = default;
  RpcStats(MetricsRegistry* registry,
           const std::vector<std::string>& methods);

  MethodStats* For(const std::string& method);
  Gauge* inflight() { return inflight_; }

 private:
  std::map<std::string, MethodStats> per_method_;
  Gauge* inflight_ = nullptr;
};

class Channel {
 public:
  using Callback = std::function<void(Status, std::string payload)>;

  Channel(LoopThread* loop, std::string host, uint16_t port,
          RpcStats* stats = nullptr);
  ~Channel();
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // Thread-safe. cb runs exactly once, on the loop thread, and never
  // before Call returns.
  void Call(const std::string& method, std::string payload,
            uint64_t timeout_ms, uint64_t trace_id, Callback cb);

  // Closes the connection and fails in-flight calls with Unavailable. The
  // channel remains usable (reconnects on the next Call). Thread-safe.
  void Reset();

  // One of these must run before destruction while the loop is still
  // running; each fails pending calls (their callbacks run inside it) and
  // detaches from the loop for good. Shutdown is for any non-loop thread,
  // Close for the loop thread.
  void Shutdown();
  void Close();

  const std::string& host() const { return host_; }
  // Loop thread: bytes the in/out buffers hold allocated (drained, each
  // keeps at most kMaxIdleBufferBytes, common/buffer.h).
  size_t buffer_capacity() const { return in_.capacity() + out_.capacity(); }
  uint16_t port() const { return port_; }

  // Write-path tracing: traced calls (frame trace id != 0) record
  // `rpc.send` when the request frame is queued and `rpc.recv` when its
  // response completes. Set before the first Call (TraceLog::Record itself
  // is lock-free, so recording never blocks the loop).
  void set_trace_log(TraceLog* trace) { trace_ = trace; }

 private:
  enum class ConnState : uint8_t { kDisconnected, kConnecting, kConnected };

  struct Pending {
    Callback cb;
    uint64_t timer_id = 0;
    uint64_t sent_at_ms = 0;
    uint64_t trace_id = 0;
    RpcStats::MethodStats* stats = nullptr;  // the method's, or null
  };

  // All private methods run on the loop thread.
  void StartCall(const std::string& method, std::string&& payload,
                 uint64_t timeout_ms, uint64_t trace_id, Callback&& cb);
  // Runs cb, or posts it while a loop-thread Call is starting.
  void Deliver(Callback&& cb, const Status& status, std::string&& payload);
  void EnsureConnected();
  void OnSocketReady(uint32_t events);
  void FinishConnect();
  void ReadFrames();
  void Flush();
  void FailAll(const Status& status);
  void Complete(uint64_t request_id, const Status& status,
                std::string&& payload);
  void DisconnectLocked(bool reconnectable);

  LoopThread* const loop_;
  const std::string host_;
  const uint16_t port_;
  RpcStats* const stats_;
  TraceLog* trace_ = nullptr;

  int fd_ = -1;
  ConnState state_ = ConnState::kDisconnected;
  bool want_write_ = false;
  bool shutdown_ = false;
  bool in_call_ = false;  // a loop-thread Call is starting
  uint64_t disconnects_ = 0;  // DisconnectLocked calls so far
  LoopThread::FdHandler handler_;
  Frame request_;  // reused: the method keeps its capacity across calls
  std::string in_;
  std::string out_;
  size_t out_sent_ = 0;
  uint64_t next_request_id_ = 1;
  std::map<uint64_t, Pending> pending_;
};

}  // namespace memdb::rpc

#endif  // MEMDB_RPC_CHANNEL_H_
