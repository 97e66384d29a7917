// rpc::Server: the service side of the internal RPC plane. Mounted on a
// LoopThread (possibly shared with channels and application timers), it
// accepts connections, decodes length-prefixed frames (rpc/frame.h), and
// dispatches requests to registered method handlers.
//
// Handlers receive a Call whose respond() may be invoked immediately or
// stored and invoked later — that deferred path is how memorydb-txlogd
// implements quorum-gated appends (ack only after majority persistence) and
// long-poll ReadStream follows. respond() is safe to call after the client
// hung up (it becomes a no-op) and must be called at most once.
//
// A respond() on the loop thread encodes and sends the response at once;
// from any other thread it is posted to the loop. Responses leave in respond()
// order: while a posted one waits, a loop-thread respond() is posted too.
// Response frames carry no method name.

#ifndef MEMDB_RPC_SERVER_H_
#define MEMDB_RPC_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "net/listener.h"
#include "rpc/fault.h"
#include "rpc/frame.h"
#include "rpc/loop.h"

namespace memdb::rpc {

class Server {
 public:
  struct Call {
    std::string payload;
    uint64_t trace_id = 0;
    uint64_t deadline_ms = 0;  // caller's budget hint; 0 = none
    // Sends the response (any thread; see the ordering rule above). No-op
    // if the connection has gone away.
    std::function<void(Code, std::string payload)> respond;
  };
  using Handler = std::function<void(Call&&)>;

  Server(LoopThread* loop, std::string bind_address, uint16_t port);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Register before Start(); the table is read-only afterwards.
  void RegisterHandler(const std::string& method, Handler handler);

  Status Start();  // binds + listens; after OK, port() is meaningful
  void Stop();     // closes listener and every connection (idempotent)

  uint16_t port() const { return port_; }
  // Loop thread: bytes the connections' in/out buffers hold allocated
  // (drained, each keeps at most kMaxIdleBufferBytes, common/buffer.h).
  size_t buffer_capacity() const;
  // Optional: server-side rpc counters into a shared registry. Must be set
  // before Start().
  void set_metrics(MetricsRegistry* registry);
  // Optional: traced requests (frame trace id != 0) record `rpc.dispatch`
  // as they are handed to their handler. Must be set before Start().
  void set_trace_log(TraceLog* trace) { trace_ = trace; }
  FaultInjector& fault() { return fault_; }

 private:
  struct Conn {
    int fd = -1;
    uint64_t id = 0;
    bool dead = false;
    std::string in;
    std::string out;
    size_t out_sent = 0;
    bool want_write = false;
    LoopThread::FdHandler handler;
  };

  void AcceptPending();
  void OnConnReady(Conn* c, uint32_t events);
  void ReadFrames(Conn* c);
  void FlushConn(Conn* c);
  void CloseConn(Conn* c);
  void Dispatch(Conn* c, Frame&& frame);
  // respond()'s body: sends at once on the loop thread, else posts.
  void Respond(uint64_t conn_id, uint64_t request_id, uint64_t trace_id,
               const std::string* method, Code code, std::string&& payload);
  // `method` (the handler table's key, or the unknown request's name)
  // only plans injected faults.
  void SendResponse(uint64_t conn_id, const std::string& method,
                    Frame&& frame);
  void QueueFrame(Conn* c, const Frame& frame);

  LoopThread* const loop_;
  const std::string bind_address_;
  const uint16_t requested_port_;
  uint16_t port_ = 0;

  net::Listener listener_;
  LoopThread::FdHandler listener_handler_;
  std::map<std::string, Handler> handlers_;
  std::map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 1;
  bool started_ = false;
  bool stopping_ = false;
  // Responses posted by respond() and not yet sent.
  std::atomic<uint64_t> posted_responses_{0};

  FaultInjector fault_;
  MetricsRegistry* metrics_ = nullptr;
  TraceLog* trace_ = nullptr;
  Counter* requests_ = nullptr;
  Counter* bad_frames_ = nullptr;
  Counter* no_method_ = nullptr;
  Gauge* conns_gauge_ = nullptr;
};

}  // namespace memdb::rpc

#endif  // MEMDB_RPC_SERVER_H_
