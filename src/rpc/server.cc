#include "rpc/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <utility>

#include "common/buffer.h"

namespace memdb::rpc {

namespace {
// One read's size (a shorter read drained the socket) and the per-readiness
// read cap; level-triggered epoll re-reports leftovers.
constexpr size_t kReadChunk = 64 * 1024;
constexpr size_t kMaxReadPerEvent = 1u << 20;

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

Server::Server(LoopThread* loop, std::string bind_address, uint16_t port)
    : loop_(loop),
      bind_address_(std::move(bind_address)),
      requested_port_(port) {}

// lint:off-loop -- teardown runs on the embedding thread.
Server::~Server() { Stop(); }

void Server::RegisterHandler(const std::string& method, Handler handler) {
  handlers_[method] = std::move(handler);
}

void Server::set_metrics(MetricsRegistry* registry) {
  metrics_ = registry;
  requests_ = registry->GetCounter("rpc_server_requests_total");
  bad_frames_ = registry->GetCounter("rpc_server_bad_frames_total");
  no_method_ = registry->GetCounter("rpc_server_no_method_total");
  conns_gauge_ = registry->GetGauge("rpc_server_connections");
}

// lint:off-loop -- startup runs on the embedding thread; the PostSync
// rendezvous hands loop-affine state (listener, watch set) to the loop.
Status Server::Start() {
  Status result = Status::OK();
  loop_->PostSync([this, &result] {
    result = listener_.Open(bind_address_, requested_port_, 128);
    if (!result.ok()) return;
    listener_handler_.on_ready = [this](uint32_t) { AcceptPending(); };
    result =
        loop_->Watch(listener_.fd(), net::kReadable, &listener_handler_);
    if (!result.ok()) {
      listener_.Close();
      return;
    }
    port_ = listener_.port();
    started_ = true;
  });
  return result;
}

// lint:off-loop -- teardown runs on the embedding thread (see Start).
void Server::Stop() {
  if (!started_) return;
  loop_->PostSync([this] {
    stopping_ = true;
    if (listener_.fd() >= 0) loop_->Unwatch(listener_.fd());
    listener_.Close();
    // CloseConn mutates conns_; drain via ids.
    std::vector<Conn*> all;
    all.reserve(conns_.size());
    for (auto& [id, c] : conns_) all.push_back(c.get());
    for (Conn* c : all) CloseConn(c);
  });
  started_ = false;
}

size_t Server::buffer_capacity() const {
  loop_->AssertOnLoopThread();
  size_t bytes = 0;
  for (const auto& [id, c] : conns_) {
    bytes += c->in.capacity() + c->out.capacity();
  }
  return bytes;
}

void Server::AcceptPending() {
  loop_->AssertOnLoopThread();
  for (;;) {
    const int fd = listener_.Accept();
    if (fd < 0) return;
    auto conn = std::make_unique<Conn>();
    Conn* c = conn.get();
    c->fd = fd;
    c->id = next_conn_id_++;
    c->handler.on_ready = [this, c](uint32_t events) {
      OnConnReady(c, events);
    };
    if (!loop_->Watch(fd, net::kReadable, &c->handler).ok()) {
      ::close(fd);
      continue;
    }
    conns_.emplace(c->id, std::move(conn));
    if (conns_gauge_ != nullptr) {
      conns_gauge_->Set(static_cast<int64_t>(conns_.size()));
    }
  }
}

void Server::OnConnReady(Conn* c, uint32_t events) {
  loop_->AssertOnLoopThread();
  if (c->dead) return;
  if (events & (net::kReadable | net::kClosed)) ReadFrames(c);
  if (c->dead) return;
  if (events & net::kWritable) FlushConn(c);
}

void Server::ReadFrames(Conn* c) {
  char buf[kReadChunk];
  size_t total = 0;
  for (;;) {
    const ssize_t n = ::read(c->fd, buf, sizeof(buf));
    if (n > 0) {
      c->in.append(buf, static_cast<size_t>(n));
      total += static_cast<size_t>(n);
      if (static_cast<size_t>(n) < sizeof(buf) || total >= kMaxReadPerEvent) {
        break;
      }
      continue;
    }
    if (n == 0) {  // peer closed; serve already-buffered frames, then close
      CloseConn(c);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(c);
    return;
  }

  size_t off = 0;
  while (off < c->in.size()) {
    Frame frame;
    size_t consumed = 0;
    std::string error;
    const FrameDecode r = DecodeFrame(c->in.data() + off,
                                      c->in.size() - off, &consumed, &frame,
                                      &error);
    if (r == FrameDecode::kNeedMore) break;
    if (r == FrameDecode::kError) {
      if (bad_frames_ != nullptr) bad_frames_->Increment();
      CloseConn(c);
      return;
    }
    off += consumed;
    if (frame.type == FrameType::kRequest) Dispatch(c, std::move(frame));
    // Response frames arriving at a server are ignored (protocol misuse).
    if (c->dead) return;
  }
  if (off == c->in.size()) {
    ClearDrained(&c->in);
  } else if (off > 0) {
    c->in.erase(0, off);
  }
}

void Server::Dispatch(Conn* c, Frame&& frame) {
  if (requests_ != nullptr) requests_->Increment();
  if (fault_.ShouldDropRequest(frame.method)) return;
  auto it = handlers_.find(frame.method);
  if (it == handlers_.end()) {
    if (no_method_ != nullptr) no_method_->Increment();
    Frame rsp;
    rsp.type = FrameType::kResponse;
    rsp.code = Code::kNoMethod;
    rsp.request_id = frame.request_id;
    rsp.trace_id = frame.trace_id;
    SendResponse(c->id, frame.method, std::move(rsp));
    return;
  }
  if (trace_ != nullptr && frame.trace_id != 0) {
    trace_->Record(frame.trace_id, "rpc.dispatch", NowUs(), frame.request_id);
  }
  Call call;
  call.payload = std::move(frame.payload);
  call.trace_id = frame.trace_id;
  call.deadline_ms = frame.deadline_ms;
  // The handler table is read-only once started, so its key outlives the
  // call.
  const std::string* method = &it->first;
  call.respond = [this, conn_id = c->id, request_id = frame.request_id,
                  trace_id = frame.trace_id,
                  method](Code code, std::string payload) {
    // The server outlives its calls only by contract (Stop() before
    // destruction), matching the net layer.
    Respond(conn_id, request_id, trace_id, method, code, std::move(payload));
  };
  it->second(std::move(call));
}

void Server::Respond(uint64_t conn_id, uint64_t request_id,
                     uint64_t trace_id, const std::string* method, Code code,
                     std::string&& payload) {
  Frame rsp;
  rsp.type = FrameType::kResponse;
  rsp.code = code;
  rsp.request_id = request_id;
  rsp.trace_id = trace_id;
  rsp.payload = std::move(payload);
  if (loop_->OnLoopThread() &&
      posted_responses_.load(std::memory_order_acquire) == 0) {
    SendResponse(conn_id, *method, std::move(rsp));
    return;
  }
  posted_responses_.fetch_add(1, std::memory_order_acq_rel);
  loop_->Post([this, conn_id, method, rsp = std::move(rsp)]() mutable {
    posted_responses_.fetch_sub(1, std::memory_order_acq_rel);
    SendResponse(conn_id, *method, std::move(rsp));
  });
}

void Server::SendResponse(uint64_t conn_id, const std::string& method,
                          Frame&& frame) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end() || it->second->dead) return;
  const FaultInjector::ResponsePlan plan = fault_.OnResponse(method);
  if (plan.drop) return;
  if (plan.delay_ms > 0) {
    const bool dup = plan.duplicate;
    loop_->After(plan.delay_ms,
                 [this, conn_id, dup, frame = std::move(frame)]() mutable {
                   // Re-resolve: the connection may have died meanwhile.
                   auto it2 = conns_.find(conn_id);
                   if (it2 == conns_.end() || it2->second->dead) return;
                   QueueFrame(it2->second.get(), frame);
                   if (dup) QueueFrame(it2->second.get(), frame);
                 });
    return;
  }
  Conn* c = it->second.get();
  QueueFrame(c, frame);
  if (plan.duplicate) QueueFrame(c, frame);
}

void Server::QueueFrame(Conn* c, const Frame& frame) {
  EncodeFrame(frame, &c->out);
  FlushConn(c);
}

void Server::FlushConn(Conn* c) {
  while (c->out_sent < c->out.size()) {
    const ssize_t n = ::send(c->fd, c->out.data() + c->out_sent,
                             c->out.size() - c->out_sent, MSG_NOSIGNAL);
    if (n > 0) {
      c->out_sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConn(c);
    return;
  }
  if (c->out_sent == c->out.size()) {
    ClearDrained(&c->out);
    c->out_sent = 0;
  } else if (c->out_sent > (1u << 20)) {
    c->out.erase(0, c->out_sent);
    c->out_sent = 0;
  }
  const bool want = !c->out.empty();
  if (want != c->want_write) {
    c->want_write = want;
    Status rearm = loop_->Rearm(
        c->fd, want ? (net::kReadable | net::kWritable) : net::kReadable,
        &c->handler);
    if (!rearm.ok()) {
      // Same contract as a failed send: the kernel interest set is wrong,
      // the peer would wait forever for the rest of this response.
      CloseConn(c);
    }
  }
}

void Server::CloseConn(Conn* c) {
  if (c->dead) return;
  c->dead = true;
  loop_->Unwatch(c->fd);
  ::close(c->fd);
  c->fd = -1;
  if (conns_gauge_ != nullptr) {
    conns_gauge_->Set(static_cast<int64_t>(conns_.size() - 1));
  }
  // Defer destruction one loop turn: the current epoll batch may still hold
  // this connection's tag, and its handler must stay callable (it no-ops on
  // dead). Late respond() closures for this conn resolve by id and miss.
  auto it = conns_.find(c->id);
  if (it != conns_.end()) {
    loop_->Post([owned = std::shared_ptr<Conn>(std::move(it->second))] {});
    conns_.erase(it);
  }
}

}  // namespace memdb::rpc
