#include "rpc/channel.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/buffer.h"

namespace memdb::rpc {

namespace {
// One read's size; a shorter read drained the socket. Level-triggered epoll
// re-reports what is left past the per-event cap.
constexpr size_t kReadChunk = 64 * 1024;
constexpr size_t kMaxReadPerEvent = 1u << 20;

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

RpcStats::RpcStats(MetricsRegistry* registry,
                   const std::vector<std::string>& methods) {
  inflight_ = registry->GetGauge("rpc_inflight");
  for (const std::string& m : methods) {
    MethodStats s;
    s.requests =
        registry->GetCounter("rpc_requests_total", {{"method", m}});
    s.errors = registry->GetCounter("rpc_errors_total", {{"method", m}});
    s.rtt_us = registry->GetHistogram("rpc_rtt_us", {{"method", m}});
    per_method_[m] = s;
  }
}

RpcStats::MethodStats* RpcStats::For(const std::string& method) {
  auto it = per_method_.find(method);
  return it == per_method_.end() ? nullptr : &it->second;
}

Channel::Channel(LoopThread* loop, std::string host, uint16_t port,
                 RpcStats* stats)
    : loop_(loop), host_(std::move(host)), port_(port), stats_(stats) {
  handler_.on_ready = [this](uint32_t events) { OnSocketReady(events); };
}

Channel::~Channel() {
  // By contract Shutdown() ran (or the loop is already stopped and nothing
  // references us). Close the raw fd defensively.
  if (fd_ >= 0) ::close(fd_);
}

void Channel::Call(const std::string& method, std::string payload,
                   uint64_t timeout_ms, uint64_t trace_id, Callback cb) {
  if (loop_->OnLoopThread()) {
    in_call_ = true;
    StartCall(method, std::move(payload), timeout_ms, trace_id,
              std::move(cb));
    in_call_ = false;
    return;
  }
  loop_->Post([this, method, payload = std::move(payload), timeout_ms,
               trace_id, cb = std::move(cb)]() mutable {
    StartCall(method, std::move(payload), timeout_ms, trace_id,
              std::move(cb));
  });
}

void Channel::Reset() {
  loop_->Post([this] { DisconnectLocked(/*reconnectable=*/true); });
}

// lint:off-loop -- header contract: called from a non-loop thread before
// destruction; PostSync's rendezvous is the point.
void Channel::Shutdown() {
  loop_->PostSync([this] { Close(); });
}

void Channel::Close() {
  loop_->AssertOnLoopThread();
  shutdown_ = true;
  DisconnectLocked(/*reconnectable=*/false);
}

void Channel::StartCall(const std::string& method, std::string&& payload,
                        uint64_t timeout_ms, uint64_t trace_id,
                        Callback&& cb) {
  loop_->AssertOnLoopThread();
  if (shutdown_) {
    Deliver(std::move(cb), Status::Unavailable("channel shut down"),
            std::string());
    return;
  }
  RpcStats::MethodStats* ms =
      stats_ != nullptr ? stats_->For(method) : nullptr;
  EnsureConnected();
  if (state_ == ConnState::kDisconnected) {
    if (ms != nullptr) {
      ms->requests->Increment();
      ms->errors->Increment();
    }
    Deliver(std::move(cb),
            Status::Unavailable("connect " + host_ + ":" +
                                std::to_string(port_) + " failed"),
            std::string());
    return;
  }

  const uint64_t id = next_request_id_++;
  request_.type = FrameType::kRequest;
  request_.request_id = id;
  request_.trace_id = trace_id;
  request_.deadline_ms = timeout_ms;
  request_.method.assign(method);
  request_.payload = std::move(payload);
  EncodeFrame(request_, &out_);
  std::string().swap(request_.payload);

  Pending p;
  p.cb = std::move(cb);
  p.sent_at_ms = NowUs();
  p.trace_id = trace_id;
  p.stats = ms;
  if (trace_ != nullptr && trace_id != 0) {
    trace_->Record(trace_id, "rpc.send", p.sent_at_ms, id);
  }
  if (timeout_ms > 0) {
    p.timer_id = loop_->After(timeout_ms, [this, id] {
      Complete(id, Status::TimedOut("rpc deadline exceeded"), std::string());
    });
  }
  pending_.emplace(id, std::move(p));
  if (ms != nullptr) ms->requests->Increment();
  if (stats_ != nullptr && stats_->inflight() != nullptr) {
    stats_->inflight()->Add(1);
  }
  if (state_ == ConnState::kConnected) Flush();
}

void Channel::Deliver(Callback&& cb, const Status& status,
                      std::string&& payload) {
  if (!in_call_) {
    cb(status, std::move(payload));
    return;
  }
  loop_->Post([cb = std::move(cb), status,
               payload = std::move(payload)]() mutable {
    cb(status, std::move(payload));
  });
}

void Channel::EnsureConnected() {
  if (state_ != ConnState::kDisconnected) return;
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  struct sockaddr_in sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &sa.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    return;
  }
  // lint:allow-blocking — fd is SOCK_NONBLOCK; connect returns EINPROGRESS.
  const int rc =
      ::connect(fd_, reinterpret_cast<struct sockaddr*>(&sa), sizeof(sa));
  if (rc == 0) {
    state_ = ConnState::kConnected;
  } else if (errno == EINPROGRESS) {
    state_ = ConnState::kConnecting;
  } else {
    ::close(fd_);
    fd_ = -1;
    return;
  }
  const uint32_t interest = state_ == ConnState::kConnecting
                                ? (net::kReadable | net::kWritable)
                                : net::kReadable;
  if (!loop_->Watch(fd_, interest, &handler_).ok()) {
    ::close(fd_);
    fd_ = -1;
    state_ = ConnState::kDisconnected;
    return;
  }
  want_write_ = state_ == ConnState::kConnecting;
}

void Channel::OnSocketReady(uint32_t events) {
  loop_->AssertOnLoopThread();
  if (fd_ < 0) return;
  if (state_ == ConnState::kConnecting) {
    if (events & (net::kWritable | net::kClosed)) FinishConnect();
    if (fd_ < 0 || state_ != ConnState::kConnected) return;
  }
  if (events & (net::kReadable | net::kClosed)) ReadFrames();
  if (fd_ >= 0 && (events & net::kWritable)) Flush();
}

void Channel::FinishConnect() {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
    DisconnectLocked(/*reconnectable=*/true);
    return;
  }
  state_ = ConnState::kConnected;
  Flush();
}

void Channel::ReadFrames() {
  char buf[kReadChunk];
  size_t total = 0;
  for (;;) {
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      in_.append(buf, static_cast<size_t>(n));
      total += static_cast<size_t>(n);
      if (static_cast<size_t>(n) < sizeof(buf) || total >= kMaxReadPerEvent) {
        break;
      }
      continue;
    }
    if (n == 0) {
      DisconnectLocked(/*reconnectable=*/true);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    DisconnectLocked(/*reconnectable=*/true);
    return;
  }

  const uint64_t connection = disconnects_;
  size_t off = 0;
  while (off < in_.size()) {
    Frame frame;
    size_t consumed = 0;
    std::string error;
    const FrameDecode r = DecodeFrame(in_.data() + off, in_.size() - off,
                                      &consumed, &frame, &error);
    if (r == FrameDecode::kNeedMore) break;
    if (r == FrameDecode::kError) {
      DisconnectLocked(/*reconnectable=*/true);
      return;
    }
    off += consumed;
    if (frame.type != FrameType::kResponse) continue;
    Status status = Status::OK();
    switch (frame.code) {
      case Code::kOk:
        break;
      case Code::kNoMethod:
        status = Status::InvalidArgument("no such rpc method");
        break;
      case Code::kBadRequest:
        status = Status::InvalidArgument("rpc bad request");
        break;
      case Code::kShutdown:
      case Code::kOverloaded:
        status = Status::Unavailable("rpc server unavailable");
        break;
    }
    Complete(frame.request_id, status, std::move(frame.payload));
    // A callback's own Call may have failed its send and dropped this
    // connection, and in_ with it.
    if (disconnects_ != connection) return;
  }
  if (off == in_.size()) {
    ClearDrained(&in_);
  } else if (off > 0) {
    in_.erase(0, off);
  }
}

void Channel::Flush() {
  while (out_sent_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_sent_,
                             out_.size() - out_sent_, MSG_NOSIGNAL);
    if (n > 0) {
      out_sent_ += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    DisconnectLocked(/*reconnectable=*/true);
    return;
  }
  if (out_sent_ == out_.size()) {
    ClearDrained(&out_);
    out_sent_ = 0;
  }
  const bool want = !out_.empty() || state_ == ConnState::kConnecting;
  if (want != want_write_) {
    want_write_ = want;
    Status rearm = loop_->Rearm(
        fd_, want ? (net::kReadable | net::kWritable) : net::kReadable,
        &handler_);
    if (!rearm.ok()) {
      // Interest set desynced from want_write_: pending output would never
      // flush and every in-flight call would hang to its deadline. Reset
      // the connection so callers fail fast and the next Call reconnects.
      DisconnectLocked(/*reconnectable=*/true);
    }
  }
}

void Channel::Complete(uint64_t request_id, const Status& status,
                       std::string&& payload) {
  loop_->AssertOnLoopThread();
  auto it = pending_.find(request_id);
  if (it == pending_.end()) return;  // duplicate / late / already timed out
  Pending p = std::move(it->second);
  pending_.erase(it);
  if (p.timer_id != 0) loop_->CancelTimer(p.timer_id);
  if (stats_ != nullptr && stats_->inflight() != nullptr) {
    stats_->inflight()->Add(-1);
  }
  if (p.stats != nullptr) {
    if (status.ok()) {
      p.stats->rtt_us->Record(NowUs() - p.sent_at_ms);
    } else {
      p.stats->errors->Increment();
    }
  }
  if (trace_ != nullptr && p.trace_id != 0 && status.ok()) {
    trace_->Record(p.trace_id, "rpc.recv", NowUs(), request_id);
  }
  Deliver(std::move(p.cb), status, std::move(payload));
}

void Channel::FailAll(const Status& status) {
  while (!pending_.empty()) {
    Complete(pending_.begin()->first, status, std::string());
  }
}

void Channel::DisconnectLocked(bool reconnectable) {
  loop_->AssertOnLoopThread();
  if (fd_ >= 0) {
    loop_->Unwatch(fd_);
    ::close(fd_);
    fd_ = -1;
  }
  ++disconnects_;
  state_ = ConnState::kDisconnected;
  want_write_ = false;
  in_.clear();
  out_.clear();
  out_sent_ = 0;
  ClearDrained(&in_);
  ClearDrained(&out_);
  FailAll(reconnectable
              ? Status::Unavailable("rpc connection lost")
              : Status::Unavailable("channel shut down"));
}

}  // namespace memdb::rpc
