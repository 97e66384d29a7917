#include "net/connection.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "common/buffer.h"

namespace memdb::net {

namespace {
// Per-ReadAndParse ceiling: with level-triggered epoll a connection that
// still has unread bytes is simply re-reported next iteration, so bounding
// one drain pass keeps a single firehose client from starving the batch.
constexpr size_t kMaxReadsPerPass = 64;
constexpr size_t kReadChunk = 16 * 1024;

// What an argv slot keeps between uses: only room for a few short
// arguments (see Connection::kMaxKeptSlots).
void KeepSmall(std::vector<std::string>* argv, size_t max_args,
               size_t max_arg_bytes) {
  if (argv->capacity() > max_args) {
    std::vector<std::string>().swap(*argv);
    return;
  }
  for (std::string& arg : *argv) {
    if (arg.capacity() > max_arg_bytes) std::string().swap(arg);
  }
}
}  // namespace

Connection::Connection(int fd, uint64_t id, const resp::DecodeLimits& limits)
    : fd_(fd), id_(id) {
  decoder_.set_limits(limits);
}

Connection::~Connection() { Close(); }

void Connection::Close() {
  if (state_ != State::kClosed) {
    ::close(fd_);
    state_ = State::kClosed;
  }
}

void Connection::ReadAndParse() {
  if (state_ != State::kOpen) return;
  char buf[kReadChunk];
  for (size_t pass = 0; pass < kMaxReadsPerPass; ++pass) {
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      bytes_in_ += static_cast<uint64_t>(n);
      decoder_.Feed(Slice(buf, static_cast<size_t>(n)));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      peer_closed_ = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    peer_closed_ = true;  // fatal read error: treat like a hangup
    break;
  }
  if (decoder_.buffered() > max_input_buffered_) {
    max_input_buffered_ = decoder_.buffered();
  }
  if (!protocol_error_.empty()) return;
  std::string error;
  for (;;) {  // until kNeedMore, which also gives back a drained buffer
    if (pending_count_ == slots_.size()) slots_.emplace_back();
    const resp::DecodeStatus st =
        decoder_.DecodeCommand(&slots_[pending_count_], &error);
    if (st == resp::DecodeStatus::kOk) {
      ++pending_count_;
      continue;
    }
    if (st == resp::DecodeStatus::kError) {
      protocol_error_ = error.empty() ? "protocol error" : error;
    }
    break;
  }
  // A frame still arriving is decoded again from its start once the rest
  // is here, so until then its slot keeps no more than a kept slot does:
  // the frame's bytes wait in the decoder only once.
  if (pending_count_ < slots_.size()) {
    KeepSmall(&slots_[pending_count_], kMaxKeptArgs, kMaxKeptArgBytes);
  }
}

void Connection::ClearPending() {
  pending_count_ = 0;
  if (slots_.size() > kMaxKeptSlots) slots_.resize(kMaxKeptSlots);
  // A batch at the cap takes one slot more, for its draining decode: room
  // for twice the cap stays, so such batches reallocate nothing.
  if (slots_.capacity() > 2 * kMaxKeptSlots) slots_.shrink_to_fit();
  for (std::vector<std::string>& argv : slots_) {
    KeepSmall(&argv, kMaxKeptArgs, kMaxKeptArgBytes);
  }
}

void Connection::FlushWrites() {
  if (state_ == State::kClosed) return;
  while (out_sent_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_sent_,
                             out_.size() - out_sent_, MSG_NOSIGNAL);
    if (n > 0) {
      bytes_out_ += static_cast<uint64_t>(n);
      out_sent_ += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // EPIPE / ECONNRESET: the reply sink is gone. Drop the undeliverable
    // output so the reaper sees a drained, dead connection.
    peer_closed_ = true;
    out_.clear();
    out_sent_ = 0;
    return;
  }
  if (out_sent_ == out_.size()) {
    ClearDrained(&out_);
    out_sent_ = 0;
  } else if (out_sent_ > 64 * 1024 && out_sent_ > out_.size() / 2) {
    out_.erase(0, out_sent_);
    out_sent_ = 0;
  }
}

}  // namespace memdb::net
