// Connection: per-client state machine for the real I/O path. Owns the
// socket fd, an incremental RESP decoder over partial reads, the
// fully-decoded commands awaiting dispatch (in argv slots reused from batch
// to batch), and a bounded output buffer with client-output-buffer
// accounting (soft/hard limits enforced by the server's housekeeping pass).
//
// Threading contract: ReadAndParse() and FlushWrites() are designed to run
// on io threads — they touch only this connection's state and never the
// shared MetricsRegistry. Per-connection I/O totals are accumulated locally
// (TakeBytesIn/TakeBytesOut) and folded into the registry by the loop
// thread after the io barrier.

#ifndef MEMDB_NET_CONNECTION_H_
#define MEMDB_NET_CONNECTION_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "resp/resp.h"

namespace memdb::net {

class Connection {
 public:
  enum class State : uint8_t {
    kOpen,     // reading commands, writing replies
    kClosing,  // no more reads; flush remaining output, then close
    kClosed,   // fd closed (or doomed); awaiting reap by the server
  };

  Connection(int fd, uint64_t id, const resp::DecodeLimits& limits);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Drains the socket (bounded per call; level-triggered epoll re-reports
  // leftovers) and decodes complete commands into pending(). On a protocol
  // error, stops reading and records the error for the server to report.
  void ReadAndParse();

  // Appends pre-encoded reply bytes to the output buffer.
  void QueueOutput(const std::string& encoded) {
    out_.append(encoded);
  }
  // The output buffer, for encoding a reply straight into it (append only).
  std::string* output() { return &out_; }

  // Writes as much buffered output as the socket accepts right now.
  void FlushWrites();

  void Close();

  // Commands decoded but not yet dispatched; consumed by the batch step,
  // which then calls ClearPending. ReadAndParse writes them on an io
  // thread, the loop thread reads them after the io barrier.
  std::span<const std::vector<std::string>> pending() const {
    return {slots_.data(), pending_count_};
  }
  // Forgets the dispatched commands. Their slots stay for the next batch,
  // with their strings' capacity, but only small ones: see kMaxKeptSlots.
  void ClearPending();

  State state() const { return state_; }
  void set_state(State s) { state_ = s; }
  int fd() const { return fd_; }
  uint64_t id() const { return id_; }

  bool peer_closed() const { return peer_closed_; }
  const std::string& protocol_error() const { return protocol_error_; }
  bool protocol_error_reported() const { return protocol_error_reported_; }
  void set_protocol_error_reported() { protocol_error_reported_ = true; }

  size_t output_pending() const { return out_.size() - out_sent_; }
  size_t input_buffered() const { return decoder_.buffered(); }
  // High-water mark of the input buffer since the last Take (loop thread).
  size_t TakeMaxInputBuffered() {
    size_t v = max_input_buffered_;
    max_input_buffered_ = 0;
    return v;
  }
  uint64_t TakeBytesIn() {
    uint64_t v = bytes_in_;
    bytes_in_ = 0;
    return v;
  }
  uint64_t TakeBytesOut() {
    uint64_t v = bytes_out_;
    bytes_out_ = 0;
    return v;
  }

  // Soft client-output-buffer-limit bookkeeping (loop thread only):
  // timestamp (ms) when the soft limit was first continuously exceeded,
  // 0 when currently under it.
  uint64_t soft_over_since_ms = 0;
  // One-shot ASKING flag (loop thread only): the next keyed command may
  // execute against an IMPORTING slot (§5 redirect protocol); consumed by
  // that command whether or not it needed it.
  bool asking = false;
  // Loop-thread bookkeeping: whether EPOLLOUT is currently armed.
  bool want_write = false;
  // Loop-thread bookkeeping: already in this iteration's flush list.
  bool flush_queued = false;

 private:
  const int fd_;
  const uint64_t id_;
  State state_ = State::kOpen;

  // What ClearPending keeps, so that a connection holds at most ~9 KB of
  // argv between batches whatever its client pipelined: the first
  // kMaxKeptSlots slots, each only while it has room for at most
  // kMaxKeptArgs arguments, and a string only while its capacity is at
  // most kMaxKeptArgBytes. That covers a GET or an INCR of a short key;
  // a SET keeps its name and key, not its value. The slot of a frame that
  // is still arriving is held to the same rule between reads.
  static constexpr size_t kMaxKeptSlots = 32;
  static constexpr size_t kMaxKeptArgs = 3;
  static constexpr size_t kMaxKeptArgBytes = 32;

  resp::Decoder decoder_;
  // The decoder writes each command into the next slot; the first
  // pending_count_ are pending().
  std::vector<std::vector<std::string>> slots_;
  size_t pending_count_ = 0;

  std::string out_;
  size_t out_sent_ = 0;

  bool peer_closed_ = false;
  std::string protocol_error_;
  bool protocol_error_reported_ = false;

  uint64_t bytes_in_ = 0;
  uint64_t bytes_out_ = 0;
  size_t max_input_buffered_ = 0;
};

}  // namespace memdb::net

#endif  // MEMDB_NET_CONNECTION_H_
