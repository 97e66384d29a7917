// EventLoop: a thin epoll wrapper — the readiness core of the real I/O path
// (rpc::LoopThread runs it for memorydb-server, txlogd and every rpc
// client). One loop instance is owned and polled by a single thread; the
// only cross-thread entry point is Wakeup(), which forces a sleeping Poll()
// to return (used for shutdown and for handing work to the loop).
//
// This is the real-socket counterpart of sim::Scheduler: where the simulator
// advances virtual time and delivers messages, the EventLoop blocks in
// epoll_wait and reports which file descriptors are ready.

#ifndef MEMDB_NET_EVENT_LOOP_H_
#define MEMDB_NET_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"

namespace memdb::net {

// Readiness interest / result bits (mapped onto EPOLLIN/EPOLLOUT internally).
inline constexpr uint32_t kReadable = 1u << 0;
inline constexpr uint32_t kWritable = 1u << 1;
// Result-only: peer hung up or the fd errored; always safe to close.
inline constexpr uint32_t kClosed = 1u << 2;

struct Event {
  void* tag = nullptr;  // the tag registered with Add/Modify
  uint32_t events = 0;  // kReadable | kWritable | kClosed
};

// The tag rpc::LoopThread registers for an fd: its readiness callback,
// which receives kReadable / kWritable / kClosed bits.
struct FdHandler {
  std::function<void(uint32_t)> on_ready;
};

class EventLoop {
 public:
  EventLoop() = default;
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Creates the epoll instance and the internal wakeup eventfd.
  Status Init();

  // Registers `fd` with the given interest set; `tag` is returned verbatim
  // in Events (typically a Connection* or the listener sentinel).
  Status Add(int fd, uint32_t events, void* tag);
  Status Modify(int fd, uint32_t events, void* tag);
  void Remove(int fd);

  // Blocks up to timeout_ms (-1 = indefinitely) and fills *out with ready
  // fds. Wakeup notifications are drained internally and simply cause an
  // early return. Returns the number of events delivered (0 on timeout).
  int Poll(int timeout_ms, std::vector<Event>* out);

  // Thread-safe: makes the current/next Poll return immediately. Wakeups
  // coalesce: while one is pending (written, not yet drained by Poll) the
  // next ones write nothing.
  void Wakeup();

 private:
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> wake_pending_{false};
};

}  // namespace memdb::net

#endif  // MEMDB_NET_EVENT_LOOP_H_
