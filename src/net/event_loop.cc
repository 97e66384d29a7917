#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace memdb::net {

namespace {

uint32_t ToEpoll(uint32_t events) {
  uint32_t out = 0;
  if (events & kReadable) out |= EPOLLIN;
  if (events & kWritable) out |= EPOLLOUT;
  return out;
}

uint32_t FromEpoll(uint32_t events) {
  uint32_t out = 0;
  if (events & (EPOLLIN | EPOLLPRI)) out |= kReadable;
  if (events & EPOLLOUT) out |= kWritable;
  if (events & (EPOLLHUP | EPOLLERR | EPOLLRDHUP)) out |= kClosed;
  return out;
}

}  // namespace

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status EventLoop::Init() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::Internal(std::string("epoll_create1: ") +
                            std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    return Status::Internal(std::string("eventfd: ") + std::strerror(errno));
  }
  // A Wakeup made before the eventfd existed wrote nothing.
  wake_pending_.store(false, std::memory_order_release);
  // The wakeup fd is registered with a null tag; Poll filters it out.
  return Add(wake_fd_, kReadable, nullptr);
}

Status EventLoop::Add(int fd, uint32_t events, void* tag) {
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = ToEpoll(events);
  ev.data.ptr = tag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return Status::Internal(std::string("epoll_ctl(ADD): ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

Status EventLoop::Modify(int fd, uint32_t events, void* tag) {
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = ToEpoll(events);
  ev.data.ptr = tag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return Status::Internal(std::string("epoll_ctl(MOD): ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

void EventLoop::Remove(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

int EventLoop::Poll(int timeout_ms, std::vector<Event>* out) {
  struct epoll_event evs[128];
  int n;
  do {
    n = ::epoll_wait(epoll_fd_, evs, 128, timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return 0;
  out->clear();
  for (int i = 0; i < n; ++i) {
    if (evs[i].data.ptr == nullptr) {
      // Wakeup eventfd: one read drains the whole counter. The flag clears
      // only after it, so a Wakeup racing the drain either sees the flag
      // still set (and its work is picked up by the caller's checks after
      // this Poll) or writes again; clearing first could leave the flag set
      // over a drained counter and swallow every later wakeup.
      uint64_t v;
      [[maybe_unused]] ssize_t n = ::read(wake_fd_, &v, sizeof(v));
      wake_pending_.store(false, std::memory_order_release);
      continue;
    }
    out->push_back(Event{evs[i].data.ptr, FromEpoll(evs[i].events)});
  }
  return static_cast<int>(out->size());
}

void EventLoop::Wakeup() {
  if (wake_pending_.exchange(true, std::memory_order_acq_rel)) return;
  const uint64_t one = 1;
  // A full eventfd counter still wakes the poller; ignore short writes.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

}  // namespace memdb::net
