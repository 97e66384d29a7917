// LoopThread: an owned thread running a net::EventLoop with timers, a
// cross-thread task queue and an optional per-iteration step — the one
// event loop of every process here.
//
// One LoopThread can host any mix of rpc::Server instances (listener + all
// accepted connections), rpc::Channel instances (outbound connections),
// application timers and application fds; memorydb-txlogd runs its entire
// raft replica — server side, peer channels, election/heartbeat timers — on
// a single LoopThread, and memorydb-server runs its RESP connections, its
// durability gate and the gate's log channels on one, its staged batch
// being the step.
//
// One iteration: posted tasks, due timers, one poll (sleeping only while no
// task is queued), the ready fds' handlers, then the step.
//
// Threading contract: Post(), PostSync() and Wakeup() are the thread-safe
// entry points; Watch/Rearm/Unwatch/After/CancelTimer must run on the loop
// thread — enforced at runtime by the ThreadAffinity bound when the loop
// thread starts.

#ifndef MEMDB_RPC_LOOP_H_
#define MEMDB_RPC_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "net/event_loop.h"

namespace memdb::rpc {

class LoopThread {
 public:
  // Readiness callback; receives net::kReadable / kWritable / kClosed bits.
  using FdHandler = net::FdHandler;
  // Runs on the loop thread once per iteration, after the ready fds'
  // handlers. Returns the longest the next poll may sleep, in ms (0 = poll
  // without sleeping).
  using Step = std::function<int()>;

  LoopThread() = default;
  ~LoopThread();
  LoopThread(const LoopThread&) = delete;
  LoopThread& operator=(const LoopThread&) = delete;

  // Spawns the loop thread, named `name` (at most 15 bytes). Without a
  // step the loop sleeps at most 100 ms per poll.
  Status Start(const char* name = "rpc-loop", Step step = nullptr);
  // Joins the loop thread. Pending tasks posted before Stop() still run;
  // timers that have not fired are dropped.
  void Stop();

  // Thread-safe: runs fn on the loop thread, after the current callback.
  // Off the loop thread it wakes the loop; on it, fn is only queued: the
  // loop runs its queue before it next sleeps.
  void Post(std::function<void()> fn);
  // Post and block until fn has run (never call from the loop thread).
  void PostSync(std::function<void()> fn);
  // Thread-safe: the loop runs one more iteration without sleeping.
  void Wakeup() { loop_.Wakeup(); }

  // --- loop-thread-only API -------------------------------------------------
  Status Watch(int fd, uint32_t events, FdHandler* handler);
  Status Rearm(int fd, uint32_t events, FdHandler* handler);
  void Unwatch(int fd);

  // One-shot timer: fires fn after delay_ms. Returns a cancellation id.
  uint64_t After(uint64_t delay_ms, std::function<void()> fn);
  void CancelTimer(uint64_t id);

  bool OnLoopThread() const { return affinity_.BoundToCurrentThread(); }
  // Aborts when called off the loop thread (passes before Start, while the
  // affinity is unbound). Components running on this loop use it to pin
  // their loop-thread-affine state.
  void AssertOnLoopThread() const { affinity_.AssertHeldThread(); }
  // Monotonic milliseconds (steady clock).
  static uint64_t NowMs();

 private:
  void LoopMain();
  void RunTasks();
  // Fires due timers; returns ms until the next timer (or -1 = none).
  int RunTimers();

  net::EventLoop loop_;
  std::thread thread_;
  ThreadAffinity affinity_;  // bound by the loop thread at startup
  std::atomic<bool> stop_requested_{false};
  bool started_ = false;
  Step step_;

  Mutex task_mu_;
  std::vector<std::function<void()>> tasks_ GUARDED_BY(task_mu_);
  // Loop thread: the batch RunTasks swapped out of tasks_; kept, with its
  // capacity, for the next swap.
  std::vector<std::function<void()>> running_;

  // Timers live on the loop thread only (affinity-checked, not locked).
  struct Timer {
    uint64_t deadline_ms = 0;
    std::function<void()> fn;
  };
  std::map<uint64_t, Timer> timers_;  // id -> timer
  std::vector<std::function<void()>> due_;  // RunTimers' scratch
  uint64_t next_timer_id_ = 1;
};

}  // namespace memdb::rpc

#endif  // MEMDB_RPC_LOOP_H_
