#include "rpc/loop.h"

#include <pthread.h>

#include <chrono>

namespace memdb::rpc {

namespace {
// The longest poll of a loop without a step: bounds how late a stop or a
// timer added from a callback is noticed.
constexpr int kMaxPollMs = 100;
}  // namespace

LoopThread::~LoopThread() { Stop(); }

uint64_t LoopThread::NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Status LoopThread::Start(const char* name, Step step) {
  MEMDB_RETURN_IF_ERROR(loop_.Init());
  started_ = true;
  step_ = std::move(step);
  thread_ = std::thread([this, name] {
    pthread_setname_np(pthread_self(), name);
    // Atomic bind (vs the old plain thread::id write): OnLoopThread from
    // another thread racing startup reads a coherent value.
    affinity_.BindToCurrentThread();
    LoopMain();
  });
  return Status::OK();
}

void LoopThread::Stop() {
  if (!started_) return;
  stop_requested_.store(true, std::memory_order_release);
  loop_.Wakeup();
  if (thread_.joinable()) thread_.join();
  started_ = false;
  // Late-posted tasks (e.g. from channel users racing Stop) are dropped;
  // run-down happens inside LoopMain before exit. The loop thread is joined,
  // so touching timers_ here cannot race it.
  MutexLock lock(&task_mu_);
  tasks_.clear();
  timers_.clear();
}

void LoopThread::Post(std::function<void()> fn) {
  {
    MutexLock lock(&task_mu_);
    tasks_.push_back(std::move(fn));
  }
  // LoopMain checks the queue before every poll, so the loop thread itself
  // needs no wakeup.
  if (!affinity_.BoundToCurrentThread()) loop_.Wakeup();
}

// lint:off-loop -- blocking rendezvous for off-loop callers by contract:
// posted work runs on the loop thread, so waiting for it from the loop
// thread would never complete; the guard below turns that mistake into a
// deterministic abort instead of a hang.
void LoopThread::PostSync(std::function<void()> fn) {
  if (affinity_.BoundToCurrentThread()) {
    sync_internal::Die("LoopThread::PostSync called from the loop thread");
  }
  Mutex mu;
  CondVar cv;
  bool done = false;
  Post([&] {
    fn();
    MutexLock lock(&mu);
    done = true;
    cv.Signal();
  });
  MutexLock lock(&mu);
  while (!done) cv.Wait(&mu);
}

Status LoopThread::Watch(int fd, uint32_t events, FdHandler* handler) {
  AssertOnLoopThread();
  return loop_.Add(fd, events, handler);
}

Status LoopThread::Rearm(int fd, uint32_t events, FdHandler* handler) {
  AssertOnLoopThread();
  return loop_.Modify(fd, events, handler);
}

void LoopThread::Unwatch(int fd) {
  AssertOnLoopThread();
  loop_.Remove(fd);
}

uint64_t LoopThread::After(uint64_t delay_ms, std::function<void()> fn) {
  AssertOnLoopThread();
  const uint64_t id = next_timer_id_++;
  timers_[id] = Timer{NowMs() + delay_ms, std::move(fn)};
  return id;
}

void LoopThread::CancelTimer(uint64_t id) {
  AssertOnLoopThread();
  timers_.erase(id);
}

void LoopThread::RunTasks() {
  // Swap out the queue so handlers posting new tasks don't starve the poll.
  {
    MutexLock lock(&task_mu_);
    running_.swap(tasks_);
  }
  for (auto& fn : running_) fn();
  running_.clear();
}

int LoopThread::RunTimers() {
  if (timers_.empty()) return -1;
  const uint64_t now = NowMs();
  // Collect due timers first: callbacks may add/cancel timers.
  for (auto it = timers_.begin(); it != timers_.end();) {
    if (it->second.deadline_ms <= now) {
      due_.push_back(std::move(it->second.fn));
      it = timers_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& fn : due_) fn();
  due_.clear();
  if (timers_.empty()) return -1;
  uint64_t next = ~0ULL;
  for (const auto& [id, t] : timers_) {
    if (t.deadline_ms < next) next = t.deadline_ms;
  }
  const uint64_t now2 = NowMs();
  return next <= now2 ? 0 : static_cast<int>(next - now2);
}

void LoopThread::LoopMain() {
  std::vector<net::Event> events;
  int step_ms = kMaxPollMs;
  while (!stop_requested_.load(std::memory_order_acquire)) {
    RunTasks();
    int timeout_ms = RunTimers();
    if (timeout_ms < 0 || timeout_ms > step_ms) timeout_ms = step_ms;
    {
      MutexLock lock(&task_mu_);
      if (!tasks_.empty()) timeout_ms = 0;
    }
    loop_.Poll(timeout_ms, &events);
    for (const net::Event& ev : events) {
      auto* handler = static_cast<FdHandler*>(ev.tag);
      if (handler != nullptr && handler->on_ready) {
        handler->on_ready(ev.events);
      }
    }
    events.clear();
    if (step_) step_ms = step_();
  }
  // Run-down: execute whatever was posted before the stop flag was seen so
  // PostSync callers blocked at shutdown always complete.
  RunTasks();
}

}  // namespace memdb::rpc
