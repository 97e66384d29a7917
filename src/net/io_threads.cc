#include "net/io_threads.h"

#include <pthread.h>

#include <string>

namespace memdb::net {

IoThreadPool::IoThreadPool(int extra_threads)
    : stride_(static_cast<size_t>(extra_threads < 0 ? 0 : extra_threads) +
              1) {
  for (int i = 0; i < extra_threads; ++i) {
    // Worker i owns slice i+1; the caller owns slice 0.
    workers_.emplace_back(
        [this, i] { WorkerMain(static_cast<size_t>(i) + 1); });
  }
}

IoThreadPool::~IoThreadPool() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  work_cv_.SignalAll();
  for (std::thread& t : workers_) t.join();
}

void IoThreadPool::Run(size_t jobs, const std::function<void(size_t)>& fn) {
  if (jobs == 0) return;
  const size_t stride = stride_;
  if (workers_.empty() || jobs == 1) {
    for (size_t i = 0; i < jobs; ++i) fn(i);
    return;
  }
  {
    MutexLock lock(&mu_);
    fn_ = &fn;
    jobs_ = jobs;
    completed_ = 0;
    ++generation_;
  }
  work_cv_.SignalAll();
  size_t ran = 0;
  for (size_t i = 0; i < jobs; i += stride) {
    fn(i);
    ++ran;
  }
  MutexLock lock(&mu_);
  completed_ += ran;
  // lint:allow-blocking -- io fan-out barrier: the calling loop parks until
  // every worker drains its slice; bounded by the batch the loop just built.
  while (completed_ != jobs_) done_cv_.Wait(&mu_);
  fn_ = nullptr;
}

// lint:off-loop -- io worker thread body; never runs on the event loop.
void IoThreadPool::WorkerMain(size_t slice) {
  pthread_setname_np(pthread_self(),
                     ("memdb-io-" + std::to_string(slice)).c_str());
  const size_t stride = stride_;
  uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(size_t)>* fn;
    size_t jobs;
    {
      MutexLock lock(&mu_);
      while (!stop_ &&
             (generation_ == seen_generation || fn_ == nullptr)) {
        work_cv_.Wait(&mu_);
      }
      if (stop_) return;
      seen_generation = generation_;
      fn = fn_;
      jobs = jobs_;
    }
    size_t ran = 0;
    for (size_t i = slice; i < jobs; i += stride) {
      (*fn)(i);
      ++ran;
    }
    MutexLock lock(&mu_);
    completed_ += ran;
    if (completed_ == jobs_) done_cv_.SignalAll();
  }
}

}  // namespace memdb::net
