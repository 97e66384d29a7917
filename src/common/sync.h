// Annotated synchronization primitives — the only place in the tree allowed
// to touch <mutex>/<condition_variable> (enforced by memdb-analyzer). Every
// other file uses memdb::Mutex/MutexLock/CondVar so that clang's
// thread-safety analysis (common/thread_annotations.h) sees every lock and
// -DMEMDB_THREAD_SAFETY_ANALYSIS=ON can reject unguarded access at compile
// time.
//
// Beyond the static annotations, two runtime checks encode the repo's two
// ownership disciplines:
//   * Mutex::AssertHeld()            — "this state is mutex-guarded":
//     aborts (on every build type) if the calling thread does not hold the
//     lock. Cheap: one relaxed atomic compare.
//   * ThreadAffinity::AssertHeldThread() — "this state is loop-thread-
//     affine" (owned by exactly one thread, no lock at all): aborts if
//     called from any thread other than the one that bound the affinity.
//     Unbound affinities pass, so single-threaded setup before the owning
//     thread spawns needs no special-casing.
//
// CondVar deliberately has no predicate-lambda Wait overload: clang's
// analysis treats a lambda body as a separate function, so a predicate
// reading GUARDED_BY state would produce false positives. Callers write
// the standard explicit loop instead:
//
//   MutexLock lock(&mu_);
//   while (!ready_) cv_.Wait(&mu_);

#ifndef MEMDB_COMMON_SYNC_H_
#define MEMDB_COMMON_SYNC_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "common/thread_annotations.h"

namespace memdb {

namespace sync_internal {
// Prints `what` to stderr and aborts; out-of-line so the assert fast path
// stays small enough to inline.
[[noreturn]] void Die(const char* what);
}  // namespace sync_internal

class CondVar;

// A std::mutex wrapper carrying the CAPABILITY attribute plus a runtime
// owner check. Non-reentrant, non-shared; pairs with MutexLock (scoped) or
// explicit Lock/Unlock.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  ~Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
    mu_.lock();
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  }

  void Unlock() RELEASE() {
    owner_.store(std::thread::id(), std::memory_order_relaxed);
    mu_.unlock();
  }

  bool TryLock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
    return true;
  }

  // Aborts unless the calling thread holds this mutex. Use at the top of
  // helpers whose REQUIRES contract is reached through a std::function or
  // other boundary the static analysis cannot see through.
  void AssertHeld() const ASSERT_CAPABILITY(this) {
    if (owner_.load(std::memory_order_relaxed) !=
        std::this_thread::get_id()) {
      sync_internal::Die("Mutex::AssertHeld failed: lock not held by this thread");
    }
  }

 private:
  friend class CondVar;
  std::mutex mu_;
  // Owner tracking for AssertHeld; relaxed is enough — a thread always
  // observes its own store, and any other value fails the assert either way.
  std::atomic<std::thread::id> owner_{};
};

// RAII lock for Mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

// Condition variable bound to memdb::Mutex. Wait atomically releases the
// mutex and reacquires it before returning (standard semantics); the
// REQUIRES annotation makes the analysis check the caller holds the lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) REQUIRES(mu);

  // Returns false if `timeout_ms` elapsed without a notification (the
  // mutex is reacquired either way). Spurious wakeups return true; callers
  // loop on their predicate as usual.
  bool WaitFor(Mutex* mu, uint64_t timeout_ms) REQUIRES(mu);

  void Signal() { cv_.notify_one(); }
  void SignalAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

// Encodes "this state belongs to exactly one thread" (the event-loop
// discipline used by net::RespServer, rpc::LoopThread and everything built
// on them) as a runtime check instead of a comment. The owning thread calls
// BindToCurrentThread() once at startup; methods touching affine state call
// AssertHeldThread(). An unbound affinity passes every assert, so
// construction-time setup from the spawning thread is fine.
class ThreadAffinity {
 public:
  ThreadAffinity() = default;
  ThreadAffinity(const ThreadAffinity&) = delete;
  ThreadAffinity& operator=(const ThreadAffinity&) = delete;

  // Binds (or re-binds, e.g. across a Stop/Start cycle) to the caller.
  void BindToCurrentThread() {
    tid_.store(std::this_thread::get_id(), std::memory_order_release);
  }

  // Back to the unbound (assert-anything) state; call after joining the
  // owning thread if the state becomes free-threaded again.
  void Reset() { tid_.store(std::thread::id(), std::memory_order_release); }

  bool Bound() const {
    return tid_.load(std::memory_order_acquire) != std::thread::id();
  }

  bool BoundToCurrentThread() const {
    return tid_.load(std::memory_order_acquire) ==
           std::this_thread::get_id();
  }

  // Aborts if bound to a different thread than the caller.
  void AssertHeldThread() const {
    const std::thread::id t = tid_.load(std::memory_order_acquire);
    if (t != std::thread::id() && t != std::this_thread::get_id()) {
      sync_internal::Die(
          "ThreadAffinity::AssertHeldThread failed: called off the owning "
          "thread");
    }
  }

 private:
  std::atomic<std::thread::id> tid_{};
};

}  // namespace memdb

#endif  // MEMDB_COMMON_SYNC_H_
