// FaultInjector: deterministic fault hooks for the RPC transport, used by
// tests to prove the retry/dedup invariants (a dropped append ack followed
// by a retry must not double-commit) and by the partition/backoff suites.
//
// Faults act on the server side, at the moment a frame would be written:
//   * DropResponses(method, n)      — swallow the next n responses,
//   * DelayResponses(method, ms, n) — hold the next n responses for ms,
//   * DuplicateResponses(method, n) — send the next n responses twice,
//   * DropRequests(method, n)       — ignore the next n inbound requests
//                                     (as if the request frame was lost).
//
// Thread-safe: tests arm faults from the test thread while the rpc loop
// consults them. Disarmed (nothing left to fire) it costs one atomic load
// per request and response.

#ifndef MEMDB_RPC_FAULT_H_
#define MEMDB_RPC_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "common/sync.h"

namespace memdb::rpc {

class FaultInjector {
 public:
  void DropResponses(const std::string& method, int n) {
    memdb::MutexLock lock(&mu_);
    drop_rsp_[method] += n;
    Arm(n);
  }
  void DelayResponses(const std::string& method, uint64_t ms, int n) {
    memdb::MutexLock lock(&mu_);
    delay_rsp_[method] = {ms, delay_rsp_[method].second + n};
    Arm(n);
  }
  void DuplicateResponses(const std::string& method, int n) {
    memdb::MutexLock lock(&mu_);
    dup_rsp_[method] += n;
    Arm(n);
  }
  void DropRequests(const std::string& method, int n) {
    memdb::MutexLock lock(&mu_);
    drop_req_[method] += n;
    Arm(n);
  }
  // Disarm every outstanding fault (tests that stall a path deliberately
  // and then let it resume).
  void Clear() {
    memdb::MutexLock lock(&mu_);
    drop_rsp_.clear();
    dup_rsp_.clear();
    drop_req_.clear();
    delay_rsp_.clear();
    armed_.store(0, std::memory_order_release);
  }

  // --- transport-side queries ----------------------------------------------
  struct ResponsePlan {
    bool drop = false;
    bool duplicate = false;
    uint64_t delay_ms = 0;
  };
  ResponsePlan OnResponse(const std::string& method) {
    ResponsePlan plan;
    if (armed_.load(std::memory_order_acquire) <= 0) return plan;
    memdb::MutexLock lock(&mu_);
    if (Take(&drop_rsp_, method)) {
      plan.drop = true;
      return plan;
    }
    if (Take(&dup_rsp_, method)) plan.duplicate = true;
    auto it = delay_rsp_.find(method);
    if (it != delay_rsp_.end() && it->second.second > 0) {
      --it->second.second;
      Arm(-1);
      plan.delay_ms = it->second.first;
    }
    return plan;
  }
  bool ShouldDropRequest(const std::string& method) {
    if (armed_.load(std::memory_order_acquire) <= 0) return false;
    memdb::MutexLock lock(&mu_);
    return Take(&drop_req_, method);
  }

 private:
  bool Take(std::map<std::string, int>* m, const std::string& k)
      REQUIRES(mu_) {
    auto it = m->find(k);
    if (it == m->end() || it->second <= 0) return false;
    --it->second;
    Arm(-1);
    return true;
  }
  // Counts the firings left to happen, so a disarmed injector is skipped
  // without its lock.
  void Arm(int n) REQUIRES(mu_) {
    armed_.fetch_add(n, std::memory_order_acq_rel);
  }

  std::atomic<int64_t> armed_{0};
  memdb::Mutex mu_;
  std::map<std::string, int> drop_rsp_ GUARDED_BY(mu_);
  std::map<std::string, int> dup_rsp_ GUARDED_BY(mu_);
  std::map<std::string, int> drop_req_ GUARDED_BY(mu_);
  // ms, count
  std::map<std::string, std::pair<uint64_t, int>> delay_rsp_ GUARDED_BY(mu_);
};

}  // namespace memdb::rpc

#endif  // MEMDB_RPC_FAULT_H_
