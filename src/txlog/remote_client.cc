#include "txlog/remote_client.h"

#include <algorithm>
#include <utility>

#include "common/sync.h"

namespace memdb::txlog {

// One leader-directed operation (Append / Tail) across its retries.
// `handle` decodes a successful RPC payload: returns true once the user
// callback ran; otherwise sets *redirect_hint (txlogd node id, 0 = none) and
// the op is retried. `fail` delivers the terminal error.
struct RemoteClient::LeaderOp {
  std::string method;
  std::string body;  // identical bytes every attempt — retries stay idempotent
  uint64_t trace_id = 0;
  uint64_t timeout_ms = 0;
  int attempts_left = 0;
  int redirects_left = 0;
  int attempt_no = 0;
  bool indeterminate = false;  // a timed-out attempt may have committed
  std::function<bool(const std::string& payload, uint64_t* redirect_hint)>
      handle;
  std::function<void(const Status&)> fail;
};

RemoteClient::RemoteClient(rpc::LoopThread* loop,
                           std::vector<std::string> endpoints, Options options,
                           MetricsRegistry* registry)
    : loop_(loop),
      options_(options),
      rng_(options.seed != 0 ? options.seed : 0x726c + options.writer_id) {
  if (registry != nullptr) {
    stats_ = std::make_unique<rpc::RpcStats>(
        registry, std::vector<std::string>{
                      rpcwire::kAppend, rpcwire::kRead, rpcwire::kTail,
                      rpcwire::kTrim});
    retries_ = registry->GetCounter("txlog_retries_total");
    redirects_ = registry->GetCounter("txlog_redirects_total");
  }
  for (const std::string& ep : endpoints) {
    std::string host;
    uint16_t port = 0;
    if (!rpcwire::SplitEndpoint(ep, &host, &port)) continue;
    channels_.push_back(
        std::make_unique<rpc::Channel>(loop_, host, port, stats_.get()));
    if (options_.trace != nullptr) {
      channels_.back()->set_trace_log(options_.trace);
    }
  }
}

RemoteClient::~RemoteClient() = default;

void RemoteClient::Shutdown() {
  shutdown_.store(true, std::memory_order_release);
  for (auto& ch : channels_) ch->Shutdown();
}

size_t RemoteClient::PickTarget() {
  loop_->AssertOnLoopThread();
  if (leader_hint_ < channels_.size()) return leader_hint_;
  return round_robin_++ % channels_.size();
}

uint64_t RemoteClient::BackoffMs(int attempt) {
  uint64_t base = options_.backoff_base_ms;
  for (int i = 0; i < attempt && base < options_.backoff_cap_ms; ++i) {
    base <<= 1;
  }
  base = std::min(base, options_.backoff_cap_ms);
  // Jitter: uniform in [base/2, base) so retrying nodes decorrelate.
  const uint64_t half = std::max<uint64_t>(1, base / 2);
  return half + rng_.Uniform(half);
}

void RemoteClient::StartLeaderOp(std::shared_ptr<LeaderOp> op) {
  loop_->AssertOnLoopThread();
  if (shutdown_.load(std::memory_order_acquire) || channels_.empty()) {
    op->fail(Status::Unavailable("txlog client shut down"));
    return;
  }
  const size_t target = PickTarget();
  ChannelFor(target)->Call(
      op->method, op->body, op->timeout_ms, op->trace_id,
      [this, op](Status status, std::string payload) {
        FinishAttempt(std::move(op), std::move(status), std::move(payload));
      });
}

void RemoteClient::FinishAttempt(std::shared_ptr<LeaderOp> op, Status status,
                                 std::string payload) {
  loop_->AssertOnLoopThread();
  if (shutdown_.load(std::memory_order_acquire)) {
    op->fail(Status::Unavailable("txlog client shut down"));
    return;
  }
  if (!status.ok()) {
    if (status.IsTimedOut()) op->indeterminate = true;
    // The endpoint we trusted failed; rediscover the leader.
    leader_hint_ = SIZE_MAX;
    RetryLater(std::move(op));
    return;
  }
  uint64_t hint = 0;
  if (op->handle(payload, &hint)) return;
  if (hint >= 1 && hint <= channels_.size()) {
    if (op->redirects_left > 0) {
      --op->redirects_left;
      leader_hint_ = static_cast<size_t>(hint - 1);
      if (redirects_ != nullptr) redirects_->Increment();
      StartLeaderOp(std::move(op));  // redirects don't burn backoff
      return;
    }
    // Redirect budget exhausted (hint loop?) — fall through to backoff.
    leader_hint_ = SIZE_MAX;
  } else if (hint != 0) {
    leader_hint_ = SIZE_MAX;  // hint names an endpoint we don't know
  }
  RetryLater(std::move(op));
}

void RemoteClient::RetryLater(std::shared_ptr<LeaderOp> op) {
  loop_->AssertOnLoopThread();
  if (--op->attempts_left <= 0) {
    op->fail(op->indeterminate
                 ? Status::TimedOut("append unresolved after retries")
                 : Status::Unavailable("txlog group unreachable"));
    return;
  }
  if (retries_ != nullptr) retries_->Increment();
  const int attempt = op->attempt_no++;
  const uint64_t delay = BackoffMs(attempt);
  if (backoff_hook) backoff_hook(attempt, delay);
  loop_->After(delay, [this, op = std::move(op)]() mutable {
    StartLeaderOp(std::move(op));
  });
}

void RemoteClient::Append(uint64_t prev_index, LogRecord record,
                          AppendCallback cb) {
  // Stamp identity once; every retry reuses it, which is what lets the
  // daemon's (writer, request_id) dedup collapse duplicates.
  if (record.writer == 0) record.writer = options_.writer_id;
  if (record.request_id == 0) record.request_id = NextRequestId();

  wire::ClientAppendRequest req;
  req.prev_index = prev_index;
  req.record = std::move(record);

  auto op = std::make_shared<LeaderOp>();
  op->method = rpcwire::kAppend;
  op->trace_id = req.record.trace_id;
  op->body = req.Encode();
  op->timeout_ms = options_.rpc_timeout_ms;
  op->attempts_left = options_.max_attempts;
  op->redirects_left = options_.max_redirects;
  op->handle = [cb](const std::string& payload, uint64_t* hint) {
    wire::ClientAppendResponse resp;
    if (!wire::ClientAppendResponse::Decode(Slice(payload), &resp)) {
      cb(Status::Corruption("bad append response"), 0);
      return true;
    }
    switch (resp.result) {
      case wire::ClientResult::kOk:
        cb(Status::OK(), resp.index);
        return true;
      case wire::ClientResult::kConditionFailed:
        cb(Status::ConditionFailed("log tail moved"), resp.index);
        return true;
      case wire::ClientResult::kNotLeader:
        *hint = static_cast<uint64_t>(resp.leader_hint);
        return false;
      case wire::ClientResult::kUnavailable:
        return false;
    }
    return false;
  };
  op->fail = [cb](const Status& s) { cb(s, 0); };
  loop_->Post([this, op = std::move(op)]() mutable {
    StartLeaderOp(std::move(op));
  });
}

void RemoteClient::Tail(TailCallback cb) {
  auto op = std::make_shared<LeaderOp>();
  op->method = rpcwire::kTail;
  op->timeout_ms = options_.rpc_timeout_ms;
  op->attempts_left = options_.max_attempts;
  op->redirects_left = options_.max_redirects;
  op->handle = [cb](const std::string& payload, uint64_t* hint) {
    wire::ClientTailResponse resp;
    if (!wire::ClientTailResponse::Decode(Slice(payload), &resp)) {
      cb(Status::Corruption("bad tail response"), resp);
      return true;
    }
    switch (resp.result) {
      case wire::ClientResult::kOk:
        cb(Status::OK(), resp);
        return true;
      case wire::ClientResult::kNotLeader:
        *hint = static_cast<uint64_t>(resp.leader_hint);
        return false;
      default:
        return false;
    }
  };
  op->fail = [cb](const Status& s) {
    cb(s, wire::ClientTailResponse{});
  };
  loop_->Post([this, op = std::move(op)]() mutable {
    StartLeaderOp(std::move(op));
  });
}

void RemoteClient::Trim(uint64_t upto_index, TrimCallback cb) {
  loop_->Post([this, upto_index, cb = std::move(cb)] {
    loop_->AssertOnLoopThread();
    if (shutdown_.load(std::memory_order_acquire) || channels_.empty()) {
      cb(Status::Unavailable("txlog client shut down"), 0);
      return;
    }
    rpcwire::TrimRequest req;
    req.upto_index = upto_index;
    const std::string body = req.Encode();
    struct Fanout {
      size_t remaining = 0;
      bool any_ok = false;
      uint64_t first_index = 0;
    };
    auto state = std::make_shared<Fanout>();
    state->remaining = channels_.size();
    for (auto& ch : channels_) {
      ch->Call(rpcwire::kTrim, body, options_.rpc_timeout_ms, 0,
               [state, cb](Status status, std::string payload) {
                 rpcwire::TrimResponse resp;
                 if (status.ok() &&
                     rpcwire::TrimResponse::Decode(Slice(payload), &resp)) {
                   state->any_ok = true;
                   state->first_index =
                       std::max(state->first_index, resp.first_index);
                 }
                 if (--state->remaining == 0) {
                   cb(state->any_ok
                          ? Status::OK()
                          : Status::Unavailable("no txlogd answered trim"),
                      state->first_index);
                 }
               });
    }
  });
}

void RemoteClient::Read(uint64_t from_index, uint64_t max_count,
                        uint64_t wait_ms, ReadCallback cb) {
  loop_->Post([this, from_index, max_count, wait_ms, cb = std::move(cb)] {
    ReadAttempt(from_index, max_count, wait_ms, std::move(cb),
                options_.max_attempts);
  });
}

void RemoteClient::ReadAttempt(uint64_t from_index, uint64_t max_count,
                               uint64_t wait_ms, ReadCallback cb,
                               int attempts_left) {
  loop_->AssertOnLoopThread();
  if (shutdown_.load(std::memory_order_acquire) || channels_.empty()) {
    cb(Status::Unavailable("txlog client shut down"),
       wire::ClientReadResponse{});
    return;
  }
  rpcwire::ReadStreamRequest req;
  req.from_index = from_index;
  req.max_count = max_count;
  req.wait_ms = wait_ms;
  // Reads are served by any replica; don't chase the leader hint.
  const size_t target = round_robin_++ % channels_.size();
  ChannelFor(target)->Call(
      rpcwire::kRead, req.Encode(), options_.rpc_timeout_ms + wait_ms, 0,
      [this, from_index, max_count, wait_ms, cb, attempts_left](
          Status status, std::string payload) {
        wire::ClientReadResponse resp;
        if (status.ok() &&
            !wire::ClientReadResponse::Decode(Slice(payload), &resp)) {
          status = Status::Corruption("bad read response");
        }
        if (status.ok()) {
          cb(status, resp);
          return;
        }
        if (attempts_left <= 1) {
          cb(status, resp);
          return;
        }
        if (retries_ != nullptr) retries_->Increment();
        const int attempt = options_.max_attempts - attempts_left;
        const uint64_t delay = BackoffMs(attempt);
        if (backoff_hook) backoff_hook(attempt, delay);
        loop_->After(delay, [this, from_index, max_count, wait_ms, cb,
                             attempts_left] {
          ReadAttempt(from_index, max_count, wait_ms, cb, attempts_left - 1);
        });
      });
}

// --- blocking wrappers -----------------------------------------------------

namespace {

// One-shot rendezvous between a loop-thread callback and a blocked caller.
template <typename T>
struct SyncSlot {
  Mutex mu;
  CondVar cv;
  bool done GUARDED_BY(mu) = false;
  Status status GUARDED_BY(mu) = Status::OK();
  T value GUARDED_BY(mu){};

  void Set(const Status& s, T v) {
    MutexLock lock(&mu);
    status = s;
    value = std::move(v);
    done = true;
    cv.Signal();
  }
  // lint:off-loop -- the blocking half of the sync API below; only ever
  // entered from a non-loop caller thread.
  Status Wait(T* out) {
    MutexLock lock(&mu);
    while (!done) cv.Wait(&mu);
    if (out != nullptr) *out = std::move(value);
    return status;
  }
};

}  // namespace

// lint:off-loop -- blocking sync wrapper for non-loop callers
// (tests, restore, the offbox runner); parks on SyncSlot::Wait.
Status RemoteClient::AppendSync(uint64_t prev_index, LogRecord record,
                                uint64_t* index) {
  auto slot = std::make_shared<SyncSlot<uint64_t>>();
  Append(prev_index, std::move(record),
         [slot](const Status& s, uint64_t idx) { slot->Set(s, idx); });
  return slot->Wait(index);
}

// lint:off-loop -- blocking sync wrapper for non-loop callers
// (tests, restore, the offbox runner); parks on SyncSlot::Wait.
Status RemoteClient::ReadSync(uint64_t from_index, uint64_t max_count,
                              uint64_t wait_ms,
                              wire::ClientReadResponse* out) {
  auto slot = std::make_shared<SyncSlot<wire::ClientReadResponse>>();
  Read(from_index, max_count, wait_ms,
       [slot](const Status& s, const wire::ClientReadResponse& r) {
         slot->Set(s, r);
       });
  return slot->Wait(out);
}

// lint:off-loop -- blocking sync wrapper for non-loop callers
// (tests, restore, the offbox runner); parks on SyncSlot::Wait.
Status RemoteClient::TailSync(wire::ClientTailResponse* out) {
  auto slot = std::make_shared<SyncSlot<wire::ClientTailResponse>>();
  Tail([slot](const Status& s, const wire::ClientTailResponse& r) {
    slot->Set(s, r);
  });
  return slot->Wait(out);
}

// lint:off-loop -- blocking sync wrapper for non-loop callers
// (tests, restore, the offbox runner); parks on SyncSlot::Wait.
Status RemoteClient::TrimSync(uint64_t upto_index, uint64_t* first_index) {
  auto slot = std::make_shared<SyncSlot<uint64_t>>();
  Trim(upto_index,
       [slot](const Status& s, uint64_t first) { slot->Set(s, first); });
  return slot->Wait(first_index);
}

}  // namespace memdb::txlog
