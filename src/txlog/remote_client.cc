#include "txlog/remote_client.h"

#include <utility>

#include "common/sync.h"

namespace memdb::txlog {

// The log client's transport: one rpc::Channel per endpoint, on the loop.
class RemoteClient::ChannelTransport : public LogClient::Transport {
 public:
  ChannelTransport(rpc::LoopThread* loop,
                   const std::vector<std::unique_ptr<rpc::Channel>>* channels)
      : loop_(loop), channels_(channels) {}

  size_t size() const override { return channels_->size(); }
  // On the loop thread the client already runs where it lives: no hop, so
  // an append issued by the loop goes out before the loop moves on.
  void Post(std::function<void()> fn) override {
    if (loop_->OnLoopThread()) {
      fn();
      return;
    }
    loop_->Post(std::move(fn));
  }
  void After(uint64_t delay_ms, std::function<void()> fn) override {
    loop_->AssertOnLoopThread();
    loop_->After(delay_ms, std::move(fn));
  }
  void Call(size_t i, const std::string& method, std::string body,
            uint64_t timeout_ms, uint64_t trace_id, Callback cb) override {
    loop_->AssertOnLoopThread();
    (*channels_)[i]->Call(method, std::move(body), timeout_ms, trace_id,
                          std::move(cb));
  }

 private:
  rpc::LoopThread* const loop_;
  const std::vector<std::unique_ptr<rpc::Channel>>* const channels_;
};

namespace {
std::unique_ptr<rpc::RpcStats> MakeStats(MetricsRegistry* registry) {
  if (registry == nullptr) return nullptr;
  return std::make_unique<rpc::RpcStats>(
      registry, std::vector<std::string>{rpcwire::kAppend, rpcwire::kRead,
                                         rpcwire::kTail, rpcwire::kTrim});
}
}  // namespace

RemoteClient::RemoteClient(rpc::LoopThread* loop,
                           std::vector<std::string> endpoints, Options options,
                           MetricsRegistry* registry)
    : stats_(MakeStats(registry)),
      core_(std::make_unique<ChannelTransport>(loop, &channels_), options,
            registry) {
  for (const std::string& ep : endpoints) {
    std::string host;
    uint16_t port = 0;
    if (!rpcwire::SplitEndpoint(ep, &host, &port)) continue;
    channels_.push_back(
        std::make_unique<rpc::Channel>(loop, host, port, stats_.get()));
    if (options.trace != nullptr) {
      channels_.back()->set_trace_log(options.trace);
    }
  }
  core_.backoff_hook = [this](int attempt, uint64_t delay_ms) {
    if (backoff_hook) backoff_hook(attempt, delay_ms);
  };
}

RemoteClient::~RemoteClient() = default;

void RemoteClient::Shutdown() {
  core_.Stop();
  for (auto& ch : channels_) ch->Shutdown();
}

void RemoteClient::Close() {
  core_.Stop();
  for (auto& ch : channels_) ch->Close();
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
