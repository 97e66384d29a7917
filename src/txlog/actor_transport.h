// ActorTransport: the log client's transport inside the simulator. A
// simulated actor (a database node, the off-box snapshotter, a test
// harness) reaches the RaftReplica actors of one shard's log through
// sim::Actor::Rpc and After, so every seeded run exercises the same
// retry, redirect and indeterminacy rules that memorydb-server ships.

#ifndef MEMDB_TXLOG_ACTOR_TRANSPORT_H_
#define MEMDB_TXLOG_ACTOR_TRANSPORT_H_

#include <utility>
#include <vector>

#include "sim/actor.h"
#include "txlog/log_client.h"

namespace memdb::txlog {

class ActorTransport : public LogClient::Transport {
 public:
  // `replicas` in the log group's order: a leader hint h names replicas[h-1].
  ActorTransport(sim::Actor* owner, std::vector<sim::NodeId> replicas)
      : owner_(owner), replicas_(std::move(replicas)) {}

  size_t size() const override { return replicas_.size(); }
  // An actor is single-threaded: its own calls are already on its thread.
  void Post(std::function<void()> fn) override { fn(); }
  void After(uint64_t delay_ms, std::function<void()> fn) override {
    owner_->After(delay_ms * sim::kMs, std::move(fn));
  }
  void Call(size_t i, const std::string& method, std::string body,
            uint64_t timeout_ms, uint64_t /*trace_id*/, Callback cb) override {
    owner_->Rpc(replicas_[i], method, std::move(body), timeout_ms * sim::kMs,
                std::move(cb));
  }

 private:
  sim::Actor* const owner_;
  const std::vector<sim::NodeId> replicas_;
};

}  // namespace memdb::txlog

#endif  // MEMDB_TXLOG_ACTOR_TRANSPORT_H_
