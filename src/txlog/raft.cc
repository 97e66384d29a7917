#include "txlog/raft.h"

#include <algorithm>

#include "txlog/rpc_wire.h"

namespace memdb::txlog {

using sim::Message;

RaftReplica::RaftReplica(sim::Simulation* sim, sim::NodeId id,
                         std::vector<sim::NodeId> members, RaftOptions options)
    : Actor(sim, id),
      members_(std::move(members)),
      options_(options),
      disk_(&sim->scheduler(), 1) {
  for (sim::NodeId m : members_) {
    if (m != id) peers_.push_back(m);
  }
  config_.self = id;
  config_.heartbeat_interval = options_.heartbeat_interval;
  config_.election_timeout_min = options_.election_timeout_min;
  config_.election_timeout_max = options_.election_timeout_max;
  config_.seed = sim->rng().Next() ^ id;
  core_ = std::make_unique<RaftCore>(config_, RaftPersistentState(),
                                     &metrics_, &trace_);

  On(rpcwire::kRaftVote, [this](const Message& m) {
    wire::VoteRequest req;
    if (!wire::VoteRequest::Decode(m.payload, &req)) return;
    core_->OnVoteRequest(Now(), Hold(m), req);
    Pump();
  });
  On(rpcwire::kRaftAppendEntries, [this](const Message& m) {
    wire::AppendEntriesRequest req;
    if (!wire::AppendEntriesRequest::Decode(m.payload, &req)) return;
    core_->OnAppendEntries(Now(), Hold(m), std::move(req));
    Pump();
  });
  On(rpcwire::kAppend, [this](const Message& m) {
    wire::ClientAppendRequest req;
    if (!wire::ClientAppendRequest::Decode(m.payload, &req)) {
      ReplyError(m, Status::InvalidArgument("bad append request"));
      return;
    }
    core_->Propose(Now(), Hold(m), req.prev_index, std::move(req.record));
    Pump();
  });
  On(rpcwire::kRead, [this](const Message& m) {
    rpcwire::ReadStreamRequest req;
    if (!rpcwire::ReadStreamRequest::Decode(m.payload, &req)) {
      ReplyError(m, Status::InvalidArgument("bad read request"));
      return;
    }
    Reply(m, core_->EncodeRead(req.from_index, req.max_count));
  });
  On(rpcwire::kTail, [this](const Message& m) {
    wire::ClientTailResponse resp = core_->Tail();
    resp.leader_hint = Hint(resp.leader_hint);
    Reply(m, resp.Encode());
  });
  On(rpcwire::kTrim, [this](const Message& m) {
    rpcwire::TrimRequest req;
    if (!rpcwire::TrimRequest::Decode(m.payload, &req)) {
      ReplyError(m, Status::InvalidArgument("bad trim request"));
      return;
    }
    rpcwire::TrimResponse resp;
    resp.first_index = core_->Trim(req.upto_index);
    Pump();
    Reply(m, resp.Encode());
  });

  Boot();
}

void RaftReplica::OnRestart() {
  Actor::OnRestart();
  held_.clear();
  // A fresh process: new election jitter, and only what reached the disk.
  config_.seed = config_.seed * 6364136223846793005ULL + incarnation();
  core_ = std::make_unique<RaftCore>(
      config_, std::move(*core_).TakeDurableState(), &metrics_, &trace_);
  Boot();
}

void RaftReplica::Boot() {
  core_->Start(Now(), peers_);
  Pump();
  // Timeouts fire on the next tick after they fall due.
  Periodic(std::max<sim::Duration>(1, options_.heartbeat_interval / 4), [this] {
    core_->Tick(Now());
    Pump();
  });
}

uint64_t RaftReplica::Hold(const Message& m) {
  const uint64_t token = next_token_++;
  held_.emplace(token, m);
  return token;
}

void RaftReplica::Pump() {
  while (core_->HasOutput()) {
    RaftCore::Output out = core_->TakeOutput();
    // Meta writes and compaction reach the modeled disk at once: the core's
    // term, vote and base are its image (see RaftCore::TakeDurableState).
    // Log writes pay the modeled fsync.
    if (out.log.from != 0) Persist(out.log);
    for (RaftCore::Send& send : out.sends) SendToPeer(std::move(send));
    for (RaftCore::Reply& reply : out.replies) {
      auto it = held_.find(reply.token);
      if (it == held_.end()) continue;
      Reply(it->second, std::move(reply.payload));
      held_.erase(it);
    }
    for (const RaftCore::Outcome& o : out.outcomes) {
      auto it = held_.find(o.token);
      if (it == held_.end()) continue;
      wire::ClientAppendResponse resp;
      resp.result = o.result;
      resp.index = o.index;
      resp.leader_hint = Hint(o.leader_hint);
      Reply(it->second, resp.Encode());
      held_.erase(it);
    }
  }
}

void RaftReplica::Persist(const RaftCore::LogWrite& write) {
  const uint64_t entries = write.to >= write.from ? write.to - write.from + 1
                                                  : 0;
  const uint64_t inc = incarnation();
  disk_.SubmitAnd(options_.disk_write_us * std::max<uint64_t>(1, entries),
                  [this, inc, write] {
                    if (!alive() || incarnation() != inc) return;
                    core_->OnPersisted(Now(), write.to, write.gen);
                    Pump();
                  });
}

void RaftReplica::SendToPeer(RaftCore::Send&& send) {
  const bool vote = send.kind == RaftCore::SendKind::kVote;
  Rpc(send.to, vote ? rpcwire::kRaftVote : rpcwire::kRaftAppendEntries,
      std::move(send.payload), options_.rpc_timeout,
      [this, vote, to = send.to, epoch = send.epoch](const Status& s,
                                                     const std::string& body) {
        wire::VoteResponse v;
        wire::AppendEntriesResponse a;
        if (vote && s.ok() && wire::VoteResponse::Decode(body, &v)) {
          core_->OnVoteResponse(Now(), to, epoch, v);
        } else if (!vote) {
          const bool ok =
              s.ok() && wire::AppendEntriesResponse::Decode(body, &a);
          core_->OnAppendEntriesResponse(Now(), to, epoch, ok ? &a : nullptr);
        }
        Pump();
      });
}

wire::NodeId RaftReplica::Hint(wire::NodeId leader) const {
  for (size_t i = 0; i < members_.size(); ++i) {
    if (members_[i] == leader) return static_cast<wire::NodeId>(i + 1);
  }
  return 0;
}

}  // namespace memdb::txlog
