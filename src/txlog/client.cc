#include "txlog/client.h"

#include <algorithm>

namespace memdb::txlog {

using sim::NodeId;

TxLogClient::TxLogClient(sim::Actor* owner, std::vector<NodeId> replicas)
    : TxLogClient(owner, std::move(replicas), Options{}) {}

TxLogClient::TxLogClient(sim::Actor* owner, std::vector<NodeId> replicas,
                         Options options)
    : owner_(owner), replicas_(std::move(replicas)), options_(options) {}

NodeId TxLogClient::PickTarget() {
  if (leader_hint_ != sim::kInvalidNode) {
    for (NodeId r : replicas_) {
      if (r == leader_hint_) return r;
    }
  }
  round_robin_ = (round_robin_ + 1) % replicas_.size();
  return replicas_[round_robin_];
}

void TxLogClient::Append(uint64_t prev_index, LogRecord record,
                         AppendCallback cb) {
  AppendAttempt(prev_index, record, std::move(cb), options_.max_attempts,
                /*sent_once=*/false, append_epoch_);
}

void TxLogClient::AppendAttempt(uint64_t prev_index, const LogRecord& record,
                                AppendCallback cb, int attempts_left,
                                bool sent_once, uint64_t epoch) {
  if (epoch != append_epoch_) return;
  if (attempts_left <= 0) {
    // If any attempt actually reached a replica, the append may have landed.
    cb(sent_once ? Status::TimedOut("append unresolved")
                 : Status::Unavailable("log unreachable"),
       0);
    return;
  }
  wire::ClientAppendRequest req;
  req.prev_index = prev_index;
  req.record = record;
  const NodeId target = PickTarget();
  owner_->Rpc(
      target, wire::kClientAppend, req.Encode(), options_.rpc_timeout,
      [this, prev_index, record, cb = std::move(cb), attempts_left, sent_once,
       epoch](const Status& s, const std::string& body) mutable {
        if (epoch != append_epoch_) return;
        if (s.IsTimedOut() || s.IsUnavailable()) {
          // The request may have been executed (leader crashed after
          // committing, network partition...). Retry against another
          // replica; a duplicate conditional append cannot double-commit
          // (the precondition fails) and is resolved below.
          leader_hint_ = sim::kInvalidNode;
          owner_->After(options_.retry_backoff,
                        [this, prev_index, record, cb = std::move(cb),
                         attempts_left, epoch]() mutable {
                          AppendAttempt(prev_index, record, std::move(cb),
                                        attempts_left - 1, /*sent_once=*/true,
                                        epoch);
                        });
          return;
        }
        if (!s.ok()) {
          cb(s, 0);
          return;
        }
        wire::ClientAppendResponse resp;
        if (!wire::ClientAppendResponse::Decode(body, &resp)) {
          cb(Status::Corruption("bad append response"), 0);
          return;
        }
        switch (resp.result) {
          case wire::ClientResult::kOk:
            leader_hint_ = resp.leader_hint;
            cb(Status::OK(), resp.index);
            return;
          case wire::ClientResult::kConditionFailed:
            // An earlier attempt that landed would have been answered from
            // the service's (writer, request_id) dedup table instead.
            leader_hint_ = resp.leader_hint;
            cb(Status::ConditionFailed("log tail moved"), resp.index);
            return;
          case wire::ClientResult::kNotLeader:
          case wire::ClientResult::kUnavailable:
            leader_hint_ = resp.leader_hint;
            owner_->After(options_.retry_backoff,
                          [this, prev_index, record, cb = std::move(cb),
                           attempts_left, sent_once, epoch]() mutable {
                            AppendAttempt(prev_index, record, std::move(cb),
                                          attempts_left - 1, sent_once, epoch);
                          });
            return;
        }
      });
}

void TxLogClient::Read(uint64_t from_index, uint64_t max_count,
                       ReadCallback cb) {
  wire::ClientReadRequest req;
  req.from_index = from_index;
  req.max_count = max_count;
  // Reads are served from any replica's committed prefix; prefer a replica
  // in our own AZ-free round-robin for load spreading.
  const NodeId target = replicas_[round_robin_++ % replicas_.size()];
  owner_->Rpc(target, wire::kClientRead, req.Encode(), options_.rpc_timeout,
              [cb = std::move(cb)](const Status& s, const std::string& body) {
                wire::ClientReadResponse resp;
                if (!s.ok()) {
                  cb(s, resp);
                  return;
                }
                if (!wire::ClientReadResponse::Decode(body, &resp)) {
                  cb(Status::Corruption("bad read response"), resp);
                  return;
                }
                cb(Status::OK(), resp);
              });
}

void TxLogClient::Tail(TailCallback cb) {
  TailAttempt(std::move(cb), options_.max_attempts);
}

void TxLogClient::TailAttempt(TailCallback cb, int attempts_left) {
  if (attempts_left <= 0) {
    cb(Status::Unavailable("no log leader reachable"),
       wire::ClientTailResponse{});
    return;
  }
  const NodeId target = PickTarget();
  owner_->Rpc(
      target, wire::kClientTail, "", options_.rpc_timeout,
      [this, cb = std::move(cb), attempts_left](const Status& s,
                                                const std::string& body) mutable {
        wire::ClientTailResponse resp;
        if (!s.ok() || !wire::ClientTailResponse::Decode(body, &resp) ||
            resp.result == wire::ClientResult::kNotLeader ||
            resp.result == wire::ClientResult::kUnavailable) {
          if (s.ok()) leader_hint_ = resp.leader_hint;
          if (!s.ok()) leader_hint_ = sim::kInvalidNode;
          owner_->After(options_.retry_backoff,
                        [this, cb = std::move(cb), attempts_left]() mutable {
                          TailAttempt(std::move(cb), attempts_left - 1);
                        });
          return;
        }
        leader_hint_ = resp.leader_hint;
        cb(Status::OK(), resp);
      });
}

void TxLogClient::Trim(uint64_t upto_index) {
  wire::ClientReadRequest req;
  req.from_index = upto_index;
  for (NodeId r : replicas_) {
    owner_->Rpc(r, wire::kClientTrim, req.Encode(), options_.rpc_timeout,
                [](const Status&, const std::string&) {});
  }
}

}  // namespace memdb::txlog
