#include "txlog/log_client.h"

#include <algorithm>
#include <utility>

#include "txlog/rpc_wire.h"

namespace memdb::txlog {

namespace {
// Method names as strings once, so an attempt allocates none.
const std::string kAppendMethod = rpcwire::kAppend;
const std::string kReadMethod = rpcwire::kRead;
const std::string kTailMethod = rpcwire::kTail;
const std::string kTrimMethod = rpcwire::kTrim;
}  // namespace

// One Append, Tail or Read across its attempts.
struct LogClient::Op {
  enum class Kind : uint8_t { kAppend, kTail, kRead };
  Kind kind = Kind::kAppend;
  const std::string* method = nullptr;
  std::string body;  // the same bytes every attempt
  uint64_t trace_id = 0;
  uint64_t timeout_ms = 0;
  size_t target = 0;   // the replica the current attempt went to
  uint64_t epoch = 0;  // appends: the CancelAppends epoch it started in
  int attempts_left = 0;
  int redirects_left = 0;
  int attempt_no = 0;
  bool in_doubt = false;  // appends: a transport failure may have landed it
  AppendCallback append_cb;
  TailCallback tail_cb;
  ReadCallback read_cb;
};

LogClient::LogClient(std::unique_ptr<Transport> transport, Options options,
                     MetricsRegistry* registry)
    : transport_(std::move(transport)),
      options_(options),
      rng_(0x726c + options.writer_id) {
  if (registry != nullptr) {
    retries_ = registry->GetCounter("txlog_retries_total");
    redirects_ = registry->GetCounter("txlog_redirects_total");
  }
}

LogClient::~LogClient() = default;

uint64_t LogClient::BackoffCeilingMs(const Options& options, int n) {
  uint64_t ms = options.backoff_base_ms;
  for (int i = 0; i < n && ms < options.backoff_cap_ms; ++i) ms <<= 1;
  return std::min(ms, options.backoff_cap_ms);
}

void LogClient::Append(uint64_t prev_index, LogRecord record,
                       AppendCallback cb) {
  if (record.writer == 0) record.writer = options_.writer_id;
  if (record.request_id == 0) record.request_id = NextRequestId();
  auto op = std::make_shared<Op>();
  op->kind = Op::Kind::kAppend;
  op->method = &kAppendMethod;
  op->trace_id = record.trace_id;
  op->body = wire::ClientAppendRequest{prev_index, std::move(record)}.Encode();
  op->timeout_ms = options_.rpc_timeout_ms;
  op->append_cb = std::move(cb);
  Start(std::move(op));
}

void LogClient::Read(uint64_t from_index, uint64_t max_count, uint64_t wait_ms,
                     ReadCallback cb) {
  auto op = std::make_shared<Op>();
  op->kind = Op::Kind::kRead;
  op->method = &kReadMethod;
  op->body = rpcwire::ReadStreamRequest{from_index, max_count, wait_ms}.Encode();
  op->timeout_ms = options_.rpc_timeout_ms + wait_ms;
  op->read_cb = std::move(cb);
  Start(std::move(op));
}

void LogClient::Tail(TailCallback cb) {
  auto op = std::make_shared<Op>();
  op->kind = Op::Kind::kTail;
  op->method = &kTailMethod;
  op->timeout_ms = options_.rpc_timeout_ms;
  op->tail_cb = std::move(cb);
  Start(std::move(op));
}

void LogClient::Start(std::shared_ptr<Op> op) {
  op->attempts_left = options_.max_attempts;
  op->redirects_left = options_.max_redirects;
  transport_->Post([this, op = std::move(op)]() mutable {
    op->epoch = append_epoch_;
    Attempt(std::move(op));
  });
}

void LogClient::CancelAppends() {
  transport_->Post([this] { ++append_epoch_; });
}

void LogClient::Attempt(std::shared_ptr<Op> op) {
  if (op->kind == Op::Kind::kAppend && op->epoch != append_epoch_) return;
  const size_t n = transport_->size();
  if (stopped_.load(std::memory_order_acquire) || n == 0) {
    GiveUp(*op, "txlog client shut down");
    return;
  }
  op->target = op->kind != Op::Kind::kRead && leader_ < n
                   ? leader_
                   : round_robin_++ % n;
  transport_->Call(op->target, *op->method, op->body, op->timeout_ms,
                   op->trace_id,
                   [this, op](Status status, std::string body) mutable {
                     OnAnswer(std::move(op), status, body);
                   });
}

void LogClient::OnAnswer(std::shared_ptr<Op> op, const Status& status,
                         const std::string& body) {
  if (op->kind == Op::Kind::kAppend && op->epoch != append_epoch_) return;
  if (status.code() == StatusCode::kInvalidArgument) {
    Finish(*op, status);
    return;
  }
  if (!status.ok()) {
    // The request may have run: an append is in doubt from now on.
    if (op->kind == Op::Kind::kAppend) op->in_doubt = true;
    if (op->kind != Op::Kind::kRead) leader_ = SIZE_MAX;
    Retry(std::move(op));
    return;
  }
  // A refusal: kNotLeader (with the leader's hint if it knows one) or
  // kUnavailable (the leader cannot serve yet).
  wire::ClientResult refused = wire::ClientResult::kUnavailable;
  uint64_t hint = 0;
  switch (op->kind) {
    case Op::Kind::kAppend: {
      wire::ClientAppendResponse r;
      if (!wire::ClientAppendResponse::Decode(Slice(body), &r)) {
        Finish(*op, Status::Corruption("bad append response"));
        return;
      }
      if (r.result == wire::ClientResult::kOk) {
        leader_ = op->target;
        op->append_cb(Status::OK(), r.index);
        return;
      }
      if (r.result == wire::ClientResult::kConditionFailed) {
        leader_ = op->target;
        op->append_cb(Status::ConditionFailed("log tail moved"), r.index);
        return;
      }
      refused = r.result;
      hint = r.leader_hint;
      break;
    }
    case Op::Kind::kTail: {
      wire::ClientTailResponse r;
      if (!wire::ClientTailResponse::Decode(Slice(body), &r)) {
        Finish(*op, Status::Corruption("bad tail response"));
        return;
      }
      if (r.result == wire::ClientResult::kOk) {
        leader_ = op->target;
        op->tail_cb(Status::OK(), r);
        return;
      }
      refused = r.result;
      hint = r.leader_hint;
      break;
    }
    case Op::Kind::kRead: {
      wire::ClientReadResponse r;
      if (!wire::ClientReadResponse::Decode(Slice(body), &r)) {
        Finish(*op, Status::Corruption("bad read response"));
        return;
      }
      op->read_cb(Status::OK(), r);
      return;
    }
  }
  if (refused == wire::ClientResult::kNotLeader) {
    const size_t n = transport_->size();
    if (hint >= 1 && hint <= n && op->redirects_left > 0) {
      --op->redirects_left;
      leader_ = static_cast<size_t>(hint - 1);
      if (redirects_ != nullptr) redirects_->Increment();
      Attempt(std::move(op));
      return;
    }
    leader_ = SIZE_MAX;  // no usable hint, or the hints loop
  }
  Retry(std::move(op));
}

void LogClient::Retry(std::shared_ptr<Op> op) {
  if (--op->attempts_left <= 0) {
    GiveUp(*op, "txlog group unreachable");
    return;
  }
  if (stopped_.load(std::memory_order_acquire)) {
    GiveUp(*op, "txlog client shut down");
    return;
  }
  if (retries_ != nullptr) retries_->Increment();
  const int attempt = op->attempt_no++;
  // Uniform in [ceiling/2, ceiling), so retrying writers decorrelate.
  const uint64_t half =
      std::max<uint64_t>(1, BackoffCeilingMs(options_, attempt) / 2);
  const uint64_t delay = half + rng_.Uniform(half);
  if (backoff_hook) backoff_hook(attempt, delay);
  transport_->After(delay, [this, op = std::move(op)]() mutable {
    Attempt(std::move(op));
  });
}

void LogClient::GiveUp(Op& op, const char* why) {
  Finish(op, op.in_doubt ? Status::TimedOut(std::string("append unresolved: ") +
                                            why)
                         : Status::Unavailable(why));
}

void LogClient::Finish(Op& op, const Status& status) {
  switch (op.kind) {
    case Op::Kind::kAppend:
      op.append_cb(status, 0);
      return;
    case Op::Kind::kTail:
      op.tail_cb(status, wire::ClientTailResponse{});
      return;
    case Op::Kind::kRead:
      op.read_cb(status, wire::ClientReadResponse{});
      return;
  }
}

void LogClient::Trim(uint64_t upto_index, TrimCallback cb) {
  transport_->Post([this, upto_index, cb = std::move(cb)] {
    const size_t n = transport_->size();
    if (stopped_.load(std::memory_order_acquire) || n == 0) {
      cb(Status::Unavailable("txlog client shut down"), 0);
      return;
    }
    struct Fanout {
      size_t remaining = 0;
      bool any_ok = false;
      uint64_t first_index = 0;
      TrimCallback cb;
    };
    auto state = std::make_shared<Fanout>();
    state->remaining = n;
    state->cb = cb;
    const std::string body = rpcwire::TrimRequest{upto_index}.Encode();
    for (size_t i = 0; i < n; ++i) {
      transport_->Call(
          i, kTrimMethod, body, options_.rpc_timeout_ms, 0,
          [state](Status status, std::string payload) {
            rpcwire::TrimResponse r;
            if (status.ok() &&
                rpcwire::TrimResponse::Decode(Slice(payload), &r)) {
              state->any_ok = true;
              state->first_index = std::max(state->first_index, r.first_index);
            }
            if (--state->remaining == 0) {
              state->cb(state->any_ok
                            ? Status::OK()
                            : Status::Unavailable("no replica answered trim"),
                        state->first_index);
            }
          });
    }
  });
}

}  // namespace memdb::txlog
