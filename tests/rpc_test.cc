// RPC subsystem tests: frame codec, server/channel transport, fault
// injection, the 3-replica memorydb-txlogd LogService (election, quorum
// append, idempotent retry dedup, minority partition, redirects, leases,
// long-poll ReadStream), and the RespServer durability gate over the remote
// log (parked replies, read hazards, WAIT, shutdown drain). Everything runs
// real processes' worth of machinery in-process: real sockets on 127.0.0.1,
// one LoopThread per daemon.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "client/resp_conn.h"
#include "common/buffer.h"
#include "common/coding.h"
#include "common/crc.h"
#include "common/sync.h"
#include "common/trace_export.h"
#include "engine/engine.h"
#include "net/listener.h"
#include "net/remote_log_gate.h"
#include "net/server.h"
#include "replication/recovery.h"
#include "resp/resp.h"
#include "rpc/channel.h"
#include "rpc/frame.h"
#include "rpc/loop.h"
#include "rpc/server.h"
#include "txlog/remote_client.h"
#include "txlog/rpc_wire.h"
#include "txlog/service.h"

namespace memdb {
namespace {

using client::RespConn;
using resp::Value;

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// ---------------------------------------------------------------------------
// Frame codec

TEST(FrameTest, RequestRoundTrip) {
  rpc::Frame f;
  f.type = rpc::FrameType::kRequest;
  f.request_id = 42;
  f.trace_id = 7;
  f.deadline_ms = 250;
  f.method = "txlog.ConditionalAppend";
  f.payload = std::string("\x00\x01payload\xff", 10);

  std::string wire;
  rpc::EncodeFrame(f, &wire);

  rpc::Frame out;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(rpc::DecodeFrame(wire.data(), wire.size(), &consumed, &out,
                             &error),
            rpc::FrameDecode::kOk)
      << error;
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(out.type, rpc::FrameType::kRequest);
  EXPECT_EQ(out.request_id, 42u);
  EXPECT_EQ(out.trace_id, 7u);
  EXPECT_EQ(out.deadline_ms, 250u);
  EXPECT_EQ(out.method, f.method);
  EXPECT_EQ(out.payload, f.payload);
}

TEST(FrameTest, PartialNeedsMore) {
  rpc::Frame f;
  f.method = "m";
  f.payload = "hello";
  std::string wire;
  rpc::EncodeFrame(f, &wire);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    rpc::Frame out;
    size_t consumed = 0;
    std::string error;
    EXPECT_EQ(rpc::DecodeFrame(wire.data(), cut, &consumed, &out, &error),
              rpc::FrameDecode::kNeedMore)
        << "cut=" << cut;
  }
}

TEST(FrameTest, CorruptionDetected) {
  rpc::Frame f;
  f.method = "method";
  f.payload = "payload-bytes";
  std::string wire;
  rpc::EncodeFrame(f, &wire);
  // Flip one byte anywhere after the length field: checksum must catch it.
  for (size_t i = 4; i < wire.size(); i += 3) {
    std::string bad = wire;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    rpc::Frame out;
    size_t consumed = 0;
    std::string error;
    EXPECT_EQ(rpc::DecodeFrame(bad.data(), bad.size(), &consumed, &out,
                               &error),
              rpc::FrameDecode::kError)
        << "flipped byte " << i;
  }
}

TEST(FrameTest, OversizeRejected) {
  std::string wire;
  const uint32_t huge = (64u << 20) + 1;
  wire.append(reinterpret_cast<const char*>(&huge), 4);
  wire.append(64, '\0');
  rpc::Frame out;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(rpc::DecodeFrame(wire.data(), wire.size(), &consumed, &out,
                             &error),
            rpc::FrameDecode::kError);
}

// ---------------------------------------------------------------------------
// Server + Channel transport

struct EchoFixture {
  EchoFixture() {
    EXPECT_TRUE(loop.Start().ok());
    server = std::make_unique<rpc::Server>(&loop, "127.0.0.1", 0);
    server->RegisterHandler("echo", [](rpc::Server::Call&& call) {
      call.respond(rpc::Code::kOk,
                   call.payload + "|trace=" + std::to_string(call.trace_id));
    });
    server->RegisterHandler("blackhole", [](rpc::Server::Call&& call) {
      // Never responds; the caller's deadline must fire.
      (void)call;
    });
    EXPECT_TRUE(server->Start().ok());
    channel = std::make_unique<rpc::Channel>(&loop, "127.0.0.1",
                                             server->port());
  }
  ~EchoFixture() {
    channel->Shutdown();
    server->Stop();
    loop.Stop();
  }

  // Blocking call helper (from the test thread).
  Status Call(const std::string& method, const std::string& payload,
              uint64_t timeout_ms, uint64_t trace_id, std::string* reply) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status = Status::OK();
    channel->Call(method, payload, timeout_ms, trace_id,
                  [&](Status s, std::string body) {
                    std::lock_guard<std::mutex> lock(mu);
                    status = std::move(s);
                    *reply = std::move(body);
                    done = true;
                    cv.notify_one();
                  });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return done; });
    EXPECT_TRUE(done) << "rpc call never completed";
    return status;
  }

  rpc::LoopThread loop;
  std::unique_ptr<rpc::Server> server;
  std::unique_ptr<rpc::Channel> channel;
};

TEST(RpcTransportTest, EchoAndTracePropagation) {
  EchoFixture fx;
  std::string reply;
  const Status s = fx.Call("echo", "ping", 1000, 99, &reply);
  ASSERT_TRUE(s.ok()) << s.ToString();
  // The trace id crossed the wire inside the frame header, not the payload.
  EXPECT_EQ(reply, "ping|trace=99");
}

TEST(RpcTransportTest, ManyPipelinedCallsMultiplex) {
  EchoFixture fx;
  constexpr int kCalls = 64;
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  int correct = 0;
  for (int i = 0; i < kCalls; ++i) {
    const std::string body = "m" + std::to_string(i);
    fx.channel->Call("echo", body, 2000, 0,
                     [&, body](Status s, std::string reply) {
                       std::lock_guard<std::mutex> lock(mu);
                       if (s.ok() && reply == body + "|trace=0") ++correct;
                       ++done;
                       cv.notify_one();
                     });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait_for(lock, std::chrono::seconds(10), [&] { return done == kCalls; });
  EXPECT_EQ(done, kCalls);
  EXPECT_EQ(correct, kCalls);
}

TEST(RpcTransportTest, DeadlineFiresOnSilentServer) {
  EchoFixture fx;
  std::string reply;
  const auto t0 = std::chrono::steady_clock::now();
  const Status s = fx.Call("blackhole", "x", 100, 0, &reply);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_TRUE(s.IsTimedOut()) << s.ToString();
  EXPECT_GE(ms, 90);
  EXPECT_LT(ms, 2000);
}

TEST(RpcTransportTest, NoMethodSurfaces) {
  EchoFixture fx;
  std::string reply;
  const Status s = fx.Call("no.such.method", "x", 1000, 0, &reply);
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(s.IsTimedOut());
}

TEST(RpcTransportTest, FaultDropResponseThenRecover) {
  EchoFixture fx;
  fx.server->fault().DropResponses("echo", 1);
  std::string reply;
  const Status s1 = fx.Call("echo", "a", 120, 0, &reply);
  EXPECT_TRUE(s1.IsTimedOut()) << s1.ToString();
  const Status s2 = fx.Call("echo", "b", 1000, 0, &reply);
  EXPECT_TRUE(s2.ok()) << s2.ToString();
  EXPECT_EQ(reply, "b|trace=0");
}

TEST(RpcTransportTest, FaultDuplicateResponseHarmless) {
  EchoFixture fx;
  fx.server->fault().DuplicateResponses("echo", 1);
  std::string reply;
  ASSERT_TRUE(fx.Call("echo", "a", 1000, 0, &reply).ok());
  EXPECT_EQ(reply, "a|trace=0");
  // The duplicate frame carries a request id that is no longer pending; the
  // channel must drop it and stay healthy for the next call.
  ASSERT_TRUE(fx.Call("echo", "b", 1000, 0, &reply).ok());
  EXPECT_EQ(reply, "b|trace=0");
}

TEST(RpcTransportTest, FaultDelayResponse) {
  EchoFixture fx;
  fx.server->fault().DelayResponses("echo", 150, 1);
  std::string reply;
  const auto t0 = std::chrono::steady_clock::now();
  const Status s = fx.Call("echo", "slow", 2000, 0, &reply);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_GE(ms, 140);
}

// ---------------------------------------------------------------------------
// LogService group helpers

struct LogGroup {
  explicit LogGroup(size_t n, bool fsync = false) {
    for (size_t i = 0; i < n; ++i) {
      txlog::LogService::Options opt;
      opt.node_id = i + 1;
      opt.listen_port = 0;
      opt.fsync = fsync;
      opt.heartbeat_ms = 20;
      opt.election_min_ms = 50;
      opt.election_max_ms = 120;
      opt.raft_rpc_timeout_ms = 100;
      services.push_back(std::make_unique<txlog::LogService>(opt));
      EXPECT_TRUE(services.back()->Start().ok());
    }
    std::vector<std::pair<uint64_t, std::string>> membership;
    for (size_t i = 0; i < n; ++i) {
      endpoints.push_back("127.0.0.1:" +
                          std::to_string(services[i]->port()));
      membership.emplace_back(i + 1, endpoints.back());
    }
    for (auto& s : services) s->SetPeers(membership);
  }
  ~LogGroup() {
    for (auto& s : services) {
      if (s != nullptr) s->Stop();
    }
  }

  // Index of the current leader, or -1 after the deadline.
  int WaitForLeader(int timeout_ms = 5000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      for (size_t i = 0; i < services.size(); ++i) {
        if (services[i] != nullptr && services[i]->IsLeader()) {
          return static_cast<int>(i);
        }
      }
      SleepMs(5);
    }
    return -1;
  }

  bool WaitForCommit(uint64_t index, int timeout_ms = 5000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      size_t caught_up = 0;
      for (auto& s : services) {
        if (s != nullptr && s->commit_index() >= index) ++caught_up;
      }
      if (caught_up == Alive()) return true;
      SleepMs(5);
    }
    return false;
  }

  size_t Alive() const {
    size_t n = 0;
    for (const auto& s : services) {
      if (s != nullptr) ++n;
    }
    return n;
  }

  std::vector<std::unique_ptr<txlog::LogService>> services;
  std::vector<std::string> endpoints;
};

struct ClientFixture {
  explicit ClientFixture(const std::vector<std::string>& endpoints,
                         txlog::RemoteClient::Options opt = {}) {
    EXPECT_TRUE(loop.Start().ok());
    if (opt.writer_id == 0) opt.writer_id = 77;
    if (opt.rpc_timeout_ms == 300) opt.rpc_timeout_ms = 250;
    client = std::make_unique<txlog::RemoteClient>(&loop, endpoints, opt,
                                                   &registry);
  }
  ~ClientFixture() {
    client->Shutdown();
    loop.Stop();
  }

  txlog::LogRecord DataRecord(const std::string& payload) {
    txlog::LogRecord r;
    r.type = txlog::RecordType::kData;
    r.payload = payload;
    return r;
  }

  // Committed kData entries whose payload matches, by scanning the log.
  int CountPayload(const std::string& payload) {
    txlog::wire::ClientReadResponse rsp;
    const Status s = client->ReadSync(1, 10000, 0, &rsp);
    EXPECT_TRUE(s.ok()) << s.ToString();
    int count = 0;
    for (const auto& e : rsp.entries) {
      if (e.record.type == txlog::RecordType::kData &&
          e.record.payload == payload) {
        ++count;
      }
    }
    return count;
  }

  MetricsRegistry registry;
  rpc::LoopThread loop;
  std::unique_ptr<txlog::RemoteClient> client;
};

// ---------------------------------------------------------------------------
// LogService: election, append, dedup, partition, redirect, lease, longpoll
// (a lease is a chain of conditional appends, replication/election.h)

TEST(LogServiceTest, ElectsLeaderAndCommitsQuorumAppend) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);

  ClientFixture fx(group.endpoints);
  uint64_t index = 0;
  const Status s = fx.client->AppendSync(txlog::wire::kUnconditional,
                                         fx.DataRecord("hello-log"), &index);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(index, 0u);
  // Commit propagates to every replica (followers catch up via heartbeat).
  EXPECT_TRUE(group.WaitForCommit(index));
  EXPECT_EQ(fx.CountPayload("hello-log"), 1);
}

TEST(LogServiceTest, ConditionalAppendDetectsStaleTail) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);
  ClientFixture fx(group.endpoints);

  uint64_t index = 0;
  ASSERT_TRUE(fx.client
                  ->AppendSync(txlog::wire::kUnconditional,
                               fx.DataRecord("first"), &index)
                  .ok());
  // CAS against a stale tail must fail without appending.
  uint64_t stale_index = 0;
  const Status s = fx.client->AppendSync(index - 1, fx.DataRecord("stale"),
                                         &stale_index);
  EXPECT_TRUE(s.IsConditionFailed()) << s.ToString();
  EXPECT_EQ(fx.CountPayload("stale"), 0);
  // CAS against the true tail succeeds.
  uint64_t next = 0;
  EXPECT_TRUE(
      fx.client->AppendSync(index, fx.DataRecord("second"), &next).ok());
  EXPECT_EQ(next, index + 1);
}

// Satellite: a retried ConditionalAppend whose first ack was dropped must
// not double-commit — the daemon's (writer, request_id) dedup maps the
// retry back to the original log index.
TEST(LogServiceTest, RetriedAppendAfterDroppedAckDoesNotDoubleCommit) {
  LogGroup group(3);
  const int leader = group.WaitForLeader();
  ASSERT_GE(leader, 0);

  txlog::RemoteClient::Options opt;
  opt.rpc_timeout_ms = 150;
  opt.backoff_base_ms = 10;
  opt.backoff_cap_ms = 50;
  ClientFixture fx(group.endpoints, opt);

  // Drop the leader's next append ack: the entry commits, the client never
  // hears about it and retries with the same (writer, request_id).
  group.services[static_cast<size_t>(leader)]->fault().DropResponses(
      txlog::rpcwire::kAppend, 1);

  uint64_t index = 0;
  const Status s = fx.client->AppendSync(txlog::wire::kUnconditional,
                                         fx.DataRecord("exactly-once"),
                                         &index);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(index, 0u);
  EXPECT_EQ(fx.CountPayload("exactly-once"), 1);

  const Counter* retries = fx.registry.FindCounter("txlog_retries_total");
  ASSERT_NE(retries, nullptr);
  EXPECT_GE(retries->value(), 1u);
}

// Satellite: exponential backoff delays are jittered and capped.
TEST(RemoteClientTest, BackoffJitterStaysWithinCaps) {
  // No live endpoint: every attempt fails fast with Unavailable.
  txlog::RemoteClient::Options opt;
  opt.rpc_timeout_ms = 100;
  opt.backoff_base_ms = 16;
  opt.backoff_cap_ms = 120;
  opt.max_attempts = 5;
  ClientFixture fx({"127.0.0.1:1"});  // port 1: connection refused

  std::mutex mu;
  std::vector<std::pair<int, uint64_t>> backoffs;
  fx.client->backoff_hook = [&](int attempt, uint64_t delay_ms) {
    std::lock_guard<std::mutex> lock(mu);
    backoffs.emplace_back(attempt, delay_ms);
  };
  // Rebuild client with the tuned options (fixture used defaults).
  fx.client->Shutdown();
  fx.client = std::make_unique<txlog::RemoteClient>(
      &fx.loop, std::vector<std::string>{"127.0.0.1:1"}, opt, nullptr);
  fx.client->backoff_hook = [&](int attempt, uint64_t delay_ms) {
    std::lock_guard<std::mutex> lock(mu);
    backoffs.emplace_back(attempt, delay_ms);
  };

  uint64_t index = 0;
  const Status s = fx.client->AppendSync(txlog::wire::kUnconditional,
                                         fx.DataRecord("x"), &index);
  EXPECT_FALSE(s.ok());

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(backoffs.size(), static_cast<size_t>(opt.max_attempts - 1));
  for (const auto& [attempt, delay] : backoffs) {
    const uint64_t nominal =
        std::min(opt.backoff_cap_ms,
                 opt.backoff_base_ms << (attempt > 20 ? 20 : attempt));
    // Jitter scales into [nominal/2, nominal); the cap bounds everything.
    EXPECT_GE(delay, nominal / 2) << "attempt " << attempt;
    EXPECT_LT(delay, nominal + 1) << "attempt " << attempt;
    EXPECT_LE(delay, opt.backoff_cap_ms);
  }
}

// Satellite: a log group reduced to a minority cannot commit; the client
// backs off and reports the failure instead of hanging forever.
TEST(LogServiceTest, MinorityPartitionFailsAppends) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);

  // Stop two of three replicas: no quorum remains.
  group.services[1]->Stop();
  group.services[1].reset();
  group.services[2]->Stop();
  group.services[2].reset();

  txlog::RemoteClient::Options opt;
  opt.rpc_timeout_ms = 120;
  opt.backoff_base_ms = 10;
  opt.backoff_cap_ms = 40;
  opt.max_attempts = 3;
  ClientFixture fx(group.endpoints, opt);

  uint64_t index = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const Status s = fx.client->AppendSync(txlog::wire::kUnconditional,
                                         fx.DataRecord("lost"), &index);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsTimedOut() || s.IsUnavailable()) << s.ToString();
  // Bounded: attempts * timeout + backoffs, not forever.
  EXPECT_LT(ms, 5000);
}

// Satellite: kNotLeader redirects reach the leader in bounded hops.
TEST(LogServiceTest, FollowerRedirectsToLeaderWithinHopBudget) {
  LogGroup group(3);
  const int leader = group.WaitForLeader();
  ASSERT_GE(leader, 0);

  // Client whose round-robin starts wherever; redirects must converge.
  txlog::RemoteClient::Options opt;
  opt.max_redirects = 2;  // one honest hint suffices; budget is not consumed
  ClientFixture fx(group.endpoints, opt);

  for (int i = 0; i < 6; ++i) {
    uint64_t index = 0;
    const Status s = fx.client->AppendSync(
        txlog::wire::kUnconditional,
        fx.DataRecord("redirect-" + std::to_string(i)), &index);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  const Counter* redirects = fx.registry.FindCounter("txlog_redirects_total");
  ASSERT_NE(redirects, nullptr);
  // Six appends needed at most one redirect each (hint is remembered after
  // the first); well under the per-op budget.
  EXPECT_LE(redirects->value(), 6u);
}

TEST(LogServiceTest, LeaderKillMidStreamSurvivesViaRetry) {
  LogGroup group(3);
  const int leader = group.WaitForLeader();
  ASSERT_GE(leader, 0);

  txlog::RemoteClient::Options opt;
  opt.rpc_timeout_ms = 200;
  opt.backoff_base_ms = 20;
  opt.backoff_cap_ms = 200;
  opt.max_attempts = 20;  // must ride out a full re-election
  ClientFixture fx(group.endpoints, opt);

  uint64_t index = 0;
  ASSERT_TRUE(fx.client
                  ->AppendSync(txlog::wire::kUnconditional,
                               fx.DataRecord("pre-kill"), &index)
                  .ok());

  // Kill the leader outright; the survivors elect a new one.
  group.services[static_cast<size_t>(leader)]->Stop();
  group.services[static_cast<size_t>(leader)].reset();

  uint64_t index2 = 0;
  const Status s = fx.client->AppendSync(txlog::wire::kUnconditional,
                                         fx.DataRecord("post-kill"), &index2);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(index2, index);
  // The acked pre-kill write must still be readable — no lost acked write.
  EXPECT_EQ(fx.CountPayload("pre-kill"), 1);
  EXPECT_EQ(fx.CountPayload("post-kill"), 1);
}

// §4.1 on the log alone: a claim is a conditional kLeadership append at the
// claimer's applied index, and the holder renews with kLease records chained
// on its own last index. A claim at a stale index fails; once a contender's
// claim lands, the holder's next chained renewal fails.
TEST(LogServiceTest, LeaseClaimRenewAndFencing) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);
  txlog::RemoteClient::Options hopt, copt;
  hopt.writer_id = 11;
  copt.writer_id = 22;
  ClientFixture holder(group.endpoints, hopt);
  ClientFixture contender(group.endpoints, copt);
  const auto record = [](txlog::RecordType type, uint64_t prev) {
    txlog::LogRecord r;
    r.type = type;
    r.request_id = prev + 1;  // the index it is chained to
    return r;
  };

  txlog::wire::ClientTailResponse tail;
  ASSERT_TRUE(holder.client->TailSync(&tail).ok());
  const uint64_t at = tail.last_index;
  uint64_t claimed = 0;
  ASSERT_TRUE(holder.client
                  ->AppendSync(at, record(txlog::RecordType::kLeadership, at),
                               &claimed)
                  .ok());
  EXPECT_EQ(claimed, at + 1);

  // A contender that has not seen the claim is behind: its claim fails.
  uint64_t index = 0;
  Status s = contender.client->AppendSync(
      at, record(txlog::RecordType::kLeadership, at), &index);
  ASSERT_TRUE(s.IsConditionFailed()) << s.ToString();
  EXPECT_EQ(index, claimed);

  // The holder renews, chained on its claim.
  uint64_t renewed = 0;
  ASSERT_TRUE(holder.client
                  ->AppendSync(claimed,
                               record(txlog::RecordType::kLease, claimed),
                               &renewed)
                  .ok());
  EXPECT_EQ(renewed, claimed + 1);

  // A caught-up contender claims: its record is the fence.
  uint64_t fence = 0;
  ASSERT_TRUE(contender.client
                  ->AppendSync(renewed,
                               record(txlog::RecordType::kLeadership, renewed),
                               &fence)
                  .ok());
  EXPECT_EQ(fence, renewed + 1);
  s = holder.client->AppendSync(
      renewed, record(txlog::RecordType::kLease, renewed), &index);
  ASSERT_TRUE(s.IsConditionFailed()) << s.ToString();
  EXPECT_EQ(index, fence);
}

TEST(LogServiceTest, LongPollReadWakesOnCommit) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);
  ClientFixture fx(group.endpoints);

  uint64_t index = 0;
  ASSERT_TRUE(fx.client
                  ->AppendSync(txlog::wire::kUnconditional,
                               fx.DataRecord("existing"), &index)
                  .ok());

  // Park a long poll past the tail, then append: the poll must wake with
  // the new entry well before its wait_ms budget.
  std::atomic<int64_t> poll_ms{-1};
  std::atomic<bool> got_entry{false};
  std::thread poller([&] {
    txlog::wire::ClientReadResponse rsp;
    const auto t0 = std::chrono::steady_clock::now();
    const Status s = fx.client->ReadSync(index + 1, 16, 3000, &rsp);
    poll_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    if (s.ok()) {
      for (const auto& e : rsp.entries) {
        if (e.record.payload == "wakeup") got_entry = true;
      }
    }
  });
  SleepMs(150);  // let the poll park
  uint64_t index2 = 0;
  ASSERT_TRUE(fx.client
                  ->AppendSync(txlog::wire::kUnconditional,
                               fx.DataRecord("wakeup"), &index2)
                  .ok());
  poller.join();
  EXPECT_TRUE(got_entry.load());
  EXPECT_LT(poll_ms.load(), 2500);
}

// ---------------------------------------------------------------------------
// RespServer durability gate over the remote log

constexpr uint64_t kDeadlineMs = 10000;

// Committed kData entries in the log, polling until at least `expected`
// appear (a round-robin read may hit a follower one heartbeat behind).
int CountDataEntries(txlog::RemoteClient* client, int expected,
                     int timeout_ms = 3000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  int count = 0;
  for (;;) {
    txlog::wire::ClientReadResponse rsp;
    if (client->ReadSync(1, 10000, 0, &rsp).ok()) {
      count = 0;
      for (const auto& e : rsp.entries) {
        if (e.record.type == txlog::RecordType::kData) ++count;
      }
      if (count >= expected) return count;
    }
    if (std::chrono::steady_clock::now() >= deadline) return count;
    SleepMs(20);
  }
}

struct DurableServerFixture {
  explicit DurableServerFixture(LogGroup* group_in) : group(group_in) {
    net::ServerConfig config;
    config.port = 0;
    config.loop_timeout_ms = 10;
    config.txlog_endpoints = group->endpoints;
    config.txlog_rpc_timeout_ms = 250;
    config.txlog_backoff_base_ms = 10;
    config.txlog_backoff_cap_ms = 100;
    config.shutdown_drain_ms = 4000;
    engine = std::make_unique<engine::Engine>();
    server = std::make_unique<net::RespServer>(engine.get(), config);
    const Status s = server->Start();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  ~DurableServerFixture() {
    if (server != nullptr) server->Stop();
  }

  double Metric(const std::string& series) {
    RespConn c(server->port(), kDeadlineMs);
    const Value v = c.RoundTrip({"METRICS"});
    double out = 0;
    MetricsRegistry::ParseSeries(v.str, series, &out);
    return out;
  }

  // Waits until the server has parked `n` replies since it started.
  bool WaitParked(double n) {
    for (int i = 0; i < 400; ++i) {
      if (Metric("txlog_blocked_replies_total") >= n) return true;
      SleepMs(5);
    }
    return false;
  }

  LogGroup* group;
  std::unique_ptr<engine::Engine> engine;
  std::unique_ptr<net::RespServer> server;
};

TEST(DurabilityGateTest, WriteCommitsToRemoteLogBeforeAck) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);
  DurableServerFixture fx(&group);

  RespConn c(fx.server->port(), kDeadlineMs);
  ASSERT_TRUE(c.connected());
  EXPECT_EQ(c.RoundTrip({"SET", "k", "v"}).type, resp::Type::kSimpleString);
  EXPECT_EQ(c.RoundTrip({"GET", "k"}).str, "v");

  // The effect batch is now a committed log entry on the group.
  ClientFixture log(group.endpoints);
  EXPECT_EQ(CountDataEntries(log.client.get(), 1), 1);
  EXPECT_GE(fx.Metric("txlog_gate_appends_total"), 1.0);
  EXPECT_GE(fx.Metric("txlog_durable_ack_us_count"), 1.0);
}

// Satellite: a dropped append ack makes the gate's client retry; dedup on
// the daemon keeps the log at exactly one entry, and the parked reply (the
// "tracker release") fires exactly once.
TEST(DurabilityGateTest, DroppedAckRetryReleasesExactlyOnce) {
  LogGroup group(3);
  const int leader = group.WaitForLeader();
  ASSERT_GE(leader, 0);
  DurableServerFixture fx(&group);

  group.services[static_cast<size_t>(leader)]->fault().DropResponses(
      txlog::rpcwire::kAppend, 1);

  RespConn c(fx.server->port(), kDeadlineMs);
  ASSERT_TRUE(c.connected());
  ASSERT_TRUE(c.SendCommand({"SET", "retry-key", "v"}));
  ASSERT_TRUE(c.SendCommand({"GET", "retry-key"}));
  // Exactly two replies: one +OK (after the retried append resolved via
  // dedup), one value. A double release would surface as a third reply.
  std::vector<Value> replies = c.ReadReplies(2);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].type, resp::Type::kSimpleString);
  EXPECT_EQ(replies[1].str, "v");

  // And the log holds exactly one data entry for the single SET.
  ClientFixture log(group.endpoints);
  EXPECT_EQ(CountDataEntries(log.client.get(), 1), 1);
  EXPECT_GE(fx.Metric("txlog_retries_total"), 1.0);
}

// §3.2: a read of a not-yet-durable key from ANOTHER connection is parked
// until the write's append commits.
TEST(DurabilityGateTest, CrossConnectionReadWaitsForDurability) {
  LogGroup group(3);
  const int leader = group.WaitForLeader();
  ASSERT_GE(leader, 0);
  DurableServerFixture fx(&group);

  // Delay the next append ack 250ms: the SET's reply (and any read of the
  // key) cannot be released before that.
  group.services[static_cast<size_t>(leader)]->fault().DelayResponses(
      txlog::rpcwire::kAppend, 250, 1);

  RespConn writer(fx.server->port(), kDeadlineMs);
  RespConn reader(fx.server->port(), kDeadlineMs);
  ASSERT_TRUE(writer.connected());
  ASSERT_TRUE(reader.connected());

  ASSERT_TRUE(writer.SendCommand({"SET", "hazard", "v"}));
  SleepMs(50);  // the write is applied locally but not yet durable
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(reader.SendCommand({"GET", "hazard"}));
  std::vector<Value> got = reader.ReadReplies(1);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].str, "v");
  // Parked behind the delayed ack (50ms already elapsed before the GET).
  EXPECT_GE(ms, 120);
  // An unrelated key is NOT parked.
  EXPECT_EQ(reader.RoundTrip({"GET", "unrelated"}).type,
            resp::Type::kNull);

  std::vector<Value> w = writer.ReadReplies(1);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].type, resp::Type::kSimpleString);
}

// Satellite: WAIT over the remote log — released only once every prior
// write of the connection is durable, reporting the ack quorum.
TEST(DurabilityGateTest, WaitBlocksUntilPriorWritesDurable) {
  LogGroup group(3);
  const int leader = group.WaitForLeader();
  ASSERT_GE(leader, 0);
  DurableServerFixture fx(&group);

  group.services[static_cast<size_t>(leader)]->fault().DelayResponses(
      txlog::rpcwire::kAppend, 200, 1);

  RespConn c(fx.server->port(), kDeadlineMs);
  ASSERT_TRUE(c.connected());
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(c.SendCommand({"SET", "w", "1"}));
  ASSERT_TRUE(c.SendCommand({"WAIT", "2", "1000"}));
  std::vector<Value> replies = c.ReadReplies(2);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].type, resp::Type::kSimpleString);
  // Majority of a 3-replica group.
  EXPECT_EQ(replies[1].integer, 2);
  EXPECT_GE(ms, 150);

  // With nothing outstanding, WAIT answers immediately.
  EXPECT_EQ(c.RoundTrip({"WAIT", "2", "1000"}).integer, 2);
}

// Satellite: shutdown drains in-flight appends — a write whose ack is still
// in flight when Stop() begins is acked, not dropped.
TEST(DurabilityGateTest, ShutdownDrainsInFlightAppends) {
  LogGroup group(3);
  const int leader = group.WaitForLeader();
  ASSERT_GE(leader, 0);
  auto fx = std::make_unique<DurableServerFixture>(&group);

  group.services[static_cast<size_t>(leader)]->fault().DelayResponses(
      txlog::rpcwire::kAppend, 300, 1);

  RespConn c(fx->server->port(), kDeadlineMs);
  ASSERT_TRUE(c.connected());
  ASSERT_TRUE(c.SendCommand({"SET", "draining", "v"}));
  SleepMs(50);  // the append is in flight, its ack delayed
  std::thread stopper([&] { fx->server->Stop(); });
  // The parked +OK must still arrive before the connection dies.
  std::vector<Value> replies = c.ReadReplies(1);
  stopper.join();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].type, resp::Type::kSimpleString);

  // And the write really is in the log.
  ClientFixture log(group.endpoints);
  EXPECT_EQ(CountDataEntries(log.client.get(), 1), 1);
  fx.reset();
}

// A pipelined burst reaches the gate within a few loop iterations, so
// its writes share log records: every SET is still its own submission and
// reply, but the log holds fewer records than SETs.
TEST(DurabilityGateTest, PipelinedBurstSharesLogRecords) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);
  DurableServerFixture fx(&group);

  constexpr int kSets = 64;
  RespConn c(fx.server->port(), kDeadlineMs);
  ASSERT_TRUE(c.connected());
  std::string burst;
  for (int i = 0; i < kSets; ++i) {
    burst += resp::EncodeCommand(
        {"SET", "burst" + std::to_string(i), std::to_string(i)});
  }
  ASSERT_TRUE(c.Send(burst));
  const std::vector<Value> replies = c.ReadReplies(kSets);
  ASSERT_EQ(replies.size(), static_cast<size_t>(kSets));
  for (const Value& r : replies) EXPECT_EQ(r.type, resp::Type::kSimpleString);

  const double appends = fx.Metric("txlog_gate_appends_total");
  const double records = fx.Metric("txlog_gate_records_total");
  EXPECT_EQ(appends, kSets);
  EXPECT_GE(records, 1.0);
  EXPECT_LT(records, kSets);
  EXPECT_EQ(fx.Metric("txlog_gate_record_writes_count"), records);
  EXPECT_EQ(fx.Metric("txlog_gate_record_writes_sum"), appends);

  ClientFixture log(group.endpoints);
  EXPECT_EQ(CountDataEntries(log.client.get(), static_cast<int>(records)),
            static_cast<int>(records));
  for (int i = 0; i < kSets; i += 7) {
    EXPECT_EQ(c.RoundTrip({"GET", "burst" + std::to_string(i)}).str,
              std::to_string(i));
  }
  const Value info = c.RoundTrip({"INFO", "RPC"});
  EXPECT_NE(info.str.find("txlog_gate_records_total:"), std::string::npos);

  // Tracing stays per write (the fixture samples every write): each SET
  // has its own issue/ack/release spans, and the trace id each record
  // carried into txlogd is one of its writes' ids.
  std::vector<ExportedSpan> spans;
  ParseSpansJsonl(c.RoundTrip({"TRACE", "DUMP"}).str, &spans);
  const auto by_trace = GroupSpansByTrace(std::move(spans));
  size_t writes = 0;
  for (const auto& [id, trace] : by_trace) {
    std::set<std::string> stages;
    for (const ExportedSpan& span : trace) stages.insert(span.stage);
    if (stages.count("cmd.receive") == 0) continue;
    ++writes;
    for (const char* stage :
         {"gate.submit", "gate.append.issue", "append.ack", "reply.release"}) {
      EXPECT_EQ(stages.count(stage), 1u) << stage << " of trace " << id;
    }
  }
  EXPECT_EQ(writes, static_cast<size_t>(kSets));
  std::set<uint64_t> carried;
  for (const auto& svc : group.services) {
    std::vector<ExportedSpan> daemon;
    ParseSpansJsonl(ExportSpansJsonl(svc->trace_log(), "txlogd"), &daemon);
    for (const ExportedSpan& span : daemon) {
      if (span.stage == "log.append.receive" && span.trace_id != 0) {
        carried.insert(span.trace_id);
      }
    }
  }
  EXPECT_EQ(carried.size(), static_cast<size_t>(records));
  for (uint64_t id : carried) EXPECT_EQ(by_trace.count(id), 1u) << id;
}

// INFO surfaces the rpc client instruments (satellite: observability).
TEST(DurabilityGateTest, InfoReportsRpcSection) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);
  DurableServerFixture fx(&group);

  RespConn c(fx.server->port(), kDeadlineMs);
  ASSERT_TRUE(c.connected());
  EXPECT_EQ(c.RoundTrip({"SET", "k", "v"}).type, resp::Type::kSimpleString);
  const Value info = c.RoundTrip({"INFO", "RPC"});
  ASSERT_EQ(info.type, resp::Type::kBulkString);
  EXPECT_NE(info.str.find("# Rpc"), std::string::npos);
  EXPECT_NE(info.str.find("rpc_txlog.conditionalappend:calls="),
            std::string::npos);
  EXPECT_NE(info.str.find("txlog_gate_appends_total:1"), std::string::npos);
}

// Every reply on a connection keeps the connection's order, admin replies
// included: a SLOWLOG answered from loop state must not overtake the parked
// +OK of a SET pipelined ahead of it.
TEST(DurabilityGateTest, AdminReplyKeepsConnectionOrder) {
  LogGroup group(3);
  const int leader = group.WaitForLeader();
  ASSERT_GE(leader, 0);
  DurableServerFixture fx(&group);

  group.services[static_cast<size_t>(leader)]->fault().DelayResponses(
      txlog::rpcwire::kAppend, 250, 1);

  RespConn c(fx.server->port(), kDeadlineMs);
  ASSERT_TRUE(c.connected());
  ASSERT_TRUE(c.Send(resp::EncodeCommand({"SET", "k", "v"}) +
                          resp::EncodeCommand({"SLOWLOG", "LEN"}) +
                          resp::EncodeCommand({"PING"})));
  const std::vector<Value> replies = c.ReadReplies(3);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].type, resp::Type::kSimpleString);
  EXPECT_EQ(replies[0].str, "OK");
  EXPECT_EQ(replies[1].type, resp::Type::kInteger);
  EXPECT_EQ(replies[2].type, resp::Type::kSimpleString);
  EXPECT_EQ(replies[2].str, "PONG");

  // With nothing parked, an admin scrape answers at once.
  EXPECT_EQ(c.RoundTrip({"SLOWLOG", "LEN"}).type, resp::Type::kInteger);
}

// A read parked behind another connection's write shares that write's
// fate: when the append fails terminally, the reader gets the error — never
// the value the log does not hold — and its connection closes too.
TEST(DurabilityGateTest, ParkedReadFailsWithTheWriteItWaitsOn) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);
  DurableServerFixture fx(&group);

  RespConn a(fx.server->port(), kDeadlineMs);
  RespConn b(fx.server->port(), kDeadlineMs);
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());
  ASSERT_EQ(a.RoundTrip({"SET", "k", "old"}).type, resp::Type::kSimpleString);

  // Every append is lost until the gate's retries run out.
  for (auto& svc : group.services) {
    svc->fault().DropRequests(txlog::rpcwire::kAppend, 100000);
  }
  ASSERT_TRUE(a.SendCommand({"SET", "k", "x"}));
  // A's reply is parked; "x" is applied locally only.
  ASSERT_TRUE(fx.WaitParked(2));
  ASSERT_TRUE(b.SendCommand({"GET", "k"}));
  const std::vector<Value> got = b.ReadReplies(1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].type, resp::Type::kError);
  EXPECT_EQ(got[0].str, "ERR transaction log unavailable");
  EXPECT_NE(got[0].str, "x");
  // B's connection was closed after the error.
  EXPECT_TRUE(b.ReadReplies(1).empty());

  const std::vector<Value> w = a.ReadReplies(1);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].str, "ERR transaction log unavailable");
  for (auto& svc : group.services) svc->fault().Clear();
}

// FLUSHALL changes every key: until it is durable, a read of any key from
// another connection waits — its nil must not arrive before the +OK.
TEST(DurabilityGateTest, FlushAllHazardsEveryKey) {
  LogGroup group(3);
  const int leader = group.WaitForLeader();
  ASSERT_GE(leader, 0);
  DurableServerFixture fx(&group);

  RespConn a(fx.server->port(), kDeadlineMs);
  RespConn b(fx.server->port(), kDeadlineMs);
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());
  ASSERT_EQ(a.RoundTrip({"SET", "k", "v"}).type, resp::Type::kSimpleString);

  group.services[static_cast<size_t>(leader)]->fault().DelayResponses(
      txlog::rpcwire::kAppend, 250, 1);
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(a.SendCommand({"FLUSHALL"}));
  // The flush is applied locally but not yet durable.
  ASSERT_TRUE(fx.WaitParked(2));
  ASSERT_TRUE(b.SendCommand({"GET", "k"}));
  const std::vector<Value> nil = b.ReadReplies(1);
  const auto b_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  const std::vector<Value> ok = a.ReadReplies(1);
  const auto a_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  ASSERT_EQ(nil.size(), 1u);
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(nil[0].type, resp::Type::kNull);
  EXPECT_EQ(ok[0].str, "OK");
  // Both leave in the release pass of the delayed ack.
  EXPECT_GE(b_ms, 200);
  EXPECT_GE(b_ms + 50, a_ms);
}

// ---------------------------------------------------------------------------
// Transport rules: a loop-thread Call starts at once but never calls back
// before it returns, responses leave in respond() order, frames decode
// alike however the reads cut them, loop-thread posts write no eventfd,
// and drained buffers give their memory back.

// One call's outcome, and whether its callback ran inside Call.
struct CallProbe {
  std::mutex mu;
  std::condition_variable cv;
  bool returned = false;  // the Call had returned (set on the loop thread)
  bool ran = false;
  bool ran_inside_call = false;
  Status status = Status::OK();
  std::string body;

  rpc::Channel::Callback Callback() {
    return [this](Status s, std::string b) {
      std::lock_guard<std::mutex> lock(mu);
      ran_inside_call = !returned;
      status = std::move(s);
      body = std::move(b);
      ran = true;
      cv.notify_all();
    };
  }
  // On the loop thread, right after the Call.
  void MarkReturned() {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_FALSE(ran) << "callback ran inside Call";
    returned = true;
  }
  bool Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return ran; });
    return ran;
  }
};

void CallOnLoop(rpc::LoopThread* loop, rpc::Channel* ch,
                const std::string& method, CallProbe* probe) {
  loop->PostSync([&] {
    ch->Call(method, "x", 1000, 0, probe->Callback());
    probe->MarkReturned();
  });
}

TEST(LoopCallTest, SuccessCallsBackAfterCallReturns) {
  EchoFixture fx;
  CallProbe probe;
  CallOnLoop(&fx.loop, fx.channel.get(), "echo", &probe);
  ASSERT_TRUE(probe.Wait());
  EXPECT_FALSE(probe.ran_inside_call);
  ASSERT_TRUE(probe.status.ok()) << probe.status.ToString();
  EXPECT_EQ(probe.body, "x|trace=0");
}

TEST(LoopCallTest, RefusedConnectCallsBackAfterCallReturns) {
  rpc::LoopThread loop;
  ASSERT_TRUE(loop.Start().ok());
  // An address connect cannot even start with, and a port nothing serves.
  net::Listener closed;
  ASSERT_TRUE(closed.Open("127.0.0.1", 0, 1).ok());
  const uint16_t port = closed.port();
  closed.Close();
  rpc::Channel bad_host(&loop, "not-an-address", 1);
  rpc::Channel refused(&loop, "127.0.0.1", port);
  for (rpc::Channel* ch : {&bad_host, &refused}) {
    CallProbe probe;
    CallOnLoop(&loop, ch, "echo", &probe);
    ASSERT_TRUE(probe.Wait());
    EXPECT_FALSE(probe.ran_inside_call);
    EXPECT_TRUE(probe.status.IsUnavailable()) << probe.status.ToString();
  }
  bad_host.Shutdown();
  refused.Shutdown();
  loop.Stop();
}

TEST(LoopCallTest, ClosedChannelCallsBackAfterCallReturns) {
  EchoFixture fx;
  CallProbe probe;
  fx.loop.PostSync([&] {
    fx.channel->Close();
    fx.channel->Call("echo", "x", 1000, 0, probe.Callback());
    probe.MarkReturned();
  });
  ASSERT_TRUE(probe.Wait());
  EXPECT_FALSE(probe.ran_inside_call);
  EXPECT_TRUE(probe.status.IsUnavailable()) << probe.status.ToString();
}

TEST(LoopCallTest, FailedSendCallsBackAfterCallReturns) {
  // A peer that accepts, never answers, and then resets the connection
  // while the loop is busy: the next Call's send fails inside Call, which
  // fails that call and the one still in flight.
  net::Listener listener;
  ASSERT_TRUE(listener.Open("127.0.0.1", 0, 4).ok());
  rpc::LoopThread loop;
  ASSERT_TRUE(loop.Start().ok());
  rpc::Channel ch(&loop, "127.0.0.1", listener.port());
  CallProbe first;
  CallOnLoop(&loop, &ch, "m", &first);
  int peer = -1;
  for (int i = 0; i < 1000 && peer < 0; ++i) {
    peer = listener.Accept();
    if (peer < 0) SleepMs(2);
  }
  ASSERT_GE(peer, 0);

  std::mutex mu;
  std::condition_variable cv;
  bool busy = false;
  bool reset = false;
  bool first_ran_inside = true;
  CallProbe second;
  loop.Post([&] {
    {
      std::unique_lock<std::mutex> lock(mu);
      busy = true;
      cv.notify_all();
      cv.wait(lock, [&] { return reset; });
    }
    ch.Call("m", "y", 1000, 0, second.Callback());
    second.MarkReturned();
    std::lock_guard<std::mutex> lock(first.mu);
    first_ran_inside = first.ran;
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return busy; });
  }
  const struct linger abort_close = {1, 0};
  ::setsockopt(peer, SOL_SOCKET, SO_LINGER, &abort_close,
               sizeof(abort_close));
  ::close(peer);
  {
    std::lock_guard<std::mutex> lock(mu);
    reset = true;
  }
  cv.notify_all();
  ASSERT_TRUE(second.Wait());
  ASSERT_TRUE(first.Wait());
  EXPECT_FALSE(second.ran_inside_call);
  EXPECT_FALSE(first_ran_inside);
  EXPECT_TRUE(second.status.IsUnavailable()) << second.status.ToString();
  EXPECT_TRUE(first.status.IsUnavailable()) << first.status.ToString();
  ch.Shutdown();
  loop.Stop();
}

TEST(ResponseOrderTest, AnsweredAtOnceAndHeldLeaveInRespondOrder) {
  rpc::LoopThread loop;
  ASSERT_TRUE(loop.Start().ok());
  rpc::Server server(&loop, "127.0.0.1", 0);
  std::vector<rpc::Server::Call> held;  // loop thread
  server.RegisterHandler("now", [](rpc::Server::Call&& call) {
    call.respond(rpc::Code::kOk, call.payload);
  });
  server.RegisterHandler("hold", [&held](rpc::Server::Call&& call) {
    held.push_back(std::move(call));
  });
  server.RegisterHandler("release", [&held](rpc::Server::Call&& call) {
    for (rpc::Server::Call& h : held) h.respond(rpc::Code::kOk, h.payload);
    held.clear();
    call.respond(rpc::Code::kOk, call.payload);
  });
  // Answered from another thread before the handler returns: posted, so
  // the next at-once answers must queue behind it.
  server.RegisterHandler("elsewhere", [](rpc::Server::Call&& call) {
    std::thread([&call] { call.respond(rpc::Code::kOk, call.payload); })
        .join();
  });
  ASSERT_TRUE(server.Start().ok());
  rpc::Channel ch(&loop, "127.0.0.1", server.port());

  const std::vector<std::pair<std::string, std::string>> calls = {
      {"now", "1"},       {"hold", "2"}, {"now", "3"}, {"elsewhere", "4"},
      {"now", "5"},       {"hold", "6"}, {"release", "7"}};
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> order;
  loop.PostSync([&] {
    for (const auto& [method, body] : calls) {
      ch.Call(method, body, 5000, 0, [&](Status s, std::string reply) {
        EXPECT_TRUE(s.ok()) << s.ToString();
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(reply);
        cv.notify_all();
      });
    }
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(10),
                [&] { return order.size() == calls.size(); });
  }
  EXPECT_EQ(order, (std::vector<std::string>{"1", "3", "4", "5", "2", "6",
                                             "7"}));
  ch.Shutdown();
  server.Stop();
  loop.Stop();
}

// A blocking client socket connected to `port`.
int ConnectTo(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  struct sockaddr_in sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&sa), sizeof(sa)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void SendAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    data += n;
    size -= static_cast<size_t>(n);
  }
}

// Reads frames off a blocking socket until `n` arrived.
std::vector<rpc::Frame> ReadFrames(int fd, size_t n) {
  std::vector<rpc::Frame> out;
  std::string buf;
  char chunk[4096];
  while (out.size() < n) {
    rpc::Frame f;
    size_t consumed = 0;
    std::string error;
    const rpc::FrameDecode r =
        rpc::DecodeFrame(buf.data(), buf.size(), &consumed, &f, &error);
    if (r == rpc::FrameDecode::kOk) {
      out.push_back(std::move(f));
      buf.erase(0, consumed);
      continue;
    }
    EXPECT_NE(r, rpc::FrameDecode::kError) << error;
    if (r == rpc::FrameDecode::kError) break;
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) break;
    buf.append(chunk, static_cast<size_t>(got));
  }
  return out;
}

TEST(FramingTest, EveryCutOfTheStreamDecodesAlike) {
  EchoFixture fx;
  const int fd = ConnectTo(fx.server->port());
  ASSERT_GE(fd, 0);
  const struct timeval tv = {10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  uint64_t next_id = 1;
  const auto request = [&next_id](const std::string& payload) {
    rpc::Frame f;
    f.request_id = next_id++;
    f.trace_id = 7;
    f.deadline_ms = 1000;
    f.method = "echo";
    f.payload = payload;
    std::string wire;
    rpc::EncodeFrame(f, &wire);
    return wire;
  };
  const auto check = [&](const std::vector<std::string>& payloads,
                         uint64_t first_id) {
    const std::vector<rpc::Frame> got = ReadFrames(fd, payloads.size());
    ASSERT_EQ(got.size(), payloads.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].type, rpc::FrameType::kResponse);
      EXPECT_EQ(got[i].request_id, first_id + i);
      EXPECT_EQ(got[i].payload, payloads[i] + "|trace=7");
      EXPECT_TRUE(got[i].method.empty());  // responses carry no method
    }
  };

  // A frame larger than one read.
  const std::string big(200 * 1024, 'b');
  std::string wire = request(big);
  SendAll(fd, wire.data(), wire.size());
  check({big}, 1);

  // Many frames in one read.
  std::vector<std::string> many;
  wire.clear();
  for (int i = 0; i < 50; ++i) {
    many.push_back("m" + std::to_string(i));
    wire += request(many.back());
  }
  SendAll(fd, wire.data(), wire.size());
  check(many, 2);

  // One frame a byte at a time.
  wire = request("slow");
  for (char byte : wire) {
    SendAll(fd, &byte, 1);
    SleepMs(1);
  }
  check({"slow"}, 52);
  ::close(fd);
}

// The eventfds this process holds open.
std::set<int> Eventfds() {
  std::set<int> out;
  for (int fd = 0; fd < 4096; ++fd) {
    char link[64];
    const std::string path = "/proc/self/fd/" + std::to_string(fd);
    const ssize_t n = ::readlink(path.c_str(), link, sizeof(link) - 1);
    if (n <= 0) continue;
    link[n] = 0;
    if (std::string(link) == "anon_inode:[eventfd]") out.insert(fd);
  }
  return out;
}

// The eventfd this process holds open that `before` did not list.
int NewEventfd(const std::set<int>& before) {
  for (int fd : Eventfds()) {
    if (!before.count(fd)) return fd;
  }
  return -1;
}

// The counter an eventfd holds: what was written and not yet read.
uint64_t EventfdCount(int fd) {
  std::ifstream in("/proc/self/fdinfo/" + std::to_string(fd));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("eventfd-count:", 0) == 0) {
      return std::stoull(line.substr(14), nullptr, 16);
    }
  }
  ADD_FAILURE() << "no eventfd-count for fd " << fd;
  return 0;
}

TEST(LoopPostTest, LoopThreadPostWritesNoEventfdAndRunsBeforeSleeping) {
  const std::set<int> before = Eventfds();
  rpc::LoopThread loop;
  // A step that lets every poll sleep 10 s: only a wakeup, or the queue
  // check before the poll, gets a task run sooner.
  ASSERT_TRUE(loop.Start("post-test", [] { return 10000; }).ok());
  const int wake_fd = NewEventfd(before);
  ASSERT_GE(wake_fd, 0);

  std::mutex mu;
  std::condition_variable cv;
  bool ran = false;
  uint64_t count_before = 0;
  uint64_t count_after = 0;
  const auto t0 = std::chrono::steady_clock::now();
  loop.Post([&] {
    count_before = EventfdCount(wake_fd);
    loop.Post([&] {
      std::lock_guard<std::mutex> lock(mu);
      ran = true;
      cv.notify_all();
    });
    count_after = EventfdCount(wake_fd);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(8), [&] { return ran; });
  }
  EXPECT_TRUE(ran);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  EXPECT_EQ(count_after, count_before);
  loop.Stop();
}

TEST(LoopPostTest, CrossThreadPostStormLosesNoTask) {
  rpc::LoopThread loop;
  // Every poll may sleep 10 s: a lost wakeup strands the last tasks.
  ASSERT_TRUE(loop.Start("storm-test", [] { return 10000; }).ok());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  uint64_t ran = 0;  // loop thread
  std::atomic<uint64_t> seen{0};
  std::vector<std::thread> posters;
  for (int t = 0; t < kThreads; ++t) {
    posters.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        loop.Post([&] { seen.store(++ran, std::memory_order_release); });
      }
    });
  }
  for (std::thread& th : posters) th.join();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (seen.load(std::memory_order_acquire) < kThreads * kPerThread &&
         std::chrono::steady_clock::now() < deadline) {
    SleepMs(1);
  }
  EXPECT_EQ(seen.load(std::memory_order_acquire),
            static_cast<uint64_t>(kThreads * kPerThread));
  loop.Stop();
}

TEST(BufferTest, DrainedRpcBuffersGiveBackALargeExchange) {
  EchoFixture fx;
  // 4 MiB each way, as a restore's ReadStream answers: every buffer on
  // both ends grows past the kept size, then drains, twice.
  const std::string big(4u << 20, 'p');
  std::string reply;
  ASSERT_TRUE(fx.Call("echo", big, 5000, 0, &reply).ok());
  EXPECT_EQ(reply.size(), big.size() + 8);
  // The next, small exchange drains every buffer after a small burst.
  ASSERT_TRUE(fx.Call("echo", "small", 5000, 0, &reply).ok());
  EXPECT_EQ(reply, "small|trace=0");
  size_t channel_bytes = 0;
  size_t server_bytes = 0;
  fx.loop.PostSync([&] {
    channel_bytes = fx.channel->buffer_capacity();
    server_bytes = fx.server->buffer_capacity();
  });
  EXPECT_LE(channel_bytes, 2 * kMaxIdleBufferBytes);
  EXPECT_LE(server_bytes, 2 * kMaxIdleBufferBytes);
}

// ---------------------------------------------------------------------------
// A RemoteLogGate on its own rpc::LoopThread, driven from the test thread
// the way memorydb-server's loop drives it: the writes submitted between
// two Flush() calls reach the gate in one loop task, as one server
// iteration's writes do, and completions are collected for the test.
class GateHarness {
 public:
  GateHarness(net::RemoteLogGate::Options options, MetricsRegistry* registry) {
    EXPECT_TRUE(loop_.Start().ok());
    gate_ = std::make_unique<net::RemoteLogGate>(&loop_, std::move(options),
                                                 registry);
  }
  ~GateHarness() { Stop(); }

  Status Start() {
    Status s;
    loop_.PostSync([this, &s] {
      s = gate_->Start([this](const net::RemoteLogGate::Completion& c) {
        MutexLock lock(&mu_);
        done_.push_back(c);
      });
    });
    return s;
  }
  // The gate hands out seqs from 1 in submission order, so the seq a
  // submission will get is known when it is queued; Flush checks it.
  uint64_t SubmitAppend(std::string payload, uint64_t trace_id) {
    return SubmitTyped(txlog::RecordType::kData, std::move(payload),
                       trace_id);
  }
  uint64_t SubmitTyped(txlog::RecordType type, std::string payload,
                       uint64_t trace_id) {
    submits_.push_back({next_seq_, type, std::move(payload), trace_id});
    return next_seq_++;
  }
  void Flush() {
    loop_.PostSync([this] {
      for (replication::LogGate::Submission& s : submits_) {
        EXPECT_EQ(gate_->SubmitTyped(s.type, std::move(s.payload),
                                     s.trace_id),
                  s.seq);
      }
      gate_->Flush();
    });
    submits_.clear();
  }
  std::vector<net::RemoteLogGate::Completion> DrainCompletions() {
    std::vector<net::RemoteLogGate::Completion> out;
    MutexLock lock(&mu_);
    out.swap(done_);
    return out;
  }
  bool fenced() const { return gate_->fenced(); }
  uint64_t fenced_by() const { return gate_->fenced_by(); }
  uint64_t inflight() const { return gate_->inflight(); }
  void Stop() {
    if (stopped_) return;
    stopped_ = true;
    loop_.PostSync([this] { gate_->Stop(); });
    loop_.Stop();
  }

 private:
  rpc::LoopThread loop_;
  std::unique_ptr<net::RemoteLogGate> gate_;
  std::vector<replication::LogGate::Submission> submits_;
  uint64_t next_seq_ = 1;
  bool stopped_ = false;
  Mutex mu_;
  std::vector<net::RemoteLogGate::Completion> done_ GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// Fence-mode gate (§4.1): appends chain on the previous index; a foreign
// record in a precondition gap means the shard lease is lost — terminally.

std::vector<net::RemoteLogGate::Completion> WaitCompletions(
    GateHarness* gate, size_t n, int timeout_ms = 8000) {
  std::vector<net::RemoteLogGate::Completion> out;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (out.size() < n && std::chrono::steady_clock::now() < deadline) {
    for (auto& c : gate->DrainCompletions()) out.push_back(std::move(c));
    if (out.size() < n) SleepMs(10);
  }
  return out;
}

// Another writer's kLeadership claim at the tail: the fence a contender's
// won election leaves in a zombie's chain.
void ClaimAs(const LogGroup& group, uint64_t writer) {
  txlog::RemoteClient::Options opt;
  opt.writer_id = writer;
  ClientFixture fx(group.endpoints, opt);
  txlog::LogRecord r;
  r.type = txlog::RecordType::kLeadership;
  uint64_t index = 0;
  const Status s = fx.client->AppendSync(txlog::wire::kUnconditional,
                                         std::move(r), &index);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// Kills the txlogd leader. The survivors elect another, whose kNoop barrier
// (writer 0) moves the tail under every writer: benign tail movement.
void KillLeader(LogGroup* group) {
  const int leader = group->WaitForLeader();
  ASSERT_GE(leader, 0);
  group->services[static_cast<size_t>(leader)]->Stop();
  group->services[static_cast<size_t>(leader)].reset();
}

TEST(FencedGateTest, LeaderChangeRechainsForeignClaimFences) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);

  MetricsRegistry registry;
  net::RemoteLogGate::Options opt;
  opt.endpoints = group.endpoints;
  opt.writer_id = 5;
  opt.rpc_timeout_ms = 250;
  opt.backoff_base_ms = 10;
  opt.backoff_cap_ms = 100;
  opt.max_attempts = 20;  // rides out a txlogd re-election
  GateHarness gate(opt, &registry);
  ASSERT_TRUE(gate.Start().ok());

  gate.SubmitAppend("batch-1", 0);
  gate.Flush();
  auto done = WaitCompletions(&gate, 1);
  ASSERT_EQ(done.size(), 1u);
  ASSERT_TRUE(done[0].status.ok()) << done[0].status.ToString();
  EXPECT_FALSE(gate.fenced());

  // Benign tail movement: the next chained append hits a stale
  // precondition, reads the gap, finds only the new leader's barrier,
  // re-chains, and still commits.
  KillLeader(&group);
  gate.SubmitAppend("batch-2", 0);
  gate.Flush();
  done = WaitCompletions(&gate, 1);
  ASSERT_EQ(done.size(), 1u);
  ASSERT_TRUE(done[0].status.ok()) << done[0].status.ToString();
  EXPECT_FALSE(gate.fenced());

  // Another writer's claim is the fence.
  ClaimAs(group, 9);
  gate.SubmitAppend("batch-3", 0);
  gate.Flush();
  done = WaitCompletions(&gate, 1);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].status.IsConditionFailed())
      << done[0].status.ToString();
  EXPECT_TRUE(gate.fenced());
  EXPECT_EQ(gate.fenced_by(), 9u);

  // Terminal: later submissions fail without touching the log.
  gate.SubmitAppend("batch-4", 0);
  gate.Flush();
  done = WaitCompletions(&gate, 1);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].status.IsConditionFailed());

  gate.Stop();
}

// ---------------------------------------------------------------------------
// Group commit: every data batch flushed behind the in-flight record rides
// the next record; each write keeps its own seq and completion.

std::string SetBatch(const std::string& key, const std::string& value) {
  return replication::EncodeEffectBatch("7.0.7", {{"SET", key, value}});
}

net::RemoteLogGate::Options GateOptions(const LogGroup& group) {
  net::RemoteLogGate::Options opt;
  opt.endpoints = group.endpoints;
  opt.writer_id = 5;
  opt.rpc_timeout_ms = 250;
  opt.backoff_base_ms = 10;
  opt.backoff_cap_ms = 100;
  return opt;
}

// The committed log from index 1, polled until a replica serves `through`
// (a round-robin read may hit a follower one heartbeat behind).
std::vector<txlog::LogEntry> ReadLogThrough(txlog::RemoteClient* client,
                                            uint64_t through) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::vector<txlog::LogEntry> out;
  while (std::chrono::steady_clock::now() < deadline) {
    out.clear();
    for (;;) {
      txlog::wire::ClientReadResponse rsp;
      const uint64_t from = out.empty() ? 1 : out.back().index + 1;
      if (!client->ReadSync(from, 10000, 0, &rsp).ok() ||
          rsp.entries.empty()) {
        break;
      }
      for (auto& e : rsp.entries) out.push_back(std::move(e));
    }
    if (!out.empty() && out.back().index >= through) return out;
    SleepMs(20);
  }
  return out;
}

// The gate's own records (writer 5), in log order.
std::vector<txlog::LogEntry> GateRecords(std::vector<txlog::LogEntry> log) {
  std::vector<txlog::LogEntry> out;
  for (auto& e : log) {
    if (e.record.writer == 5) out.push_back(std::move(e));
  }
  return out;
}

std::string EngineGet(engine::Engine* eng, const std::string& key) {
  engine::ExecContext ctx;
  return eng->Execute({"GET", key}, &ctx).str;
}

TEST(GroupCommitTest, FlushedWritesShareOneRecordAndCompleteInOrder) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);
  MetricsRegistry registry;
  GateHarness gate(GateOptions(group), &registry);
  ASSERT_TRUE(gate.Start().ok());

  std::vector<uint64_t> seqs;
  for (int i = 0; i < 8; ++i) {
    seqs.push_back(gate.SubmitAppend(
        SetBatch("k" + std::to_string(i), std::to_string(i)), 0));
  }
  gate.Flush();
  const auto done = WaitCompletions(&gate, seqs.size());
  ASSERT_EQ(done.size(), seqs.size());
  for (size_t i = 0; i < done.size(); ++i) {
    EXPECT_EQ(done[i].seq, seqs[i]);
    ASSERT_TRUE(done[i].status.ok()) << done[i].status.ToString();
    EXPECT_EQ(done[i].index, done[0].index);
  }
  EXPECT_EQ(registry.FindCounter("txlog_gate_records_total")->value(), 1u);
  EXPECT_EQ(registry.FindCounter("txlog_gate_appends_total")->value(), 8u);
  EXPECT_EQ(gate.inflight(), 0u);

  ClientFixture fx(group.endpoints);
  const auto records =
      GateRecords(ReadLogThrough(fx.client.get(), done[0].index));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].index, done[0].index);
  engine::Engine eng;
  ASSERT_TRUE(
      replication::ApplyEffectBatch(&eng, Slice(records[0].record.payload), 0));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(EngineGet(&eng, "k" + std::to_string(i)), std::to_string(i));
  }
  gate.Stop();
}

TEST(GroupCommitTest, TypedAndChecksumRecordsTravelAloneInPlace) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);
  MetricsRegistry registry;
  net::RemoteLogGate::Options opt = GateOptions(group);
  opt.checksum_every = 1;
  GateHarness gate(opt, &registry);
  ASSERT_TRUE(gate.Start().ok());

  gate.SubmitAppend(SetBatch("a", "1"), 0);
  gate.SubmitAppend(SetBatch("b", "2"), 0);
  gate.SubmitTyped(txlog::RecordType::kSlotOwnership, "flip", 0);
  gate.SubmitAppend(SetBatch("c", "3"), 0);
  gate.SubmitAppend(SetBatch("d", "4"), 0);
  gate.Flush();
  const auto done = WaitCompletions(&gate, 5);
  ASSERT_EQ(done.size(), 5u);
  for (const auto& c : done) ASSERT_TRUE(c.status.ok()) << c.status.ToString();
  EXPECT_EQ(done[0].index, done[1].index);
  EXPECT_LT(done[1].index, done[2].index);
  EXPECT_LT(done[2].index, done[3].index);
  EXPECT_EQ(done[3].index, done[4].index);

  ClientFixture fx(group.endpoints);
  const auto records =
      GateRecords(ReadLogThrough(fx.client.get(), done[4].index + 1));
  ASSERT_EQ(records.size(), 5u);
  const std::vector<txlog::RecordType> want = {
      txlog::RecordType::kData, txlog::RecordType::kChecksum,
      txlog::RecordType::kSlotOwnership, txlog::RecordType::kData,
      txlog::RecordType::kChecksum};
  uint64_t chain = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    const txlog::LogRecord& r = records[i].record;
    EXPECT_EQ(r.type, want[i]) << "record " << i;
    if (r.type == txlog::RecordType::kData) {
      chain = Crc64(chain, Slice(r.payload));
    } else if (r.type == txlog::RecordType::kChecksum) {
      // The chain covers records as sent: the merged payloads.
      Decoder dec(r.payload);
      uint64_t expected = 0;
      ASSERT_TRUE(dec.GetFixed64(&expected));
      EXPECT_EQ(expected, chain) << "record " << i;
    } else {
      EXPECT_EQ(r.payload, "flip");
      EXPECT_EQ(records[i].index, done[2].index);
    }
  }
  std::string ab = SetBatch("a", "1");
  ASSERT_TRUE(replication::AppendEffectBatch(&ab, Slice(SetBatch("b", "2"))));
  EXPECT_EQ(records[0].record.payload, ab);
  gate.Stop();
}

TEST(GroupCommitTest, NoRecordExceedsTheCap) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);
  MetricsRegistry registry;
  GateHarness gate(GateOptions(group), &registry);
  ASSERT_TRUE(gate.Start().ok());

  // Three values fit under the cap, a fourth does not.
  const std::string value(net::RemoteLogGate::kMaxRecordBytes * 3 / 10, 'v');
  const std::string big = SetBatch(
      "big", std::string(net::RemoteLogGate::kMaxRecordBytes + 4096, 'b'));
  for (int i = 0; i < 10; ++i) {
    if (i == 5) gate.SubmitAppend(big, 0);
    gate.SubmitAppend(SetBatch("k" + std::to_string(i), value), 0);
  }
  gate.Flush();
  const auto done = WaitCompletions(&gate, 11);
  ASSERT_EQ(done.size(), 11u);
  for (const auto& c : done) ASSERT_TRUE(c.status.ok()) << c.status.ToString();

  ClientFixture fx(group.endpoints);
  const auto records =
      GateRecords(ReadLogThrough(fx.client.get(), done.back().index));
  EXPECT_GE(records.size(), 5u);
  EXPECT_LT(records.size(), 11u);
  engine::Engine eng;
  for (const auto& e : records) {
    if (e.record.payload != big) {
      EXPECT_LE(e.record.payload.size(), net::RemoteLogGate::kMaxRecordBytes);
    }
    ASSERT_TRUE(
        replication::ApplyEffectBatch(&eng, Slice(e.record.payload), 0));
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(EngineGet(&eng, "k" + std::to_string(i)), value);
  }
  EXPECT_EQ(EngineGet(&eng, "big").size(),
            net::RemoteLogGate::kMaxRecordBytes + 4096);
  gate.Stop();
}

TEST(GroupCommitTest, MergedRecordReissuedWholeAfterLeaderChange) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);
  MetricsRegistry registry;
  net::RemoteLogGate::Options opt = GateOptions(group);
  opt.max_attempts = 20;  // rides out a txlogd re-election
  GateHarness gate(opt, &registry);
  ASSERT_TRUE(gate.Start().ok());

  gate.SubmitAppend(SetBatch("w0", "0"), 0);
  gate.Flush();
  ASSERT_EQ(WaitCompletions(&gate, 1).size(), 1u);

  // Benign tail movement: the merged record's precondition goes stale, the
  // gap scan finds only the new txlogd leader's barrier, and the record goes
  // out again.
  KillLeader(&group);
  ClientFixture fx(group.endpoints);

  for (int i = 1; i <= 4; ++i) {
    gate.SubmitAppend(SetBatch("w" + std::to_string(i), std::to_string(i)),
                      0);
  }
  gate.Flush();
  const auto done = WaitCompletions(&gate, 4);
  ASSERT_EQ(done.size(), 4u);
  for (const auto& c : done) {
    ASSERT_TRUE(c.status.ok()) << c.status.ToString();
    EXPECT_EQ(c.index, done[0].index);
  }
  EXPECT_FALSE(gate.fenced());
  // First write, rejected merged attempt, re-issue.
  EXPECT_GE(registry
                .FindCounter("rpc_requests_total",
                             {{"method", txlog::rpcwire::kAppend}})
                ->value(),
            3u);

  // Each write landed exactly once: two data records, the second carrying
  // w1..w4 together.
  const auto records =
      GateRecords(ReadLogThrough(fx.client.get(), done[0].index));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].index, done[0].index);
  std::string merged = SetBatch("w1", "1");
  for (int i = 2; i <= 4; ++i) {
    ASSERT_TRUE(replication::AppendEffectBatch(
        &merged, Slice(SetBatch("w" + std::to_string(i), std::to_string(i)))));
  }
  EXPECT_EQ(records[1].record.payload, merged);
  gate.Stop();
}

TEST(GroupCommitTest, FencedFailuresFailEveryCarriedWrite) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);
  MetricsRegistry registry;
  net::RemoteLogGate::Options opt = GateOptions(group);
  opt.rpc_timeout_ms = 100;
  opt.max_attempts = 2;
  GateHarness gate(opt, &registry);
  ASSERT_TRUE(gate.Start().ok());

  gate.SubmitAppend(SetBatch("x", "0"), 0);
  gate.Flush();
  ASSERT_EQ(WaitCompletions(&gate, 1).size(), 1u);

  // Indeterminate: every append request is lost, so the merged record
  // times out and each write it carried fails with the record's status.
  for (auto& svc : group.services) {
    svc->fault().DropRequests(txlog::rpcwire::kAppend, 1000);
  }
  for (int i = 1; i <= 3; ++i) {
    gate.SubmitAppend(SetBatch("x", std::to_string(i)), 0);
  }
  gate.Flush();
  auto done = WaitCompletions(&gate, 3);
  ASSERT_EQ(done.size(), 3u);
  for (size_t i = 0; i < done.size(); ++i) {
    EXPECT_FALSE(done[i].status.ok());
    EXPECT_FALSE(done[i].status.IsConditionFailed())
        << done[i].status.ToString();
    EXPECT_EQ(done[i].status.ToString(), done[0].status.ToString());
    if (i > 0) {
      EXPECT_EQ(done[i].seq, done[i - 1].seq + 1);
    }
  }
  for (auto& svc : group.services) svc->fault().Clear();

  // The gate re-learns its chain position and serves again.
  gate.SubmitAppend(SetBatch("x", "4"), 0);
  gate.Flush();
  done = WaitCompletions(&gate, 1);
  ASSERT_EQ(done.size(), 1u);
  ASSERT_TRUE(done[0].status.ok()) << done[0].status.ToString();

  // Fenced: another writer's claim rejects the merged record, and every
  // write it carried fails with ConditionFailed.
  ClaimAs(group, 9);
  for (int i = 5; i <= 7; ++i) {
    gate.SubmitAppend(SetBatch("x", std::to_string(i)), 0);
  }
  gate.Flush();
  done = WaitCompletions(&gate, 3);
  ASSERT_EQ(done.size(), 3u);
  for (const auto& c : done) {
    EXPECT_TRUE(c.status.IsConditionFailed()) << c.status.ToString();
  }
  EXPECT_TRUE(gate.fenced());
  EXPECT_EQ(gate.fenced_by(), 9u);
  EXPECT_EQ(registry.FindCounter("txlog_gate_append_failures_total")->value(),
            6u);
  gate.Stop();
}

// ---------------------------------------------------------------------------
// Request ids and the §7.2.1 chain across gate incarnations and failures.

// Commits `values` one record at a time; returns the last record's index.
uint64_t CommitEach(GateHarness* gate,
                    const std::vector<std::string>& batches) {
  uint64_t last = 0;
  for (const std::string& batch : batches) {
    gate->SubmitAppend(batch, 0);
    gate->Flush();
    const auto done = WaitCompletions(gate, 1);
    EXPECT_EQ(done.size(), 1u);
    if (done.size() != 1) return 0;
    EXPECT_TRUE(done[0].status.ok()) << done[0].status.ToString();
    last = done[0].index;
  }
  return last;
}

// A restarted primary that keeps its writer id chains on the tail it
// learns, so its request ids are indexes no earlier incarnation used: the
// log service's dedup cannot answer its writes with the old records.
TEST(GateRestartTest, SameWriterIdLosesNoWrite) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);
  {
    MetricsRegistry registry;
    GateHarness a(GateOptions(group), &registry);
    ASSERT_TRUE(a.Start().ok());
    ASSERT_NE(CommitEach(&a, {SetBatch("a0", "old"), SetBatch("a1", "old"),
                              SetBatch("a2", "old")}),
              0u);
    a.Stop();
  }
  MetricsRegistry registry;
  GateHarness b(GateOptions(group), &registry);
  ASSERT_TRUE(b.Start().ok());
  const std::vector<std::string> writes = {
      SetBatch("b0", "new"), SetBatch("b1", "new"), SetBatch("b2", "new")};
  const uint64_t last = CommitEach(&b, writes);
  ASSERT_NE(last, 0u);

  ClientFixture fx(group.endpoints);
  const auto log = ReadLogThrough(fx.client.get(), last);
  for (const std::string& want : writes) {
    int copies = 0;
    for (const auto& e : log) copies += e.record.payload == want ? 1 : 0;
    EXPECT_EQ(copies, 1);
  }
  b.Stop();
}

// The chain folds in only records known to be in the log: after a failed
// append, replay still verifies every checksum record.
TEST(GateRestartTest, FailedAppendKeepsTheChecksumChainVerifiable) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);
  MetricsRegistry registry;
  net::RemoteLogGate::Options opt = GateOptions(group);
  opt.checksum_every = 1;
  opt.rpc_timeout_ms = 100;
  opt.max_attempts = 2;
  GateHarness gate(opt, &registry);
  ASSERT_TRUE(gate.Start().ok());
  const uint64_t first = CommitEach(&gate, {SetBatch("x", "0")});
  ASSERT_NE(first, 0u);
  // The checksum record behind x=0 is committed before the fault: one still
  // in flight would keep its place through the fault, and x=1 would never
  // go out to fail.
  ClientFixture fx(group.endpoints);
  ReadLogThrough(fx.client.get(), first + 1);

  // Every append request is lost until one write fails.
  for (auto& svc : group.services) {
    svc->fault().DropRequests(txlog::rpcwire::kAppend, 1000);
  }
  gate.SubmitAppend(SetBatch("x", "1"), 0);
  gate.Flush();
  const auto failed = WaitCompletions(&gate, 1);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_FALSE(failed[0].status.ok());
  for (auto& svc : group.services) svc->fault().Clear();

  const uint64_t last = CommitEach(
      &gate, {SetBatch("x", "2"), SetBatch("x", "3"), SetBatch("x", "4")});
  ASSERT_NE(last, 0u);
  ReadLogThrough(fx.client.get(), last + 1);  // the checksum behind x=4
  engine::Engine eng;
  replication::RestoreResult result;
  const Status s =
      replication::ReplayLogTail(fx.client.get(), &eng, &result, 0);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_GE(result.checksum_records_verified, 1u);
  EXPECT_EQ(EngineGet(&eng, "x"), "4");
  gate.Stop();
}

}  // namespace
}  // namespace memdb
