// Loopback-socket tests for the real I/O path (src/net): partial-frame
// reassembly, deep pipelining, protocol guard rails, output-buffer-limit
// eviction, maxclients, INFO/METRICS over the wire, clean shutdown with
// connections open, and the submit -> gate hand-off of group commit under
// concurrent submitters. Every test drives real TCP sockets on 127.0.0.1.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/socket.h>

#include <cerrno>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "client/resp_conn.h"
#include "engine/engine.h"
#include "net/event_loop.h"
#include "net/remote_log_gate.h"
#include "net/server.h"
#include "replication/recovery.h"
#include "resp/resp.h"
#include "txlog/service.h"

namespace memdb::net {
namespace {

using client::RespConn;
using engine::Engine;
using resp::Value;

constexpr uint64_t kDeadlineMs = 5000;  // tests must never hang

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// Drains until the server closes the connection (EOF or reset). Returns
// true if the close was observed before the connection's deadline.
bool WaitForClose(const RespConn& c) {
  char buf[16 * 1024];
  for (;;) {
    const ssize_t r = ::recv(c.fd(), buf, sizeof(buf), 0);
    if (r == 0) return true;
    if (r < 0) return errno == ECONNRESET || errno == EPIPE;
  }
}

struct ServerFixture {
  explicit ServerFixture(ServerConfig config = {}) {
    config.port = 0;  // kernel-assigned; no collisions across tests
    config.loop_timeout_ms = 10;
    engine = std::make_unique<Engine>();
    server = std::make_unique<RespServer>(engine.get(), config);
    const Status s = server->Start();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  ~ServerFixture() { server->Stop(); }

  double Metric(const std::string& series) {
    RespConn c(server->port(), kDeadlineMs);
    const Value v = c.RoundTrip({"METRICS"});
    double out = 0;
    MetricsRegistry::ParseSeries(v.str, series, &out);
    return out;
  }

  std::unique_ptr<Engine> engine;
  std::unique_ptr<RespServer> server;
};

TEST(NetServerTest, PingSetGetRoundTrip) {
  ServerFixture f;
  RespConn c(f.server->port(), kDeadlineMs);
  ASSERT_TRUE(c.connected());
  EXPECT_EQ(c.RoundTrip({"PING"}).str, "PONG");
  EXPECT_EQ(c.RoundTrip({"SET", "k", "hello"}).str, "OK");
  const Value got = c.RoundTrip({"GET", "k"});
  EXPECT_EQ(got.type, resp::Type::kBulkString);
  EXPECT_EQ(got.str, "hello");
  EXPECT_TRUE(c.RoundTrip({"GET", "missing"}).IsNull());
}

TEST(NetServerTest, PartialFrameReassemblyAcrossReads) {
  ServerFixture f;
  RespConn c(f.server->port(), kDeadlineMs);
  ASSERT_TRUE(c.connected());
  const std::string wire = resp::EncodeCommand({"SET", "frag", "mented"});
  // Dribble the frame a few bytes at a time with pauses, so the server
  // observes many partial reads and must reassemble across them.
  for (size_t off = 0; off < wire.size(); off += 3) {
    ASSERT_TRUE(c.Send(wire.substr(off, 3)));
    SleepMs(5);
  }
  std::vector<Value> replies = c.ReadReplies(1);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].str, "OK");
  EXPECT_EQ(c.RoundTrip({"GET", "frag"}).str, "mented");
}

TEST(NetServerTest, InlineCommands) {
  ServerFixture f;
  RespConn c(f.server->port(), kDeadlineMs);
  ASSERT_TRUE(c.connected());
  ASSERT_TRUE(c.Send("PING\r\n"));
  std::vector<Value> replies = c.ReadReplies(1);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].str, "PONG");
  // Inline with arguments and a bare-\n terminator, mixed with multibulk.
  ASSERT_TRUE(c.Send("SET inlined yes\n"));
  ASSERT_TRUE(c.Send(resp::EncodeCommand({"GET", "inlined"})));
  replies = c.ReadReplies(2);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].str, "OK");
  EXPECT_EQ(replies[1].str, "yes");
}

TEST(NetServerTest, ServerHandledNamesAreNoEngineCommands) {
  // ExecutePending compares these names only when the engine's lookup
  // misses, so none may ever be registered as an engine command.
  Engine engine;
  for (const char* name :
       {"QUIT", "TRACE", "SLOWLOG", "CLUSTER", "ASKING", "WAIT"}) {
    EXPECT_EQ(engine.FindCommand(name), nullptr) << name;
  }
}

TEST(NetServerTest, EmptyMultibulkGetsNoReply) {
  // Redis consumes a multibulk header that counts no arguments and answers
  // nothing: `*0` then PING gets exactly one reply.
  ServerFixture f;
  RespConn c(f.server->port(), kDeadlineMs);
  ASSERT_TRUE(c.connected());
  ASSERT_TRUE(c.Send("*0\r\n" + resp::EncodeCommand({"PING"})));
  std::vector<Value> replies = c.ReadReplies(1);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].type, resp::Type::kSimpleString);
  EXPECT_EQ(replies[0].str, "PONG");
  // Nothing else was queued: the next reply is the next command's.
  EXPECT_EQ(c.RoundTrip({"DBSIZE"}).integer, 0);
}

TEST(NetServerTest, ReusedArgvSlotsKeepEveryCommandIntact) {
  // Commands of shrinking and growing size through the same connection's
  // argv slots, across batches: a long value, then a short one in the same
  // slot, then more arguments than a kept slot holds.
  ServerConfig config;
  config.io_threads = 2;
  ServerFixture f(config);
  RespConn c(f.server->port(), kDeadlineMs);
  ASSERT_TRUE(c.connected());
  const std::string big(100000, 'b');
  for (int round = 0; round < 3; ++round) {
    std::string wire;
    wire += resp::EncodeCommand({"SET", "k1", big});
    wire += resp::EncodeCommand({"GET", "k1"});
    wire += resp::EncodeCommand({"SET", "k1", "s"});
    wire += resp::EncodeCommand({"MSET", "a", "1", "b", "2", "c", "3"});
    wire += resp::EncodeCommand({"MGET", "k1", "a", "c"});
    ASSERT_TRUE(c.Send(wire));
    std::vector<Value> replies = c.ReadReplies(5);
    ASSERT_EQ(replies.size(), 5u);
    EXPECT_EQ(replies[0].str, "OK");
    EXPECT_EQ(replies[1].str, big);
    EXPECT_EQ(replies[2].str, "OK");
    EXPECT_EQ(replies[3].str, "OK");
    ASSERT_EQ(replies[4].array.size(), 3u);
    EXPECT_EQ(replies[4].array[0].str, "s");
    EXPECT_EQ(replies[4].array[1].str, "1");
    EXPECT_EQ(replies[4].array[2].str, "3");
    EXPECT_EQ(c.RoundTrip({"get", "k1"}).str, "s");  // case-insensitive
  }
}

TEST(NetServerTest, DeeplyPipelinedBatches) {
  ServerConfig config;
  config.io_threads = 4;  // exercise the io-thread fan-out under load
  ServerFixture f(config);
  RespConn c(f.server->port(), kDeadlineMs);
  ASSERT_TRUE(c.connected());
  constexpr int kPipeline = 2000;
  std::string wire;
  for (int i = 0; i < kPipeline; ++i) {
    wire += resp::EncodeCommand({"SET", "k" + std::to_string(i),
                                 "v" + std::to_string(i)});
    wire += resp::EncodeCommand({"GET", "k" + std::to_string(i)});
  }
  ASSERT_TRUE(c.Send(wire));
  std::vector<Value> replies = c.ReadReplies(2 * kPipeline);
  ASSERT_EQ(replies.size(), static_cast<size_t>(2 * kPipeline));
  for (int i = 0; i < kPipeline; ++i) {
    EXPECT_EQ(replies[static_cast<size_t>(2 * i)].str, "OK");
    EXPECT_EQ(replies[static_cast<size_t>(2 * i + 1)].str,
              "v" + std::to_string(i));
  }
  // The whole pipeline must have been executed in few, large batches.
  EXPECT_GE(f.Metric("net_batch_commands_sum"), 2.0 * kPipeline);
  const double count = f.Metric("net_batch_commands_count");
  ASSERT_GT(count, 0.0);
  EXPECT_LT(count, 2.0 * kPipeline);  // strictly batched, not one-by-one
}

TEST(NetServerTest, OversizedArgumentRejected) {
  ServerConfig config;
  config.decode.max_bulk_bytes = 1024;
  ServerFixture f(config);
  RespConn c(f.server->port(), kDeadlineMs);
  ASSERT_TRUE(c.connected());
  // Declared 1MB argument: rejected from the header alone, connection torn
  // down after the error reply.
  ASSERT_TRUE(c.Send("*2\r\n$3\r\nGET\r\n$1048576\r\n"));
  std::vector<Value> replies = c.ReadReplies(1);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(replies[0].IsError());
  EXPECT_NE(replies[0].str.find("Protocol error"), std::string::npos);
  EXPECT_TRUE(WaitForClose(c));
  EXPECT_GE(f.Metric("net_protocol_errors_total"), 1.0);
}

TEST(NetServerTest, MalformedFrameClosesConnection) {
  ServerFixture f;
  RespConn c(f.server->port(), kDeadlineMs);
  ASSERT_TRUE(c.connected());
  ASSERT_TRUE(c.Send("*1\r\n$3\r\nabcd\r\n"));  // declared 3 bytes, sent 4
  std::vector<Value> replies = c.ReadReplies(1);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(replies[0].IsError());
  EXPECT_TRUE(WaitForClose(c));
}

TEST(NetServerTest, SlowClientOutputBufferEviction) {
  ServerConfig config;
  config.output_hard_bytes = 256 * 1024;
  ServerFixture f(config);

  RespConn setter(f.server->port(), kDeadlineMs);
  ASSERT_TRUE(setter.connected());
  EXPECT_EQ(setter.RoundTrip({"SET", "big", std::string(32 * 1024, 'x')}).str,
            "OK");

  // The slow client pipelines 100 GETs of the 32KB value (3.2MB of
  // replies) and never reads: the reply backlog blows the hard limit and
  // the server must evict rather than buffer without bound or stall.
  RespConn slow(f.server->port(), kDeadlineMs);
  ASSERT_TRUE(slow.connected());
  std::string wire;
  for (int i = 0; i < 100; ++i) wire += resp::EncodeCommand({"GET", "big"});
  ASSERT_TRUE(slow.Send(wire));
  EXPECT_TRUE(WaitForClose(slow));

  // The loop stayed responsive throughout and recorded the eviction.
  EXPECT_EQ(setter.RoundTrip({"PING"}).str, "PONG");
  EXPECT_GE(f.Metric("net_evicted_clients_total"), 1.0);
}

TEST(NetServerTest, MaxClientsRejectsExcessConnections) {
  ServerConfig config;
  config.maxclients = 2;
  ServerFixture f(config);
  RespConn c1(f.server->port(), kDeadlineMs);
  RespConn c2(f.server->port(), kDeadlineMs);
  ASSERT_TRUE(c1.connected());
  ASSERT_TRUE(c2.connected());
  // Ensure both are registered with the loop before the third connects.
  EXPECT_EQ(c1.RoundTrip({"PING"}).str, "PONG");
  EXPECT_EQ(c2.RoundTrip({"PING"}).str, "PONG");

  RespConn c3(f.server->port(), kDeadlineMs);
  ASSERT_TRUE(c3.connected());
  std::vector<Value> replies = c3.ReadReplies(1);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(replies[0].IsError());
  EXPECT_NE(replies[0].str.find("max number of clients"), std::string::npos);
  EXPECT_TRUE(WaitForClose(c3));
  EXPECT_EQ(c1.RoundTrip({"PING"}).str, "PONG");  // survivors unaffected
}

TEST(NetServerTest, InfoClientsSectionOverWire) {
  ServerFixture f;
  RespConn c1(f.server->port(), kDeadlineMs);
  RespConn c2(f.server->port(), kDeadlineMs);
  ASSERT_TRUE(c1.connected());
  ASSERT_TRUE(c2.connected());
  EXPECT_EQ(c2.RoundTrip({"PING"}).str, "PONG");
  const Value info = c1.RoundTrip({"INFO", "clients"});
  ASSERT_EQ(info.type, resp::Type::kBulkString);
  EXPECT_NE(info.str.find("# Clients"), std::string::npos);
  EXPECT_NE(info.str.find("connected_clients:2"), std::string::npos);
  EXPECT_NE(info.str.find("blocked_clients:0"), std::string::npos);
  EXPECT_NE(info.str.find("client_recent_max_input_buffer:"),
            std::string::npos);
}

TEST(NetServerTest, MetricsExposeBytesAndBatches) {
  ServerFixture f;
  RespConn c(f.server->port(), kDeadlineMs);
  ASSERT_TRUE(c.connected());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(c.RoundTrip({"SET", "k" + std::to_string(i), "v"}).str, "OK");
  }
  const Value v = c.RoundTrip({"METRICS"});
  ASSERT_EQ(v.type, resp::Type::kBulkString);
  double bytes_in = 0, bytes_out = 0, batches = 0, connected = 0;
  EXPECT_TRUE(
      MetricsRegistry::ParseSeries(v.str, "net_input_bytes_total", &bytes_in));
  EXPECT_TRUE(MetricsRegistry::ParseSeries(v.str, "net_output_bytes_total",
                                           &bytes_out));
  EXPECT_TRUE(MetricsRegistry::ParseSeries(v.str, "net_batch_commands_count",
                                           &batches));
  EXPECT_TRUE(MetricsRegistry::ParseSeries(v.str, "net_connected_clients",
                                           &connected));
  EXPECT_GT(bytes_in, 0.0);
  EXPECT_GT(bytes_out, 0.0);
  EXPECT_GT(batches, 0.0);
  EXPECT_EQ(connected, 1.0);
}

TEST(NetServerTest, QuitFlushesReplyThenCloses) {
  ServerFixture f;
  RespConn c(f.server->port(), kDeadlineMs);
  ASSERT_TRUE(c.connected());
  ASSERT_TRUE(c.SendCommand({"QUIT"}));
  std::vector<Value> replies = c.ReadReplies(1);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].str, "OK");
  EXPECT_TRUE(WaitForClose(c));
}

TEST(NetServerTest, CleanShutdownWithConnectionsOpen) {
  auto f = std::make_unique<ServerFixture>();
  RespConn c1(f->server->port(), kDeadlineMs);
  RespConn c2(f->server->port(), kDeadlineMs);
  ASSERT_TRUE(c1.connected());
  ASSERT_TRUE(c2.connected());
  EXPECT_EQ(c1.RoundTrip({"SET", "k", "v"}).str, "OK");
  // In-flight unread bytes on c2 while the server goes down.
  ASSERT_TRUE(c2.SendCommand({"PING"}));
  f->server->Stop();
  // Stop() is idempotent and the destructor repeats it harmlessly.
  f.reset();
  EXPECT_TRUE(WaitForClose(c1));
  EXPECT_TRUE(WaitForClose(c2));
}

TEST(NetServerTest, StopIsIdempotentAndRestartIsIndependent) {
  Engine engine;
  ServerConfig config;
  config.port = 0;
  config.loop_timeout_ms = 10;
  auto server = std::make_unique<RespServer>(&engine, config);
  ASSERT_TRUE(server->Start().ok());
  const uint16_t port = server->port();
  {
    RespConn c(port, kDeadlineMs);
    ASSERT_TRUE(c.connected());
    EXPECT_EQ(c.RoundTrip({"SET", "persist", "1"}).str, "OK");
  }
  server->Stop();
  server->Stop();
  server.reset();

  // A fresh server over the same engine sees the data.
  auto server2 = std::make_unique<RespServer>(&engine, config);
  ASSERT_TRUE(server2->Start().ok());
  RespConn c(server2->port(), kDeadlineMs);
  ASSERT_TRUE(c.connected());
  EXPECT_EQ(c.RoundTrip({"GET", "persist"}).str, "1");
  server2->Stop();
}

TEST(NetServerTest, IoThreadsServeManyConnections) {
  ServerConfig config;
  config.io_threads = 4;
  ServerFixture f(config);
  constexpr int kClients = 16;
  constexpr int kOpsPerClient = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      RespConn c(f.server->port(), kDeadlineMs);
      if (!c.connected()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kOpsPerClient; ++i) {
        const std::string key = "t" + std::to_string(t) + ":" +
                                std::to_string(i);
        if (c.RoundTrip({"SET", key, key}).str != "OK" ||
            c.RoundTrip({"GET", key}).str != key) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// Regression: --maxmemory used to be accepted but unenforced on the write
// path — a write far bigger than the budget got +OK and blew straight past
// the ceiling. Over the wire, writes that do not fit must answer -OOM, the
// budget must hold, and the connection must survive to serve reads and
// memory-relieving writes.
TEST(NetServerTest, MaxMemoryAnswersOomOverWire) {
  constexpr uint64_t kBudget = 8 * 1024;
  ServerConfig config;
  config.port = 0;
  config.loop_timeout_ms = 10;
  Engine engine;
  engine.set_maxmemory(kBudget);  // default policy: noeviction
  RespServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());
  RespConn c(server.port(), kDeadlineMs);
  ASSERT_TRUE(c.connected());

  // One oversized write: rejected up front, nothing stored.
  const Value huge = c.RoundTrip({"SET", "huge", std::string(64 * 1024, 'x')});
  ASSERT_TRUE(huge.IsError());
  EXPECT_EQ(huge.str.rfind("OOM", 0), 0u) << huge.str;
  EXPECT_EQ(c.RoundTrip({"DBSIZE"}).integer, 0);

  // Fill until the ceiling answers -OOM, then verify the budget held and
  // the connection still serves reads and DELs.
  bool saw_oom = false;
  for (int i = 0; i < 200 && !saw_oom; ++i) {
    const Value v =
        c.RoundTrip({"SET", "k" + std::to_string(i), std::string(256, 'v')});
    if (v.IsError()) {
      EXPECT_EQ(v.str.rfind("OOM", 0), 0u) << v.str;
      saw_oom = true;
    }
  }
  EXPECT_TRUE(saw_oom);
  EXPECT_EQ(c.RoundTrip({"GET", "k0"}).str, std::string(256, 'v'));
  EXPECT_EQ(c.RoundTrip({"DEL", "k0"}).integer, 1);  // deny_oom exemption

  RespConn m(server.port(), kDeadlineMs);
  const Value metrics = m.RoundTrip({"METRICS"});
  double used = 0;
  ASSERT_TRUE(
      MetricsRegistry::ParseSeries(metrics.str, "used_memory_bytes", &used));
  EXPECT_GT(used, 0);
  EXPECT_LE(used, double(kBudget));
  server.Stop();
}

// Same wire path under allkeys-lru: the ceiling holds by evicting instead
// of refusing, with zero error replies.
TEST(NetServerTest, MaxMemoryEvictsUnderLruOverWire) {
  constexpr uint64_t kBudget = 8 * 1024;
  ServerConfig config;
  config.port = 0;
  config.loop_timeout_ms = 10;
  Engine engine;
  engine.set_maxmemory(kBudget);
  engine.set_eviction_policy(engine::EvictionPolicy::kAllKeysLru);
  RespServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());
  RespConn c(server.port(), kDeadlineMs);
  ASSERT_TRUE(c.connected());
  for (int i = 0; i < 200; ++i) {
    const Value v =
        c.RoundTrip({"SET", "k" + std::to_string(i), std::string(256, 'v')});
    ASSERT_EQ(v, Value::Simple("OK")) << "write " << i << ": " << v.str;
  }
  const Value metrics = c.RoundTrip({"METRICS"});
  double used = 0, evicted = 0;
  ASSERT_TRUE(
      MetricsRegistry::ParseSeries(metrics.str, "used_memory_bytes", &used));
  ASSERT_TRUE(MetricsRegistry::ParseSeries(metrics.str, "evicted_keys_total",
                                           &evicted));
  EXPECT_LE(used, double(kBudget));
  EXPECT_GT(evicted, 0);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Group commit through the server: one loop iteration's writes reach the
// gate in one Flush and share its records.

// A one-replica txlogd group: commits as soon as its leader appends.
struct SoloLog {
  SoloLog() {
    txlog::LogService::Options opt;
    opt.fsync = false;
    opt.heartbeat_ms = 20;
    opt.election_min_ms = 30;
    opt.election_max_ms = 60;
    service = std::make_unique<txlog::LogService>(opt);
    EXPECT_TRUE(service->Start().ok());
    endpoint = "127.0.0.1:" + std::to_string(service->port());
    service->SetPeers({{1, endpoint}});
    for (int i = 0; i < 500 && !service->IsLeader(); ++i) SleepMs(5);
    EXPECT_TRUE(service->IsLeader());
  }
  ~SoloLog() { service->Stop(); }

  std::unique_ptr<txlog::LogService> service;
  std::string endpoint;
};

// ---------------------------------------------------------------------------
// Threads and wakeups.

// The names (comm) of this process's threads, one entry per thread.
std::multiset<std::string> ThreadNames() {
  std::multiset<std::string> out;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const struct dirent* e = ::readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(std::string("/proc/self/task/") + e->d_name + "/comm");
    std::string name;
    if (std::getline(in, name)) out.insert(name);
  }
  ::closedir(dir);
  return out;
}

TEST(ThreadNamesTest, GatedServerRunsOneLoopAndItsIoWorkers) {
  SoloLog log;
  const std::multiset<std::string> before = ThreadNames();
  ServerConfig config;
  config.txlog_endpoints = {log.endpoint};
  config.io_threads = 2;
  {
    ServerFixture f(config);
    RespConn c(f.server->port(), kDeadlineMs);
    ASSERT_EQ(c.RoundTrip({"SET", "k", "v"}), Value::Simple("OK"));
    std::multiset<std::string> added = ThreadNames();
    for (const std::string& name : before) {
      const auto it = added.find(name);
      if (it != added.end()) added.erase(it);
    }
    // The gate, its log client and its channels run on the loop: no
    // thread of their own.
    EXPECT_EQ(added,
              (std::multiset<std::string>{"memdb-io-1", "memdb-loop"}));
  }
  EXPECT_EQ(ThreadNames(), before);
}

TEST(EventLoopTest, CoalescedWakeupsLoseNoWork) {
  // Producers publish work, then wake the poller; the poller sleeps up to
  // 10 s per poll, so a swallowed wakeup strands the last work.
  EventLoop loop;
  ASSERT_TRUE(loop.Init().ok());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::atomic<int> published{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        published.fetch_add(1, std::memory_order_acq_rel);
        loop.Wakeup();
      }
    });
  }
  int consumed = 0;
  std::vector<Event> events;
  const auto t0 = std::chrono::steady_clock::now();
  while (consumed < kThreads * kPerThread) {
    if (published.load(std::memory_order_acquire) == consumed) {
      loop.Poll(10000, &events);
    }
    consumed = published.load(std::memory_order_acquire);
  }
  for (std::thread& th : producers) th.join();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
}

// Pipelined connections driven from concurrent client threads: replies
// stay per write and in order, and every GET sees its connection's SET.
TEST(GroupCommitHandOffTest, ConcurrentPipelinedConnectionsThroughServer) {
  SoloLog log;
  ServerConfig config;
  config.txlog_endpoints = {log.endpoint};
  ServerFixture f(config);

  constexpr int kConns = 4;
  constexpr int kRounds = 5;
  constexpr int kPipeline = 8;
  std::vector<std::thread> clients;
  std::vector<int> bad(kConns, 0);
  for (int t = 0; t < kConns; ++t) {
    clients.emplace_back([&f, &bad, t] {
      RespConn c(f.server->port(), kDeadlineMs);
      for (int r = 0; r < kRounds; ++r) {
        std::string pipeline;
        for (int i = 0; i < kPipeline; ++i) {
          const std::string key =
              "c" + std::to_string(t) + "k" + std::to_string(i);
          pipeline += resp::EncodeCommand({"SET", key, std::to_string(r)});
          pipeline += resp::EncodeCommand({"GET", key});
        }
        const std::vector<Value> replies =
            c.Send(pipeline) ? c.ReadReplies(2 * kPipeline)
                             : std::vector<Value>();
        if (replies.size() != 2 * kPipeline) {
          ++bad[t];
          return;
        }
        for (int i = 0; i < kPipeline; ++i) {
          if (replies[2 * i] != Value::Simple("OK") ||
              replies[2 * i + 1].str != std::to_string(r)) {
            ++bad[t];
          }
        }
      }
    });
  }
  for (std::thread& th : clients) th.join();
  for (int t = 0; t < kConns; ++t) EXPECT_EQ(bad[t], 0) << "conn " << t;
  EXPECT_EQ(f.Metric("txlog_gate_appends_total"), kConns * kRounds * kPipeline);
  EXPECT_LT(f.Metric("txlog_gate_records_total"),
            kConns * kRounds * kPipeline);
}

}  // namespace
}  // namespace memdb::net
