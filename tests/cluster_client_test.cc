// ClusterClient tests against real in-process cluster-mode RespServers
// (no transaction log: migrations commit their flips immediately, which is
// exactly what these routing-protocol tests need). Covers redirect parsing,
// slot-map discovery and refresh, MOVED/ASK following, the bounded hop
// budget on a disagreeing topology, and a client with a deliberately stale
// map retrying through a live slot migration. RespConn, the one blocking
// RESP connection under every wire client, gets its contract checked here
// too: endpoint parsing, pipelining, the read deadline and reconnects.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chaos/process.h"
#include "client/cluster_client.h"
#include "client/resp_conn.h"
#include "common/crc.h"
#include "engine/engine.h"
#include "net/server.h"

namespace memdb {
namespace {

using chaos::PickFreePort;
using client::ClusterClient;
using client::RespConn;
using engine::Engine;
using net::RespServer;
using net::ServerConfig;

struct ClusterShard {
  ClusterShard(uint16_t port, const std::string& shard_id,
               const std::string& slots,
               const std::vector<ServerConfig::ClusterPeer>& peers) {
    ServerConfig config;
    config.port = port;
    config.loop_timeout_ms = 10;
    config.cluster = true;
    config.shard_id = shard_id;
    config.cluster_slots = slots;
    config.cluster_peers = peers;
    config.migration_batch_keys = 4;  // several batches even for small slots
    engine = std::make_unique<Engine>();
    server = std::make_unique<RespServer>(engine.get(), config);
    const Status s = server->Start();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  ~ClusterShard() { server->Stop(); }

  std::unique_ptr<Engine> engine;
  std::unique_ptr<RespServer> server;
};

std::string Ep(uint16_t port) { return "127.0.0.1:" + std::to_string(port); }

// Two shards splitting the slot space at 8192 (key "foo" -> slot 12182 on
// shard two; key "bar" -> slot 5061 on shard one).
struct TwoShards {
  TwoShards()
      : port1(PickFreePort()),
        port2(PickFreePort()),
        shard1(port1, "s1", "0-8191", {{"s2", Ep(port2), "8192-16383"}}),
        shard2(port2, "s2", "8192-16383", {{"s1", Ep(port1), "0-8191"}}) {}
  uint16_t port1, port2;
  ClusterShard shard1, shard2;
};

TEST(ClusterClientParse, RedirectGrammar) {
  uint16_t slot = 0;
  std::string ep;
  EXPECT_TRUE(
      ClusterClient::ParseRedirect("MOVED 42 127.0.0.1:7001", "MOVED", &slot,
                                   &ep));
  EXPECT_EQ(slot, 42);
  EXPECT_EQ(ep, "127.0.0.1:7001");
  EXPECT_TRUE(ClusterClient::ParseRedirect("ASK 16383 h:1", "ASK", &slot,
                                           &ep));
  EXPECT_EQ(slot, 16383);

  EXPECT_FALSE(ClusterClient::ParseRedirect("MOVED 42", "MOVED", &slot, &ep));
  EXPECT_FALSE(
      ClusterClient::ParseRedirect("MOVED x h:1", "MOVED", &slot, &ep));
  EXPECT_FALSE(
      ClusterClient::ParseRedirect("MOVED 16384 h:1", "MOVED", &slot, &ep));
  EXPECT_FALSE(
      ClusterClient::ParseRedirect("ERR unknown", "MOVED", &slot, &ep));
  // An ASK is not a MOVED.
  EXPECT_FALSE(
      ClusterClient::ParseRedirect("ASK 42 h:1", "MOVED", &slot, &ep));
}

TEST(ClusterClientTest, DiscoversMapAndRoutesWithoutRedirects) {
  TwoShards cluster;
  ClusterClient cli({Ep(cluster.port1)});
  ASSERT_TRUE(cli.RefreshSlotMap().ok());
  EXPECT_EQ(cli.EndpointForSlot(0), Ep(cluster.port1));
  EXPECT_EQ(cli.EndpointForSlot(16383), Ep(cluster.port2));

  resp::Value reply;
  ASSERT_TRUE(cli.Execute({"SET", "foo", "1"}, &reply).ok());
  EXPECT_EQ(reply.str, "OK");
  ASSERT_TRUE(cli.Execute({"SET", "bar", "2"}, &reply).ok());
  EXPECT_EQ(reply.str, "OK");
  ASSERT_TRUE(cli.Execute({"GET", "foo"}, &reply).ok());
  EXPECT_EQ(reply.str, "1");
  // The warmed map routed everything directly.
  EXPECT_EQ(cli.moved_redirects(), 0u);
  EXPECT_EQ(cli.ask_redirects(), 0u);

  // The values really landed on their own shards.
  EXPECT_EQ(cluster.shard2.engine->keyspace().Size(), 1u);
  EXPECT_EQ(cluster.shard1.engine->keyspace().Size(), 1u);
}

TEST(ClusterClientTest, FollowsMovedAndRefreshesMapAfterFlip) {
  TwoShards cluster;
  const uint16_t slot = KeyHashSlot(Slice("bar"));  // 5061, shard one
  ASSERT_LT(slot, 8192);

  // Warm a client's map, then move the slot out from under it.
  ClusterClient stale({Ep(cluster.port1)});
  ASSERT_TRUE(stale.RefreshSlotMap().ok());
  resp::Value reply;
  ASSERT_TRUE(stale.Execute({"SET", "bar", "here"}, &reply).ok());
  ASSERT_EQ(reply.str, "OK");
  EXPECT_EQ(stale.moved_redirects(), 0u) << "warm map routes directly";

  ClusterClient admin({Ep(cluster.port1)});
  ASSERT_TRUE(admin
                  .Execute({"CLUSTER", "SETSLOT", std::to_string(slot),
                            "MIGRATE", "s2", Ep(cluster.port2)},
                          &reply)
                  .ok());
  ASSERT_EQ(reply.str, "OK");
  // Wait for the flip to commit (fresh map shows the new owner).
  bool flipped = false;
  for (int i = 0; i < 500 && !flipped; ++i) {
    ClusterClient probe({Ep(cluster.port1)});
    flipped = probe.RefreshSlotMap().ok() &&
              probe.EndpointForSlot(slot) == Ep(cluster.port2);
    if (!flipped) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(flipped) << "migration never committed";

  // The stale client still believes shard one owns the slot: its next read
  // hits shard one, gets -MOVED, follows it, and updates the cached map.
  ASSERT_EQ(stale.EndpointForSlot(slot), Ep(cluster.port1));
  ASSERT_TRUE(stale.Execute({"GET", "bar"}, &reply).ok());
  EXPECT_EQ(reply.str, "here");
  EXPECT_GE(stale.moved_redirects(), 1u);
  EXPECT_EQ(stale.EndpointForSlot(slot), Ep(cluster.port2));
}

TEST(ClusterClientTest, HopBudgetBoundsDisagreeingTopology) {
  // Two shards that BOTH claim the other owns the upper half: every MOVED
  // points at the other node, forever. The hop budget must turn that spin
  // into an error.
  const uint16_t port1 = PickFreePort(), port2 = PickFreePort();
  ClusterShard shard1(port1, "s1", "0-8191",
                      {{"s2", Ep(port2), "8192-16383"}});
  ClusterShard shard2(port2, "s2", "0-8191",
                      {{"s1", Ep(port1), "8192-16383"}});

  ClusterClient::Options opt;
  opt.max_hops = 4;
  ClusterClient cli({Ep(port1)}, opt);
  resp::Value reply;
  const Status s = cli.Execute({"SET", "foo", "x"}, &reply);  // upper half
  EXPECT_FALSE(s.ok());
  EXPECT_GE(cli.moved_redirects(), 4u);
}

TEST(ClusterClientTest, StaleMapRetriesThroughLiveMigration) {
  TwoShards cluster;
  // All keys share one hash tag -> one slot in shard one's range.
  const uint16_t slot = KeyHashSlot(Slice("{m1}"));
  ASSERT_LT(slot, 8192);

  ClusterClient writer({Ep(cluster.port1)});
  resp::Value reply;
  const int kKeys = 40;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(writer
                    .Execute({"SET", "{m1}k" + std::to_string(i),
                              "v" + std::to_string(i)},
                            &reply)
                    .ok());
    ASSERT_EQ(reply.str, "OK");
  }

  // A second client warms its map BEFORE the migration: it will keep
  // routing to shard one with a stale map while ownership moves.
  ClusterClient stale({Ep(cluster.port1)});
  ASSERT_TRUE(stale.RefreshSlotMap().ok());
  ASSERT_EQ(stale.EndpointForSlot(slot), Ep(cluster.port1));

  // Kick the migration (gate-less servers: batches stream and the flip
  // commits without a transaction log) and immediately keep operating on
  // the slot through the stale client.
  ASSERT_TRUE(writer
                  .Execute({"CLUSTER", "SETSLOT", std::to_string(slot),
                            "MIGRATE", "s2", Ep(cluster.port2)},
                          &reply)
                  .ok());
  ASSERT_EQ(reply.str, "OK") << "migration must start";

  // Operate through the whole migration window: every op must succeed via
  // ASK/TRYAGAIN/MOVED handling, whatever phase it lands in.
  for (int round = 0; round < 200; ++round) {
    const std::string key = "{m1}k" + std::to_string(round % kKeys);
    ASSERT_TRUE(stale.Execute({"GET", key}, &reply).ok());
    ASSERT_EQ(reply.str, "v" + std::to_string(round % kKeys))
        << "round " << round;
    if (stale.EndpointForSlot(slot) == Ep(cluster.port2)) break;
  }

  // The flip must eventually commit and the stale client must have learned
  // the new owner via -MOVED (or -ASK mid-flight first).
  for (int i = 0; i < 200 && stale.EndpointForSlot(slot) != Ep(cluster.port2);
       ++i) {
    ASSERT_TRUE(stale.Execute({"GET", "{m1}k0"}, &reply).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(stale.EndpointForSlot(slot), Ep(cluster.port2));
  EXPECT_GE(stale.moved_redirects(), 1u);

  // Every key survived the move with its value intact, served by shard two.
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(
        stale.Execute({"GET", "{m1}k" + std::to_string(i)}, &reply).ok());
    EXPECT_EQ(reply.str, "v" + std::to_string(i));
  }
  EXPECT_EQ(cluster.shard1.engine->keyspace().Size(), 0u)
      << "source must have deleted every migrated key";
}

// ---------------------------------------------------------------------------
// RespConn

constexpr uint64_t kDeadlineMs = 5000;

uint64_t ElapsedMs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

TEST(RespConnTest, LocalhostAndDottedEndpointsBothConnect) {
  const uint16_t port = PickFreePort();
  ClusterShard shard(port, "s1", "0-16383", {});
  for (const std::string& ep :
       {"localhost:" + std::to_string(port), Ep(port)}) {
    RespConn conn;
    ASSERT_TRUE(conn.Connect(ep, kDeadlineMs)) << ep;
    resp::Value reply;
    ASSERT_TRUE(conn.RoundTrip({"PING"}, &reply)) << ep;
    EXPECT_EQ(reply.str, "PONG") << ep;
  }
}

TEST(RespConnTest, PipelineInOneWriteAnswersInOrder) {
  const uint16_t port = PickFreePort();
  ClusterShard shard(port, "s1", "0-16383", {});
  RespConn conn(port, kDeadlineMs);
  ASSERT_TRUE(conn.connected());
  constexpr int kCommands = 200;
  std::string wire;
  for (int i = 0; i < kCommands; ++i) {
    wire += resp::EncodeCommand({"ECHO", std::to_string(i)});
  }
  ASSERT_TRUE(conn.Send(wire));
  const std::vector<resp::Value> replies = conn.ReadReplies(kCommands);
  ASSERT_EQ(replies.size(), static_cast<size_t>(kCommands));
  for (int i = 0; i < kCommands; ++i) {
    EXPECT_EQ(replies[static_cast<size_t>(i)].str, std::to_string(i));
  }
}

TEST(RespConnTest, ReadFailsWithinItsDeadlineOnASilentListener) {
  // The kernel completes the handshake on a listening socket that never
  // accepts, so connect and send succeed and only the read waits.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(sa);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  ASSERT_EQ(::listen(listener, 4), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&sa), &len),
            0);

  RespConn conn;
  ASSERT_TRUE(conn.Connect(ntohs(sa.sin_port), /*deadline_ms=*/300));
  ASSERT_TRUE(conn.SendCommand({"PING"}));
  const auto t0 = std::chrono::steady_clock::now();
  resp::Value reply;
  EXPECT_FALSE(conn.ReadReply(&reply));
  const uint64_t waited = ElapsedMs(t0);
  EXPECT_GE(waited, 250u);
  EXPECT_LT(waited, 3000u);
  ::close(listener);
}

TEST(RespConnTest, ReconnectDropsBytesOfTheClosedConnection) {
  const uint16_t port = PickFreePort();
  ClusterShard shard(port, "s1", "0-16383", {});
  RespConn conn(port, kDeadlineMs);
  ASSERT_TRUE(conn.connected());
  // Three replies arrive together and the server closes after QUIT; the
  // first read takes all of them off the socket and returns one.
  ASSERT_TRUE(conn.Send(resp::EncodeCommand({"ECHO", "first"}) +
                        resp::EncodeCommand({"ECHO", "stale"}) +
                        resp::EncodeCommand({"QUIT"})));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  resp::Value reply;
  ASSERT_TRUE(conn.ReadReply(&reply));
  EXPECT_EQ(reply.str, "first");

  ASSERT_TRUE(conn.Connect(port, kDeadlineMs));
  ASSERT_TRUE(conn.RoundTrip({"ECHO", "fresh"}, &reply));
  EXPECT_EQ(reply.str, "fresh");
}

TEST(RespConnTest, MalformedEndpointsFailAtOnce) {
  for (const char* ep : {"", "nohost", "h:0", "h:70000", "127.0.0.1:0",
                         "127.0.0.1:70000", "127.0.0.1:", "127.0.0.1:80x",
                         "localhost:-1", "300.0.0.1:80"}) {
    std::string host;
    uint16_t port = 0;
    EXPECT_FALSE(RespConn::ParseEndpoint(ep, &host, &port)) << ep;
    RespConn conn;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(conn.Connect(ep, kDeadlineMs)) << ep;
    EXPECT_LT(ElapsedMs(t0), 100u) << ep;
    EXPECT_FALSE(conn.connected()) << ep;
    EXPECT_EQ(conn.fd(), -1) << ep;
  }
  std::string host;
  uint16_t port = 0;
  ASSERT_TRUE(RespConn::ParseEndpoint("localhost:6379", &host, &port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 6379);
}

}  // namespace
}  // namespace memdb
