// Replication & recovery subsystem tests (src/replication): the
// FsObjectStore blob store (crash-atomic Put, CRC trailer, tmp exclusion),
// SnapshotStore naming/manifest conventions, effect-batch replay,
// ReplayLogTail checksum-chain verification against a real 3-node txlogd
// group, the log-fed replica RespServer (convergence, -READONLY, WAIT 0,
// link staleness), the off-box snapshot cycle feeding --restore, and the
// bounded dedup table. Everything runs real daemons' machinery in-process
// over 127.0.0.1 sockets.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chaos/process.h"
#include "client/resp_conn.h"
#include "common/coding.h"
#include "common/crc.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "engine/snapshot.h"
#include "net/server.h"
#include "replication/offbox_runner.h"
#include "replication/recovery.h"
#include "replication/snapshot_store.h"
#include "resp/resp.h"
#include "rpc/loop.h"
#include "storage/fs_object_store.h"
#include "txlog/remote_client.h"
#include "txlog/rpc_wire.h"
#include "txlog/service.h"

namespace memdb {
namespace {

using chaos::TempDir;
using client::RespConn;
using resp::Value;

constexpr uint64_t kDeadlineMs = 5000;

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// In-process 3-replica txlogd group (same shape as rpc_test's LogGroup).
struct LogGroup {
  explicit LogGroup(size_t n, size_t dedup_max = 65536) {
    for (size_t i = 0; i < n; ++i) {
      txlog::LogService::Options opt;
      opt.node_id = i + 1;
      opt.listen_port = 0;
      opt.fsync = false;
      opt.heartbeat_ms = 20;
      opt.election_min_ms = 50;
      opt.election_max_ms = 120;
      opt.raft_rpc_timeout_ms = 100;
      opt.dedup_max_entries = dedup_max;
      services.push_back(std::make_unique<txlog::LogService>(opt));
      EXPECT_TRUE(services.back()->Start().ok());
    }
    std::vector<std::pair<uint64_t, std::string>> membership;
    for (size_t i = 0; i < n; ++i) {
      endpoints.push_back("127.0.0.1:" + std::to_string(services[i]->port()));
      membership.emplace_back(i + 1, endpoints.back());
    }
    for (auto& s : services) s->SetPeers(membership);
  }
  ~LogGroup() {
    for (auto& s : services) {
      if (s != nullptr) s->Stop();
    }
  }

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

  void StopAll() {
    for (auto& s : services) {
      if (s != nullptr) s->Stop();
      s.reset();
    }
  }

  std::vector<std::unique_ptr<txlog::LogService>> services;
  std::vector<std::string> endpoints;
};

struct ClientFixture {
  explicit ClientFixture(const std::vector<std::string>& endpoints,
                         uint64_t writer_id = 77) {
    EXPECT_TRUE(loop.Start().ok());
    txlog::RemoteClient::Options opt;
    opt.writer_id = writer_id;
    opt.rpc_timeout_ms = 250;
    client =
        std::make_unique<txlog::RemoteClient>(&loop, endpoints, opt, &registry);
  }
  ~ClientFixture() {
    client->Shutdown();
    loop.Stop();
  }

  uint64_t Append(txlog::RecordType type, const std::string& payload) {
    txlog::LogRecord r;
    r.type = type;
    r.payload = payload;
    uint64_t index = 0;
    const Status s = client->AppendSync(txlog::wire::kUnconditional,
                                        std::move(r), &index);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return index;
  }

  uint64_t AppendData(const std::string& payload) {
    return Append(txlog::RecordType::kData, payload);
  }

  uint64_t AppendChecksum(uint64_t running) {
    std::string payload;
    PutFixed64(&payload, running);
    return Append(txlog::RecordType::kChecksum, payload);
  }

  MetricsRegistry registry;
  rpc::LoopThread loop;
  std::unique_ptr<txlog::RemoteClient> client;
};

double ServerMetric(uint16_t port, const std::string& series) {
  RespConn c(port, kDeadlineMs);
  const Value v = c.RoundTrip({"METRICS"});
  double out = 0;
  MetricsRegistry::ParseSeries(v.str, series, &out);
  return out;
}

// Same wire format as Node/RespServer effect batches.
std::string EncodeBatch(const std::vector<std::vector<std::string>>& effects) {
  std::string out;
  PutLengthPrefixed(&out, "7.0.7");
  for (const auto& argv : effects) {
    PutVarint64(&out, argv.size());
    for (const auto& a : argv) PutLengthPrefixed(&out, a);
  }
  return out;
}

std::string GetKey(engine::Engine* engine, const std::string& key) {
  engine::ExecContext ctx;
  const Value v = engine->Execute({"GET", key}, &ctx);
  return v.type == resp::Type::kBulkString ? v.str : "";
}

// ---------------------------------------------------------------------------
// FsObjectStore

TEST(FsObjectStoreTest, PutGetRoundTripAndOverwrite) {
  TempDir dir;
  storage::FsObjectStore store(dir.path, {.fsync = false});
  ASSERT_TRUE(store.Open().ok());

  ASSERT_TRUE(store.Put("snap/shard-0/a", Slice("hello")).ok());
  std::string data;
  ASSERT_TRUE(store.Get("snap/shard-0/a", &data).ok());
  EXPECT_EQ(data, "hello");

  // Put replaces atomically; readers see old or new, never a mix.
  ASSERT_TRUE(store.Put("snap/shard-0/a", Slice("world!")).ok());
  ASSERT_TRUE(store.Get("snap/shard-0/a", &data).ok());
  EXPECT_EQ(data, "world!");

  EXPECT_TRUE(store.Get("snap/shard-0/missing", &data).IsNotFound());
  EXPECT_TRUE(store.Delete("snap/shard-0/a").ok());
  EXPECT_TRUE(store.Get("snap/shard-0/a", &data).IsNotFound());
}

TEST(FsObjectStoreTest, DetectsCorruptedBlob) {
  TempDir dir;
  storage::FsObjectStore store(dir.path, {.fsync = false});
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.Put("blob", Slice("payload-bytes")).ok());

  // Flip one payload byte behind the store's back.
  const std::string path = dir.path + "/blob";
  std::fstream f(path,
                 std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekp(2);
  f.put('X');
  f.close();

  std::string data;
  EXPECT_TRUE(store.Get("blob", &data).IsCorruption());
}

TEST(FsObjectStoreTest, ListSortsAndSkipsInProgressUploads) {
  TempDir dir;
  storage::FsObjectStore store(dir.path, {.fsync = false});
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.Put("p/ccc", Slice("3")).ok());
  ASSERT_TRUE(store.Put("p/aaa", Slice("1")).ok());
  ASSERT_TRUE(store.Put("p/bbb", Slice("2")).ok());
  ASSERT_TRUE(store.Put("q/zzz", Slice("other prefix")).ok());

  // A crash mid-Put leaves only a tmp sibling; List must not surface it.
  std::ofstream tmp(dir.path + "/p/.tmp-crashed-upload", std::ios::binary);
  tmp << "torn";
  tmp.close();

  std::vector<std::string> keys;
  ASSERT_TRUE(store.List("p/", &keys).ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"p/aaa", "p/bbb", "p/ccc"}));

  keys.clear();
  ASSERT_TRUE(store.List("nope/", &keys).ok());
  EXPECT_TRUE(keys.empty());
}

TEST(FsObjectStoreTest, RejectsKeysThatEscapeTheRoot) {
  TempDir dir;
  storage::FsObjectStore store(dir.path, {.fsync = false});
  ASSERT_TRUE(store.Open().ok());
  EXPECT_FALSE(store.Put("../evil", Slice("x")).ok());
  EXPECT_FALSE(store.Put("a/../../evil", Slice("x")).ok());
  EXPECT_FALSE(store.Put("a//b", Slice("x")).ok());
  EXPECT_FALSE(store.Put("", Slice("x")).ok());
  std::string data;
  EXPECT_FALSE(store.Get("../evil", &data).ok());
}

// A Put whose directory fsync fails is not done: the blob may be renamed
// into place, but a crash can still lose it, and snapshotd trims the log
// only behind an upload that returned OK. Provoked in a store directory
// its writer may write and search but not open (mode 0300), written by a
// child that runs unprivileged, since root opens any directory. The child
// tries a key in the directory itself (the rename succeeds, the sync of
// its parent fails) and a key in a new subdirectory (the mkdir succeeds,
// the sync that makes it durable fails), twice: the failed Put removes the
// subdirectory again, so the retry does not find it and skip its sync.
TEST(FsObjectStoreTest, PutFailsWhenADirectorySyncFails) {
  TempDir dir;
  const std::string root = dir.path + "/store";
  ASSERT_EQ(::mkdir(root.c_str(), 0300), 0);
  if (::getuid() == 0) {
    ASSERT_EQ(::chmod(dir.path.c_str(), 0711), 0);
    ASSERT_EQ(::chown(root.c_str(), 65534, 65534), 0);
  }
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    if (::getuid() == 0 && (::setgid(65534) != 0 || ::setuid(65534) != 0)) {
      ::_exit(4);
    }
    storage::FsObjectStore store(root);
    const Status in_root = store.Put("blob", Slice("payload"));
    const Status in_new_dir = store.Put("snap/blob", Slice("payload"));
    const Status retry = store.Put("snap/blob2", Slice("payload"));
    ::_exit((in_root.code() == StatusCode::kInternal ? 0 : 1) |
            (in_new_dir.code() == StatusCode::kInternal ? 0 : 2) |
            (retry.code() == StatusCode::kInternal ? 0 : 4));
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  struct stat st;
  EXPECT_EQ(::stat((root + "/blob").c_str(), &st), 0);
  EXPECT_NE(::stat((root + "/snap").c_str(), &st), 0);
  ::chmod(root.c_str(), 0700);  // so TempDir can remove it
}

// ---------------------------------------------------------------------------
// SnapshotStore

TEST(SnapshotStoreTest, ManifestRoundTrip) {
  replication::SnapshotManifest m;
  m.object_key = "snap/shard-0/00000000000000000042";
  m.log_position = 42;
  m.log_running_checksum = 0xdeadbeefcafef00dull;
  m.engine_version = "7.0.7";
  m.created_at_ms = 1234567;

  replication::SnapshotManifest out;
  ASSERT_TRUE(replication::SnapshotManifest::Decode(Slice(m.Encode()), &out));
  EXPECT_EQ(out.object_key, m.object_key);
  EXPECT_EQ(out.log_position, m.log_position);
  EXPECT_EQ(out.log_running_checksum, m.log_running_checksum);
  EXPECT_EQ(out.engine_version, m.engine_version);
  EXPECT_EQ(out.created_at_ms, m.created_at_ms);
}

TEST(SnapshotStoreTest, GetLatestPrefersNewestAndSurvivesLostManifest) {
  TempDir dir;
  storage::FsObjectStore fs(dir.path, {.fsync = false});
  ASSERT_TRUE(fs.Open().ok());
  replication::SnapshotStore store(&fs, "shard-0");

  std::string blob;
  replication::SnapshotManifest manifest;
  EXPECT_TRUE(store.GetLatest(&blob, &manifest).IsNotFound());

  engine::Engine eng;
  engine::ExecContext ctx;
  eng.Execute({"SET", "k", "old"}, &ctx);
  engine::SnapshotMeta meta;
  meta.log_position = 10;
  meta.log_running_checksum = 111;
  ASSERT_TRUE(
      store.PutSnapshot(SerializeSnapshot(eng.keyspace(), meta), meta).ok());

  eng.Execute({"SET", "k", "new"}, &ctx);
  meta.log_position = 25;
  meta.log_running_checksum = 222;
  const std::string newer = SerializeSnapshot(eng.keyspace(), meta);
  ASSERT_TRUE(store.PutSnapshot(newer, meta).ok());

  ASSERT_TRUE(store.GetLatest(&blob, &manifest).ok());
  EXPECT_EQ(blob, newer);
  EXPECT_EQ(manifest.log_position, 25u);
  EXPECT_EQ(manifest.log_running_checksum, 222u);

  // A store whose manifest write was lost still recovers: GetLatest falls
  // back to listing the zero-padded snap/ prefix.
  ASSERT_TRUE(fs.Delete("manifest/shard-0").ok());
  blob.clear();
  ASSERT_TRUE(store.GetLatest(&blob, &manifest).ok());
  EXPECT_EQ(blob, newer);
  EXPECT_EQ(manifest.log_position, 25u);
}

// ---------------------------------------------------------------------------
// Effect-batch replay

TEST(RecoveryTest, ApplyEffectBatchAppliesEveryEffect) {
  engine::Engine eng;
  const std::string batch =
      EncodeBatch({{"SET", "a", "1"}, {"SET", "b", "2"}, {"DEL", "a"}});
  EXPECT_TRUE(replication::ApplyEffectBatch(&eng, Slice(batch), 1000));
  EXPECT_EQ(GetKey(&eng, "a"), "");
  EXPECT_EQ(GetKey(&eng, "b"), "2");

  // Truncated payload is rejected.
  EXPECT_FALSE(replication::ApplyEffectBatch(
      &eng, Slice(batch.data(), batch.size() - 3), 1000));
  // Zero-argc effect is rejected.
  std::string zero;
  PutLengthPrefixed(&zero, "7.0.7");
  PutVarint64(&zero, 0);
  EXPECT_FALSE(replication::ApplyEffectBatch(&eng, Slice(zero), 1000));
}

// Group commit merges queued batches into one record: applying the merged
// batch must leave the keyspace its parts leave when applied in order.
TEST(RecoveryTest, AppendEffectBatchMergesInOrder) {
  const std::vector<std::string> parts = {
      EncodeBatch({{"SET", "a", "1"}, {"SET", "b", "1"}}),
      EncodeBatch({{"DEL", "a"}, {"RPUSH", "l", "x", "y"}}),
      EncodeBatch({{"SET", "a", "2"}, {"INCR", "n"}, {"LPOP", "l"}}),
      EncodeBatch({{"INCR", "n"}, {"SET", "b", "3"}})};
  std::string merged = parts[0];
  for (size_t i = 1; i < parts.size(); ++i) {
    ASSERT_TRUE(replication::AppendEffectBatch(&merged, Slice(parts[i])));
  }
  engine::Engine one_by_one;
  for (const std::string& p : parts) {
    ASSERT_TRUE(replication::ApplyEffectBatch(&one_by_one, Slice(p), 1000));
  }
  engine::Engine at_once;
  ASSERT_TRUE(replication::ApplyEffectBatch(&at_once, Slice(merged), 1000));
  EXPECT_EQ(engine::SerializeSnapshot(one_by_one.keyspace(), {}),
            engine::SerializeSnapshot(at_once.keyspace(), {}));
  EXPECT_EQ(GetKey(&at_once, "a"), "2");
  EXPECT_EQ(GetKey(&at_once, "b"), "3");
  EXPECT_EQ(GetKey(&at_once, "n"), "2");

  // Refused, leaving the batch untouched: a malformed prefix on either
  // side, or a batch from another engine version.
  const std::string before = merged;
  std::string other_version;
  PutLengthPrefixed(&other_version, "6.2.0");
  PutVarint64(&other_version, 2);
  PutLengthPrefixed(&other_version, "DEL");
  PutLengthPrefixed(&other_version, "a");
  EXPECT_FALSE(replication::AppendEffectBatch(&merged, Slice(other_version)));
  EXPECT_FALSE(replication::AppendEffectBatch(&merged, Slice("\x7fshort")));
  EXPECT_FALSE(replication::AppendEffectBatch(&merged, Slice()));
  EXPECT_EQ(merged, before);
  std::string malformed = "\x7fshort";
  EXPECT_FALSE(replication::AppendEffectBatch(&malformed, Slice(parts[0])));
  EXPECT_EQ(malformed, "\x7fshort");
}

TEST(RecoveryTest, ReplayLogTailConvergesAndVerifiesChecksumChain) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);
  ClientFixture fx(group.endpoints);

  // Producer side of the §7.2.1 chain: CRC64 over kData payloads in log
  // order, one kChecksum record every 3 data records.
  uint64_t running = 0;
  int data_records = 0, checksum_records = 0;
  for (int i = 0; i < 10; ++i) {
    const std::string payload = EncodeBatch(
        {{"SET", "key" + std::to_string(i), "val" + std::to_string(i)}});
    fx.AppendData(payload);
    running = Crc64(running, Slice(payload));
    ++data_records;
    if (data_records % 3 == 0) {
      fx.AppendChecksum(running);
      ++checksum_records;
    }
  }

  engine::Engine eng;
  replication::RestoreResult res;
  const Status s = ReplayLogTail(fx.client.get(), &eng, &res, 0);
  ASSERT_TRUE(s.ok()) << s.ToString();
  // >= : the leader's election-barrier kNoop record also counts as replayed.
  EXPECT_GE(res.entries_replayed, uint64_t(data_records + checksum_records));
  EXPECT_EQ(res.checksum_records_verified, uint64_t(checksum_records));
  EXPECT_EQ(res.running_checksum, running);
  EXPECT_GE(res.applied_index, uint64_t(data_records + checksum_records));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(GetKey(&eng, "key" + std::to_string(i)),
              "val" + std::to_string(i));
  }
}

TEST(RecoveryTest, ReplayLogTailRejectsCorruptChecksumChain) {
  const std::string data = EncodeBatch({{"SET", "x", "1"}});
  std::string chain;
  PutFixed64(&chain, Crc64(0, Slice(data)));
  std::string wrong;
  PutFixed64(&wrong, 0x1badc0de);  // disagrees with the recomputed chain
  // A checksum record is exactly Fixed64(chain): a truncated one, or the
  // right value with bytes after it, is corrupt too.
  for (const std::string& checksum :
       {wrong, chain.substr(0, 4), chain + std::string(4, '\0')}) {
    SCOPED_TRACE(checksum.size());
    LogGroup group(3);
    ASSERT_GE(group.WaitForLeader(), 0);
    ClientFixture fx(group.endpoints);
    fx.AppendData(data);
    fx.Append(txlog::RecordType::kChecksum, checksum);

    engine::Engine eng;
    replication::RestoreResult res;
    EXPECT_TRUE(ReplayLogTail(fx.client.get(), &eng, &res, 0).IsCorruption());
    EXPECT_EQ(res.checksum_records_verified, 0u);
  }
}

// Seeded: random effect-batch streams with a checksum record after every k
// data records, dumped at a random cut through the rehearsed serializer.
// Restoring the dump and replaying the rest must reach the keyspace and
// chain a replay from index 1 reaches, whatever the cut.
TEST(RecoveryTest, RehearsedDumpAtAnyCutReplaysLikeAFullReplay) {
  const std::vector<std::string> keys = {"a", "b", "c", "d", "e"};
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const uint64_t every = rng.UniformRange(1, 6);
    std::vector<txlog::LogEntry> log;
    uint64_t running = 0;
    uint64_t data_records = 0;
    const uint64_t records = rng.UniformRange(1, 60);
    for (uint64_t i = 0; i < records; ++i) {
      std::vector<std::vector<std::string>> effects;
      for (uint64_t n = rng.UniformRange(1, 4); n > 0; --n) {
        const std::string& key = keys[rng.Uniform(keys.size())];
        const std::string v = std::to_string(rng.Uniform(100));
        switch (rng.Uniform(6)) {
          case 0: effects.push_back({"SET", key, v}); break;
          case 1: effects.push_back({"DEL", key}); break;
          case 2: effects.push_back({"RPUSH", "l" + key, v}); break;
          case 3: effects.push_back({"HSET", "h" + key, v, key}); break;
          case 4: effects.push_back({"ZADD", "z" + key, v, key}); break;
          default: effects.push_back({"PEXPIREAT", key, "9000000000000"});
        }
      }
      txlog::LogEntry e;
      e.index = log.size() + 1;
      e.record.payload = EncodeBatch(effects);
      running = Crc64(running, Slice(e.record.payload));
      log.push_back(e);
      if (++data_records % every == 0) {
        txlog::LogEntry chk;
        chk.index = log.size() + 1;
        chk.record.type = txlog::RecordType::kChecksum;
        PutFixed64(&chk.record.payload, running);
        log.push_back(chk);
      }
    }

    engine::Engine full;
    uint64_t full_chain = 0;
    for (const txlog::LogEntry& e : log) {
      ASSERT_TRUE(
          replication::ReplayEntry(e, 1000, &full, &full_chain).ok());
    }
    EXPECT_EQ(full_chain, running);

    const size_t cut = rng.Uniform(log.size() + 1);
    engine::Engine head;
    engine::SnapshotMeta meta;
    for (size_t i = 0; i < cut; ++i) {
      ASSERT_TRUE(replication::ReplayEntry(log[i], 1000, &head,
                                           &meta.log_running_checksum)
                      .ok());
    }
    meta.log_position = cut;
    std::string blob;
    ASSERT_TRUE(
        engine::SerializeRehearsedSnapshot(head.keyspace(), meta, &blob).ok());

    engine::Engine restored;
    engine::SnapshotMeta loaded;
    ASSERT_TRUE(engine::DeserializeSnapshot(Slice(blob), &restored.keyspace(),
                                            &loaded)
                    .ok());
    uint64_t chain = loaded.log_running_checksum;
    for (size_t i = loaded.log_position; i < log.size(); ++i) {
      ASSERT_TRUE(
          replication::ReplayEntry(log[i], 1000, &restored, &chain).ok());
    }
    EXPECT_EQ(chain, full_chain);
    EXPECT_EQ(engine::SerializeSnapshot(restored.keyspace(), {}),
              engine::SerializeSnapshot(full.keyspace(), {}));
  }
}

TEST(RecoveryTest, ReplayLogTailRejectsTrimmedHistory) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);
  ClientFixture fx(group.endpoints);

  uint64_t last = 0;
  for (int i = 0; i < 8; ++i) {
    last = fx.AppendData(EncodeBatch({{"SET", "t" + std::to_string(i), "v"}}));
  }
  uint64_t first = 0;
  ASSERT_TRUE(fx.client->TrimSync(last - 2, &first).ok());
  EXPECT_GT(first, 1u);

  // A cold replay (no snapshot) can no longer reach index 1: the snapshot
  // store, not the log, is now the only path to the trimmed prefix.
  engine::Engine eng;
  replication::RestoreResult res;
  EXPECT_TRUE(ReplayLogTail(fx.client.get(), &eng, &res, 0).IsCorruption());
}

// ---------------------------------------------------------------------------
// Log-fed replica server

// Polls the replica until `key` reads back `want` or the deadline passes.
bool WaitForKey(uint16_t port, const std::string& key, const std::string& want,
                int timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    RespConn c(port, kDeadlineMs);
    const Value v = c.RoundTrip({"GET", key});
    if (v.type == resp::Type::kBulkString && v.str == want) return true;
    SleepMs(20);
  }
  return false;
}

TEST(ReplicaServerTest, FollowsLogServesReadsRejectsWrites) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);

  net::ServerConfig primary_cfg;
  primary_cfg.port = 0;
  primary_cfg.loop_timeout_ms = 10;
  primary_cfg.txlog_endpoints = group.endpoints;
  primary_cfg.txlog_checksum_every = 4;  // exercise chain injection
  primary_cfg.txlog_tail_poll_ms = 50;
  engine::Engine primary_engine;
  net::RespServer primary(&primary_engine, primary_cfg);
  ASSERT_TRUE(primary.Start().ok());

  net::ServerConfig replica_cfg;
  replica_cfg.port = 0;
  replica_cfg.loop_timeout_ms = 10;
  replica_cfg.replica_of_log = group.endpoints;
  replica_cfg.replica_poll_wait_ms = 50;
  engine::Engine replica_engine;
  net::RespServer replica(&replica_engine, replica_cfg);
  ASSERT_TRUE(replica.Start().ok());

  {
    RespConn c(primary.port(), kDeadlineMs);
    ASSERT_TRUE(c.connected());
    for (int i = 1; i <= 20; ++i) {
      EXPECT_EQ(c.RoundTrip({"SET", "k" + std::to_string(i),
                             "v" + std::to_string(i)}),
                Value::Simple("OK"));
    }
  }

  // Replica converges on the acked writes by following the log.
  ASSERT_TRUE(WaitForKey(replica.port(), "k20", "v20"));
  EXPECT_TRUE(WaitForKey(replica.port(), "k1", "v1"));

  {
    RespConn c(replica.port(), kDeadlineMs);
    // Local writes are refused (§4.2.1: replicas consume, never produce).
    const Value err = c.RoundTrip({"SET", "nope", "x"});
    ASSERT_EQ(err.type, resp::Type::kError);
    EXPECT_EQ(err.str.rfind("READONLY", 0), 0u) << err.str;
    // The replica still serves reads after refusing the write.
    EXPECT_EQ(c.RoundTrip({"GET", "k1"}), Value::Bulk("v1"));
    // WAIT answers 0: a replica replicates to no one.
    EXPECT_EQ(c.RoundTrip({"WAIT", "0", "100"}), Value::Integer(0));

    const Value info = c.RoundTrip({"INFO"});
    ASSERT_EQ(info.type, resp::Type::kBulkString);
    EXPECT_NE(info.str.find("role:replica"), std::string::npos);
    EXPECT_NE(info.str.find("replica_link_status:up"), std::string::npos);
    EXPECT_NE(info.str.find("replica_lag_records:"), std::string::npos);
  }

  // Follow-along checksum verification saw the injected records and agreed
  // with every one of them.
  EXPECT_EQ(ServerMetric(replica.port(), "repl_checksum_failures_total"), 0);
  EXPECT_GT(ServerMetric(replica.port(), "repl_entries_applied_total"), 20);
  EXPECT_GE(ServerMetric(primary.port(), "txlog_checksum_records_total"), 5);

  // Every entry the replay step rejects is counted, and the replica keeps
  // applying: a checksum record cut to 4 bytes and a batch that does not
  // decode count one each, and the write after them still arrives.
  {
    ClientFixture fx(group.endpoints);
    fx.Append(txlog::RecordType::kChecksum, std::string(4, '\0'));
    const std::string batch = EncodeBatch({{"SET", "x", "1"}});
    fx.AppendData(batch.substr(0, batch.size() - 1));
    fx.AppendData(EncodeBatch({{"SET", "after", "1"}}));
  }
  ASSERT_TRUE(WaitForKey(replica.port(), "after", "1"));
  EXPECT_EQ(ServerMetric(replica.port(), "repl_checksum_failures_total"), 2);

  // Log group lost => the replica reports a down link instead of serving
  // silently-stale data as fresh.
  group.StopAll();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool link_down = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (ServerMetric(replica.port(), "repl_link_up") == 0) {
      link_down = true;
      break;
    }
    SleepMs(50);
  }
  EXPECT_TRUE(link_down);
  // Reads still work (stale-but-available), and INFO says the link is down.
  RespConn c(replica.port(), kDeadlineMs);
  EXPECT_EQ(c.RoundTrip({"GET", "k1"}), Value::Bulk("v1"));
  const Value info = c.RoundTrip({"INFO"});
  EXPECT_NE(info.str.find("replica_link_status:down"), std::string::npos);

  replica.Stop();
  primary.Stop();
}

// ---------------------------------------------------------------------------
// Off-box snapshot cycle + --restore

TEST(OffboxTest, CycleProducesRestorableSnapshotAndTrimsLog) {
  TempDir store_dir;
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);

  net::ServerConfig primary_cfg;
  primary_cfg.port = 0;
  primary_cfg.loop_timeout_ms = 10;
  primary_cfg.txlog_endpoints = group.endpoints;
  primary_cfg.txlog_checksum_every = 4;
  engine::Engine primary_engine;
  net::RespServer primary(&primary_engine, primary_cfg);
  ASSERT_TRUE(primary.Start().ok());

  {
    RespConn c(primary.port(), kDeadlineMs);
    for (int i = 1; i <= 30; ++i) {
      ASSERT_EQ(c.RoundTrip({"SET", "s" + std::to_string(i),
                             "v" + std::to_string(i)}),
                Value::Simple("OK"));
    }
  }

  replication::OffboxRunner::Options opt;
  opt.endpoints = group.endpoints;
  opt.store_dir = store_dir.path;
  opt.fsync = false;
  opt.trim_slack = 4;
  MetricsRegistry offbox_metrics;
  replication::OffboxRunner runner(opt, &offbox_metrics);
  ASSERT_TRUE(runner.Start().ok());

  replication::CycleResult cycle;
  ASSERT_TRUE(runner.RunCycle(&cycle).ok());
  EXPECT_TRUE(cycle.uploaded);
  EXPECT_EQ(cycle.snapshot_position, 0u);  // first cycle is cold
  EXPECT_GE(cycle.applied_index, 30u);
  EXPECT_GT(cycle.snapshot_bytes, 0u);

  // More writes, then an incremental cycle: it restores its own previous
  // snapshot and replays only the tail past it.
  {
    RespConn c(primary.port(), kDeadlineMs);
    for (int i = 31; i <= 40; ++i) {
      ASSERT_EQ(c.RoundTrip({"SET", "s" + std::to_string(i),
                             "v" + std::to_string(i)}),
                Value::Simple("OK"));
    }
  }
  replication::CycleResult cycle2;
  ASSERT_TRUE(runner.RunCycle(&cycle2).ok());
  EXPECT_TRUE(cycle2.uploaded);
  EXPECT_GT(cycle2.snapshot_position, 0u);
  EXPECT_GT(cycle2.applied_index, cycle.applied_index);

  // An idle log yields a no-op cycle, not a redundant upload.
  replication::CycleResult idle;
  ASSERT_TRUE(runner.RunCycle(&idle).ok());
  EXPECT_FALSE(idle.uploaded);
  runner.Stop();

  // The trim hint took effect: a cold replay from index 1 is impossible...
  {
    ClientFixture fx(group.endpoints);
    txlog::wire::ClientReadResponse rsp;
    ASSERT_TRUE(fx.client->ReadSync(1, 16, 0, &rsp).ok());
    EXPECT_GT(rsp.first_index, 1u);
  }

  // ...so recovery MUST come from the snapshot store: a fresh server with
  // --restore + --replica-of-log rebuilds peer-lessly and converges.
  net::ServerConfig restored_cfg;
  restored_cfg.port = 0;
  restored_cfg.loop_timeout_ms = 10;
  restored_cfg.replica_of_log = group.endpoints;
  restored_cfg.replica_poll_wait_ms = 50;
  restored_cfg.restore = true;
  restored_cfg.store_dir = store_dir.path;
  engine::Engine restored_engine;
  net::RespServer restored(&restored_engine, restored_cfg);
  ASSERT_TRUE(restored.Start().ok());

  EXPECT_TRUE(WaitForKey(restored.port(), "s1", "v1"));     // from snapshot
  EXPECT_TRUE(WaitForKey(restored.port(), "s40", "v40"));   // from log tail
  EXPECT_EQ(ServerMetric(restored.port(), "repl_checksum_failures_total"), 0);

  restored.Stop();
  primary.Stop();
}

TEST(OffboxTest, RefusesToUploadWhenRestoreRehearsalFails) {
  // Direct RestoreFromStore on a corrupted blob: flip a byte inside the
  // stored snapshot and watch recovery fail closed instead of serving it.
  TempDir dir;
  storage::FsObjectStore fs(dir.path, {.fsync = false});
  ASSERT_TRUE(fs.Open().ok());
  replication::SnapshotStore snaps(&fs, "shard-0");

  engine::Engine eng;
  engine::ExecContext ctx;
  eng.Execute({"SET", "k", "v"}, &ctx);
  engine::SnapshotMeta meta;
  meta.log_position = 5;
  ASSERT_TRUE(
      snaps.PutSnapshot(SerializeSnapshot(eng.keyspace(), meta), meta).ok());

  const std::string key = replication::SnapshotKey("shard-0", 5);
  std::string blob;
  ASSERT_TRUE(fs.Get(key, &blob).ok());
  blob[blob.size() / 2] ^= 0x40;
  ASSERT_TRUE(fs.Put(key, Slice(blob)).ok());

  engine::Engine fresh;
  replication::RestoreResult res;
  EXPECT_FALSE(RestoreFromStore(&snaps, &fresh, &res).ok());

  // A whole memorydb-snapshotd cycle over the same store fails too: it
  // uploads nothing and sends no trim hint, though the log holds enough
  // history for a trim.
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);
  ClientFixture fx(group.endpoints);
  for (int i = 0; i < 8; ++i) {
    fx.AppendData(EncodeBatch({{"SET", "t" + std::to_string(i), "v"}}));
  }
  auto first_index = [&] {
    txlog::wire::ClientReadResponse rsp;
    EXPECT_TRUE(fx.client->ReadSync(1, 1, 0, &rsp).ok());
    return rsp.first_index;
  };
  const uint64_t first_before = first_index();

  replication::OffboxRunner::Options opt;
  opt.endpoints = group.endpoints;
  opt.store_dir = dir.path;
  opt.fsync = false;
  opt.trim_slack = 1;
  MetricsRegistry offbox_metrics;
  replication::OffboxRunner runner(opt, &offbox_metrics);
  ASSERT_TRUE(runner.Start().ok());
  replication::CycleResult cycle;
  EXPECT_TRUE(runner.RunCycle(&cycle).IsCorruption());
  runner.Stop();
  EXPECT_FALSE(cycle.uploaded);

  std::vector<std::string> stored;
  ASSERT_TRUE(fs.List("snap/shard-0/", &stored).ok());
  ASSERT_FALSE(stored.empty());
  EXPECT_EQ(stored.back(), key);
  EXPECT_EQ(first_index(), first_before);
  EXPECT_EQ(offbox_metrics.GetCounter("offbox_verification_failures_total")
                ->value(),
            1u);
}

// An idle --failover primary still renews its lease with kLease records, so
// its log grows though no kData record arrives. A cycle over a tail of them
// longer than trim_slack uploads and trims anyway, and the log's first
// index moves past the first snapshot; a tail that did not move uploads
// nothing.
TEST(OffboxTest, ALeaseOnlyTailPastTheSlackIsUploadedAndTrimmed) {
  TempDir store_dir;
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);
  ClientFixture fx(group.endpoints);
  for (int i = 0; i < 8; ++i) {
    fx.AppendData(EncodeBatch({{"SET", "k" + std::to_string(i), "v"}}));
  }

  replication::OffboxRunner::Options opt;
  opt.endpoints = group.endpoints;
  opt.store_dir = store_dir.path;
  opt.fsync = false;
  opt.trim_slack = 4;
  MetricsRegistry offbox_metrics;
  replication::OffboxRunner runner(opt, &offbox_metrics);
  ASSERT_TRUE(runner.Start().ok());
  replication::CycleResult first;
  ASSERT_TRUE(runner.RunCycle(&first).ok());
  ASSERT_TRUE(first.uploaded);

  replication::CycleResult idle;
  ASSERT_TRUE(runner.RunCycle(&idle).ok());
  EXPECT_FALSE(idle.uploaded);

  for (uint64_t i = 0; i <= opt.trim_slack; ++i) {
    fx.Append(txlog::RecordType::kLease, "");
  }
  replication::CycleResult leases;
  ASSERT_TRUE(runner.RunCycle(&leases).ok());
  runner.Stop();
  EXPECT_TRUE(leases.uploaded);
  EXPECT_EQ(leases.data_records_replayed, 0u);
  EXPECT_EQ(leases.snapshot_position, first.applied_index);
  EXPECT_EQ(leases.applied_index, first.applied_index + opt.trim_slack + 1);
  EXPECT_GT(leases.trimmed_first_index, first.applied_index);
}

// ---------------------------------------------------------------------------
// Automatic failover (replication::Election driven by the RespServer)

// Polls INFO until it contains `needle` or the deadline passes.
bool WaitForInfo(uint16_t port, const std::string& needle,
                 int timeout_ms = 15000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    RespConn c(port, kDeadlineMs);
    const Value v = c.RoundTrip({"INFO"});
    if (v.type == resp::Type::kBulkString &&
        v.str.find(needle) != std::string::npos) {
      return true;
    }
    SleepMs(25);
  }
  return false;
}

constexpr int kBackoffMs = 400 + 150;  // lease + grace, as FailoverConfig

net::ServerConfig FailoverConfig(const std::vector<std::string>& endpoints,
                                 bool replica, uint64_t writer_id) {
  net::ServerConfig cfg;
  cfg.port = 0;
  cfg.loop_timeout_ms = 10;
  if (replica) {
    cfg.replica_of_log = endpoints;
    cfg.replica_poll_wait_ms = 50;
  } else {
    cfg.txlog_endpoints = endpoints;
    cfg.txlog_tail_poll_ms = 50;
  }
  cfg.txlog_writer_id = writer_id;
  cfg.failover = true;
  cfg.lease_duration_ms = 400;
  cfg.lease_renew_ms = 100;
  cfg.failover_grace_ms = 150;
  return cfg;
}

// For three backoffs, the replica stays a monitoring (or electing) replica
// and never reports role:master.
void ExpectNeverPromotes(uint16_t port) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(3 * kBackoffMs);
  while (std::chrono::steady_clock::now() < deadline) {
    RespConn c(port, kDeadlineMs);
    const Value info = c.RoundTrip({"INFO"});
    ASSERT_EQ(info.type, resp::Type::kBulkString);
    ASSERT_NE(info.str.find("role:replica"), std::string::npos) << info.str;
    ASSERT_TRUE(
        info.str.find("master_failover_state:monitoring") !=
            std::string::npos ||
        info.str.find("master_failover_state:electing") != std::string::npos)
        << info.str;
    SleepMs(50);
  }
  EXPECT_EQ(ServerMetric(port, "failovers_total"), 0);
}

// A lease that can lapse between renewals, and a backoff that ends with the
// lease (no grace), are refused before the server serves anything.
TEST(FailoverTest, StartRefusesALeaseThatCannotHold) {
  const std::vector<std::string> endpoints = {"127.0.0.1:1"};
  for (const bool replica : {false, true}) {
    net::ServerConfig slow_renewal = FailoverConfig(endpoints, replica, 1);
    slow_renewal.lease_renew_ms = slow_renewal.lease_duration_ms;
    net::ServerConfig no_grace = FailoverConfig(endpoints, replica, 1);
    no_grace.failover_grace_ms = 0;
    for (const net::ServerConfig& cfg : {slow_renewal, no_grace}) {
      engine::Engine engine;
      net::RespServer server(&engine, cfg);
      EXPECT_EQ(server.Start().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(FailoverTest, ReplicaPromotesOnPrimaryDeathAndServesWrites) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);

  engine::Engine primary_engine;
  auto primary = std::make_unique<net::RespServer>(
      &primary_engine, FailoverConfig(group.endpoints, false, 1));
  ASSERT_TRUE(primary->Start().ok());

  engine::Engine replica_engine;
  net::RespServer replica(&replica_engine,
                          FailoverConfig(group.endpoints, true, 2));
  ASSERT_TRUE(replica.Start().ok());

  {
    RespConn c(primary->port(), kDeadlineMs);
    ASSERT_TRUE(c.connected());
    for (int i = 1; i <= 10; ++i) {
      ASSERT_EQ(c.RoundTrip({"SET", "fk" + std::to_string(i),
                             "v" + std::to_string(i)}),
                Value::Simple("OK"));
    }
    // The primary holds the lease and reports so.
    const Value info = c.RoundTrip({"INFO"});
    EXPECT_NE(info.str.find("master_failover_state:holding"),
              std::string::npos);
  }
  ASSERT_TRUE(WaitForKey(replica.port(), "fk10", "v10"));
  EXPECT_GT(ServerMetric(primary->port(), "failover_lease_renewals_total"), 0);

  // Kill the primary (clean Stop: renewals cease — same observable as a
  // crash, minus the SIGKILL that chaos_e2e adds).
  primary->Stop();
  primary.reset();

  // The replica waits out the backoff and claims at its applied index,
  // with no operator involvement.
  ASSERT_TRUE(WaitForInfo(replica.port(), "role:master"));

  RespConn c(replica.port(), kDeadlineMs);
  ASSERT_TRUE(c.connected());
  // Every acked write survived the failover.
  for (int i = 1; i <= 10; ++i) {
    EXPECT_EQ(c.RoundTrip({"GET", "fk" + std::to_string(i)}),
              Value::Bulk("v" + std::to_string(i)));
  }
  // The new primary acks durable writes...
  EXPECT_EQ(c.RoundTrip({"SET", "post", "failover"}), Value::Simple("OK"));
  // ...and WAIT reports its real quorum, not a stale replica's 0.
  EXPECT_EQ(c.RoundTrip({"WAIT", "0", "100"}), Value::Integer(2));

  const Value info = c.RoundTrip({"INFO"});
  ASSERT_EQ(info.type, resp::Type::kBulkString);
  EXPECT_NE(info.str.find("role:master"), std::string::npos);
  EXPECT_NE(info.str.find("master_failover_state:holding"),
            std::string::npos);
  EXPECT_NE(info.str.find("failovers_total:1"), std::string::npos);
  EXPECT_EQ(ServerMetric(replica.port(), "failovers_total"), 1);
  EXPECT_GE(ServerMetric(replica.port(), "failover_last_duration_ms"),
            kBackoffMs);
  EXPECT_EQ(ServerMetric(replica.port(), "repl_checksum_failures_total"), 0);

  replica.Stop();
}

// A replica behind the tail cannot claim: its claim is conditioned on its
// applied index, so it fails while the feed is stalled, and the replica
// stays a replica. Once the feed flows again it catches up, claims, and
// serves every write of the backlog.
TEST(FailoverTest, AReplicaBehindTheTailCannotClaim) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);

  engine::Engine primary_engine;
  auto primary = std::make_unique<net::RespServer>(
      &primary_engine, FailoverConfig(group.endpoints, false, 1));
  ASSERT_TRUE(primary->Start().ok());

  engine::Engine replica_engine;
  net::RespServer replica(&replica_engine,
                          FailoverConfig(group.endpoints, true, 2));
  ASSERT_TRUE(replica.Start().ok());

  {
    RespConn c(primary->port(), kDeadlineMs);
    ASSERT_TRUE(c.connected());
    ASSERT_EQ(c.RoundTrip({"SET", "seen", "yes"}), Value::Simple("OK"));
  }
  ASSERT_TRUE(WaitForKey(replica.port(), "seen", "yes"));
  primary->Stop();
  primary.reset();

  // Stall the feed: every ReadStream response is swallowed, so the
  // replica's applied index freezes. No gate is running to need a read.
  for (auto& svc : group.services) {
    svc->fault().DropResponses(txlog::rpcwire::kRead, 100000);
  }
  // The backlog: effect batches under the old primary's writer id, with
  // request ids its chain never used (those are log indexes).
  {
    ClientFixture fx(group.endpoints, /*writer_id=*/1);
    for (int i = 1; i <= 15; ++i) {
      txlog::LogRecord r;
      r.request_id = (uint64_t{1} << 40) + static_cast<uint64_t>(i);
      r.payload = EncodeBatch({{"SET", "unseen" + std::to_string(i), "v"}});
      uint64_t index = 0;
      ASSERT_TRUE(fx.client
                      ->AppendSync(txlog::wire::kUnconditional, std::move(r),
                                   &index)
                      .ok());
    }
  }

  // The backoff passes and the replica claims at its stale applied index:
  // the claim fails, and the replica stays a replica.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (ServerMetric(replica.port(), "failover_elections_total") < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    SleepMs(25);
  }
  ExpectNeverPromotes(replica.port());

  // Un-stall the feed: the replica catches up, claims, and serves.
  for (auto& svc : group.services) svc->fault().Clear();
  ASSERT_TRUE(WaitForInfo(replica.port(), "role:master"));
  RespConn c(replica.port(), kDeadlineMs);
  for (int i = 1; i <= 15; ++i) {
    EXPECT_EQ(c.RoundTrip({"GET", "unseen" + std::to_string(i)}),
              Value::Bulk("v"));
  }
  EXPECT_EQ(c.RoundTrip({"SET", "now-ok", "x"}), Value::Simple("OK"));
  EXPECT_GE(ServerMetric(replica.port(), "failover_elections_total"), 2);

  replica.Stop();
}

// A replica whose feed was trimmed past its applied index never claims: it
// cannot catch up by following, so it would promote without the trimmed
// writes.
TEST(FailoverTest, TrimmedReplicaNeverClaims) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);

  engine::Engine primary_engine;
  auto primary = std::make_unique<net::RespServer>(
      &primary_engine, FailoverConfig(group.endpoints, false, 1));
  ASSERT_TRUE(primary->Start().ok());
  {
    RespConn c(primary->port(), kDeadlineMs);
    ASSERT_TRUE(c.connected());
    for (int i = 1; i <= 20; ++i) {
      ASSERT_EQ(c.RoundTrip({"SET", "t" + std::to_string(i), "v"}),
                Value::Simple("OK"));
    }
  }
  {
    ClientFixture fx(group.endpoints);
    txlog::wire::ClientTailResponse tail;
    ASSERT_TRUE(fx.client->TailSync(&tail).ok());
    uint64_t first = 0;
    ASSERT_TRUE(fx.client->TrimSync(tail.commit_index - 1, &first).ok());
    ASSERT_GT(first, 1u);
  }

  engine::Engine replica_engine;
  net::RespServer replica(&replica_engine,
                          FailoverConfig(group.endpoints, true, 2));
  ASSERT_TRUE(replica.Start().ok());
  primary->Stop();
  primary.reset();

  ExpectNeverPromotes(replica.port());
  replica.Stop();
}

// A replica that counted a failed §7.2.1 check never claims: it would
// promote an engine that diverged from the log.
TEST(FailoverTest, ChecksumFailedReplicaNeverClaims) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);

  engine::Engine primary_engine;
  auto primary = std::make_unique<net::RespServer>(
      &primary_engine, FailoverConfig(group.endpoints, false, 1));
  ASSERT_TRUE(primary->Start().ok());

  engine::Engine replica_engine;
  net::RespServer replica(&replica_engine,
                          FailoverConfig(group.endpoints, true, 2));
  ASSERT_TRUE(replica.Start().ok());
  {
    RespConn c(primary->port(), kDeadlineMs);
    ASSERT_TRUE(c.connected());
    ASSERT_EQ(c.RoundTrip({"SET", "k", "v"}), Value::Simple("OK"));
  }
  ASSERT_TRUE(WaitForKey(replica.port(), "k", "v"));

  // A checksum record cut to 4 bytes, stamped with the primary's writer id
  // as a producer bug's record would be (so it does not fence the primary).
  {
    ClientFixture fx(group.endpoints, /*writer_id=*/1);
    txlog::LogRecord bad;
    bad.type = txlog::RecordType::kChecksum;
    bad.request_id = uint64_t{1} << 40;  // no index the primary chains on
    bad.payload = std::string(4, '\0');
    uint64_t index = 0;
    ASSERT_TRUE(fx.client
                    ->AppendSync(txlog::wire::kUnconditional, std::move(bad),
                                 &index)
                    .ok());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ServerMetric(replica.port(), "repl_checksum_failures_total") < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    SleepMs(25);
  }
  primary->Stop();
  primary.reset();

  ExpectNeverPromotes(replica.port());
  EXPECT_EQ(ServerMetric(replica.port(), "failover_elections_total"), 0);
  replica.Stop();
}

// A --restore --failover primary that starts while another node holds the
// shard follows the log until that holder falls silent, then claims: every
// write the other holder acked meanwhile reaches its engine.
TEST(FailoverTest, RestoredPrimaryAppliesThePreviousHoldersLastWrites) {
  TempDir store_dir;  // empty: the restore replays the log from index 1
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);

  engine::Engine holder_engine;
  auto holder = std::make_unique<net::RespServer>(
      &holder_engine, FailoverConfig(group.endpoints, false, 1));
  ASSERT_TRUE(holder->Start().ok());
  const auto write = [&](int from, int to) {
    RespConn c(holder->port(), kDeadlineMs);
    for (int i = from; i <= to; ++i) {
      ASSERT_EQ(c.RoundTrip({"SET", "r" + std::to_string(i), "v"}),
                Value::Simple("OK"));
    }
  };
  write(1, 10);

  net::ServerConfig cfg = FailoverConfig(group.endpoints, false, 2);
  cfg.restore = true;
  cfg.store_dir = store_dir.path;
  engine::Engine restored_engine;
  net::RespServer restored(&restored_engine, cfg);
  Status started = Status::Internal("Start() never returned");
  std::thread starter([&] { started = restored.Start(); });
  SleepMs(200);  // the restore has replayed the log; the holder writes on
  write(11, 20);
  holder->Stop();
  holder.reset();
  starter.join();
  ASSERT_TRUE(started.ok()) << started.ToString();

  RespConn c(restored.port(), kDeadlineMs);
  for (int i = 1; i <= 20; ++i) {
    EXPECT_EQ(c.RoundTrip({"GET", "r" + std::to_string(i)}), Value::Bulk("v"))
        << i;
  }
  EXPECT_EQ(c.RoundTrip({"SET", "after", "x"}), Value::Simple("OK"));
  restored.Stop();
}

// A zombie primary learns it lost the shard from its own append chain: a
// contender's kLeadership claim fences its next renewal or write.
TEST(FailoverTest, ZombiePrimaryIsFencedByItsOwnAppendChain) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);

  engine::Engine primary_engine;
  net::RespServer primary(&primary_engine,
                          FailoverConfig(group.endpoints, false, 1));
  ASSERT_TRUE(primary.Start().ok());
  {
    RespConn c(primary.port(), kDeadlineMs);
    ASSERT_EQ(c.RoundTrip({"SET", "pre", "1"}), Value::Simple("OK"));
  }

  // A contender claims at the tail, racing the holder's renewals.
  ClientFixture contender(group.endpoints, /*writer_id=*/9);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  for (;;) {
    txlog::wire::ClientTailResponse tail;
    ASSERT_TRUE(contender.client->TailSync(&tail).ok());
    txlog::LogRecord claim;
    claim.type = txlog::RecordType::kLeadership;
    claim.request_id = tail.last_index + 1;
    uint64_t index = 0;
    if (contender.client->AppendSync(tail.last_index, std::move(claim), &index)
            .ok()) {
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
  }

  // The zombie's next chained append lands on the foreign claim: the gate
  // goes terminally fenced, the server demotes, the client is told.
  {
    RespConn c(primary.port(), kDeadlineMs);
    const Value err = c.RoundTrip({"SET", "zombie-write", "lost?"});
    ASSERT_EQ(err.type, resp::Type::kError);
    EXPECT_NE(err.str.find("READONLY"), std::string::npos) << err.str;
  }
  ASSERT_TRUE(WaitForInfo(primary.port(), "role:fenced"));
  {
    RespConn c(primary.port(), kDeadlineMs);
    const Value info = c.RoundTrip({"INFO"});
    EXPECT_NE(info.str.find("master_failover_state:fenced"),
              std::string::npos);
    // Reads stay available; writes stay refused.
    EXPECT_EQ(c.RoundTrip({"GET", "pre"}), Value::Bulk("1"));
    const Value err = c.RoundTrip({"SET", "still-no", "x"});
    ASSERT_EQ(err.type, resp::Type::kError);
    EXPECT_NE(err.str.find("READONLY"), std::string::npos);
    // METRICS agrees with INFO: the gauge pins the terminal state.
    EXPECT_EQ(ServerMetric(primary.port(), "failover_state"), 6);
    EXPECT_EQ(ServerMetric(primary.port(), "failover_lease_losses_total"), 1);
  }
  primary.Stop();
}

// ---------------------------------------------------------------------------
// Bounded dedup table

TEST(DedupBoundTest, TableStaysBoundedUnderManyWriters) {
  LogGroup group(3, /*dedup_max=*/8);
  const int leader = group.WaitForLeader();
  ASSERT_GE(leader, 0);

  ClientFixture fx(group.endpoints);
  for (int i = 0; i < 40; ++i) {
    fx.AppendData("payload-" + std::to_string(i));
  }

  // The bound is a per-node invariant; evictions are only *eventually*
  // visible on every node (a deposed leader can lag the stream until the
  // next heartbeat catches it up), so assert the gauge everywhere and poll
  // for evictions on any node.
  for (auto& svc : group.services) {
    const Gauge* entries = svc->metrics().FindGauge("txlog_dedup_entries");
    ASSERT_NE(entries, nullptr);
    EXPECT_LE(entries->value(), 8);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  uint64_t evicted = 0;
  while (evicted == 0 && std::chrono::steady_clock::now() < deadline) {
    for (auto& svc : group.services) {
      const Counter* evictions =
          svc->metrics().FindCounter("txlog_dedup_evictions_total");
      if (evictions != nullptr) evicted += evictions->value();
    }
    if (evicted == 0) SleepMs(20);
  }
  EXPECT_GT(evicted, 0u);
}

// ---------------------------------------------------------------------------
// Memory pressure across the log (§2.1)

// A primary under a tight maxmemory evicts and actively expires; both kinds
// of removal leave it only as logged DEL effects. A log-fed replica with no
// memory budget of its own — it never evicts or expires locally — must
// still converge to the primary's post-eviction/post-expiry keyspace, and
// so must a fresh node recovering via --restore from an off-box snapshot
// plus the log tail.
TEST(ReplicaServerTest, EvictionAndExpiryConvergeThroughLogAndRestore) {
  TempDir store_dir;
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);

  net::ServerConfig primary_cfg;
  primary_cfg.port = 0;
  primary_cfg.loop_timeout_ms = 10;
  primary_cfg.txlog_endpoints = group.endpoints;
  primary_cfg.txlog_tail_poll_ms = 50;
  engine::Engine primary_engine;
  primary_engine.set_maxmemory(32 * 1024);
  primary_engine.set_eviction_policy(engine::EvictionPolicy::kAllKeysLru);
  net::RespServer primary(&primary_engine, primary_cfg);
  ASSERT_TRUE(primary.Start().ok());

  net::ServerConfig replica_cfg;  // deliberately unbounded
  replica_cfg.port = 0;
  replica_cfg.loop_timeout_ms = 10;
  replica_cfg.replica_of_log = group.endpoints;
  replica_cfg.replica_poll_wait_ms = 50;
  engine::Engine replica_engine;
  net::RespServer replica(&replica_engine, replica_cfg);
  ASSERT_TRUE(replica.Start().ok());

  // ~45 KiB of payload into a 32 KiB budget forces evictions; every fifth
  // key carries a short TTL so the primary's active sweep also runs.
  constexpr int kKeys = 300;
  {
    RespConn c(primary.port(), kDeadlineMs);
    ASSERT_TRUE(c.connected());
    for (int i = 0; i < kKeys; ++i) {
      std::vector<std::string> cmd = {
          "SET", "k" + std::to_string(i),
          std::string(128, static_cast<char>('a' + i % 26))};
      if (i % 5 == 0) {
        cmd.push_back("PX");
        cmd.push_back("400");
      }
      ASSERT_EQ(c.RoundTrip(cmd), Value::Simple("OK")) << "key " << i;
    }
    // A few long-lived TTLs, written last so LRU keeps them: the deadline
    // index is still populated when the nodes are compared below.
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(c.RoundTrip({"SET", "long" + std::to_string(i), "v", "PX",
                             "600000"}),
                Value::Simple("OK"));
    }
  }
  EXPECT_GT(ServerMetric(primary.port(), "evicted_keys_total"), 0);
  EXPECT_LE(ServerMetric(primary.port(), "used_memory_bytes"), 32 * 1024);

  // Let the TTLs lapse and the active sweep log its DELs, then fence the
  // history with a marker write the replica can wait for.
  SleepMs(900);
  {
    RespConn c(primary.port(), kDeadlineMs);
    ASSERT_EQ(c.RoundTrip({"SET", "marker", "done"}), Value::Simple("OK"));
  }
  ASSERT_TRUE(WaitForKey(replica.port(), "marker", "done"));
  EXPECT_GT(ServerMetric(primary.port(), "expired_keys_total"), 0);

  // The replica never removed anything on its own authority.
  EXPECT_EQ(ServerMetric(replica.port(), "evicted_keys_total"), 0);
  EXPECT_EQ(ServerMetric(replica.port(), "expired_keys_total"), 0);

  auto dbsize = [](uint16_t port) -> int64_t {
    RespConn c(port, kDeadlineMs);
    return c.RoundTrip({"DBSIZE"}).integer;
  };
  // INFO's "db0:keys=N,expires=M" line.
  auto keyspace_line = [](uint16_t port) -> std::string {
    RespConn c(port, kDeadlineMs);
    const std::string info = c.RoundTrip({"INFO", "keyspace"}).str;
    const size_t at = info.find("db0:");
    return at == std::string::npos ? info
                                   : info.substr(at, info.find('\r', at) - at);
  };
  auto wait_converged = [&](uint16_t port) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      if (dbsize(port) == dbsize(primary.port())) return true;
      SleepMs(50);
    }
    return false;
  };
  EXPECT_TRUE(wait_converged(replica.port()))
      << "replica dbsize " << dbsize(replica.port()) << " vs primary "
      << dbsize(primary.port());

  // Key-by-key agreement: evicted and expired keys are gone on both sides,
  // survivors carry identical values.
  {
    RespConn pc(primary.port(), kDeadlineMs);
    RespConn rc(replica.port(), kDeadlineMs);
    for (int i = 0; i < kKeys; ++i) {
      const Value pv = pc.RoundTrip({"GET", "k" + std::to_string(i)});
      const Value rv = rc.RoundTrip({"GET", "k" + std::to_string(i)});
      EXPECT_EQ(pv.IsNull(), rv.IsNull()) << "key k" << i;
      if (!pv.IsNull() && !rv.IsNull()) {
        EXPECT_EQ(pv.str, rv.str) << "key k" << i;
      }
    }
  }

  // Same convergence through the off-box path: snapshot + log tail into a
  // fresh --restore node that never saw the live traffic.
  replication::OffboxRunner::Options opt;
  opt.endpoints = group.endpoints;
  opt.store_dir = store_dir.path;
  opt.fsync = false;
  MetricsRegistry offbox_metrics;
  replication::OffboxRunner runner(opt, &offbox_metrics);
  ASSERT_TRUE(runner.Start().ok());
  replication::CycleResult cycle;
  ASSERT_TRUE(runner.RunCycle(&cycle).ok());
  EXPECT_TRUE(cycle.uploaded);
  runner.Stop();

  net::ServerConfig restored_cfg;
  restored_cfg.port = 0;
  restored_cfg.loop_timeout_ms = 10;
  restored_cfg.replica_of_log = group.endpoints;
  restored_cfg.replica_poll_wait_ms = 50;
  restored_cfg.restore = true;
  restored_cfg.store_dir = store_dir.path;
  engine::Engine restored_engine;
  net::RespServer restored(&restored_engine, restored_cfg);
  ASSERT_TRUE(restored.Start().ok());

  ASSERT_TRUE(WaitForKey(restored.port(), "marker", "done"));
  EXPECT_TRUE(wait_converged(restored.port()))
      << "restored dbsize " << dbsize(restored.port()) << " vs primary "
      << dbsize(primary.port());

  // All three nodes agree on how many keys exist and how many of them
  // carry a deadline; the long TTLs keep the latter above zero.
  const std::string primary_keyspace = keyspace_line(primary.port());
  EXPECT_EQ(primary_keyspace.rfind("db0:keys=", 0), 0u) << primary_keyspace;
  EXPECT_EQ(primary_keyspace.find(",expires=0"), std::string::npos)
      << primary_keyspace;
  EXPECT_EQ(keyspace_line(replica.port()), primary_keyspace);
  EXPECT_EQ(keyspace_line(restored.port()), primary_keyspace);

  restored.Stop();
  replica.Stop();
  primary.Stop();
}

// Group commit end to end: pipelined bursts from several connections land
// as merged records; a log-fed replica and a snapshot + tail --restore node
// replay them and verify the §7.2.1 chain over the records as sent.
TEST(ReplicaServerTest, GroupCommittedBurstsConvergeOnReplicaAndRestore) {
  TempDir store_dir;
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);

  net::ServerConfig primary_cfg;
  primary_cfg.port = 0;
  primary_cfg.loop_timeout_ms = 10;
  primary_cfg.txlog_endpoints = group.endpoints;
  primary_cfg.txlog_checksum_every = 3;
  engine::Engine primary_engine;
  net::RespServer primary(&primary_engine, primary_cfg);
  ASSERT_TRUE(primary.Start().ok());

  net::ServerConfig replica_cfg;
  replica_cfg.port = 0;
  replica_cfg.loop_timeout_ms = 10;
  replica_cfg.replica_of_log = group.endpoints;
  replica_cfg.replica_poll_wait_ms = 50;
  engine::Engine replica_engine;
  net::RespServer replica(&replica_engine, replica_cfg);
  ASSERT_TRUE(replica.Start().ok());

  // Each connection pipelines SETs of its own keys plus an INCR of a shared
  // counter, so merged records interleave connections.
  constexpr int kConns = 4;
  constexpr int kPipeline = 16;
  const auto burst = [&](int first_round, int rounds) {
    std::vector<std::thread> clients;
    std::vector<int> bad(kConns, 0);
    for (int t = 0; t < kConns; ++t) {
      clients.emplace_back([&, t] {
        RespConn c(primary.port(), kDeadlineMs);
        for (int r = first_round; r < first_round + rounds; ++r) {
          std::string pipeline = resp::EncodeCommand({"INCR", "shared"});
          for (int i = 0; i < kPipeline; ++i) {
            pipeline += resp::EncodeCommand(
                {"SET", "c" + std::to_string(t) + "k" + std::to_string(i),
                 std::to_string(r)});
          }
          const std::vector<Value> replies =
              c.Send(pipeline) ? c.ReadReplies(kPipeline + 1)
                                    : std::vector<Value>();
          if (replies.size() != kPipeline + 1 ||
              replies[0].type != resp::Type::kInteger) {
            ++bad[t];
            continue;
          }
          for (int i = 1; i <= kPipeline; ++i) {
            if (replies[i] != Value::Simple("OK")) ++bad[t];
          }
        }
      });
    }
    for (std::thread& th : clients) th.join();
    for (int t = 0; t < kConns; ++t) EXPECT_EQ(bad[t], 0) << "conn " << t;
  };
  burst(0, 4);

  // Snapshot the first half; the second half is the tail a restore replays.
  replication::OffboxRunner::Options opt;
  opt.endpoints = group.endpoints;
  opt.store_dir = store_dir.path;
  opt.fsync = false;
  MetricsRegistry offbox_metrics;
  replication::OffboxRunner runner(opt, &offbox_metrics);
  ASSERT_TRUE(runner.Start().ok());
  replication::CycleResult cycle;
  ASSERT_TRUE(runner.RunCycle(&cycle).ok());
  EXPECT_TRUE(cycle.uploaded);
  runner.Stop();

  burst(4, 4);
  {
    RespConn c(primary.port(), kDeadlineMs);
    ASSERT_EQ(c.RoundTrip({"SET", "marker", "done"}), Value::Simple("OK"));
  }
  const double appends =
      ServerMetric(primary.port(), "txlog_gate_appends_total");
  EXPECT_EQ(appends, 8 * kConns * (kPipeline + 1) + 1);
  EXPECT_LT(ServerMetric(primary.port(), "txlog_gate_records_total"), appends);
  EXPECT_GT(ServerMetric(primary.port(), "txlog_checksum_records_total"), 0);

  net::ServerConfig restored_cfg = replica_cfg;
  restored_cfg.restore = true;
  restored_cfg.store_dir = store_dir.path;
  engine::Engine restored_engine;
  net::RespServer restored(&restored_engine, restored_cfg);
  ASSERT_TRUE(restored.Start().ok());

  for (const net::RespServer* node : {&replica, &restored}) {
    ASSERT_TRUE(WaitForKey(node->port(), "marker", "done"));
    EXPECT_EQ(ServerMetric(node->port(), "repl_checksum_failures_total"), 0);
    RespConn pc(primary.port(), kDeadlineMs);
    RespConn nc(node->port(), kDeadlineMs);
    EXPECT_EQ(nc.RoundTrip({"GET", "shared"}).str,
              std::to_string(8 * kConns));
    EXPECT_EQ(nc.RoundTrip({"DBSIZE"}).integer,
              pc.RoundTrip({"DBSIZE"}).integer);
    for (int t = 0; t < kConns; ++t) {
      for (int i = 0; i < kPipeline; ++i) {
        const std::string key =
            "c" + std::to_string(t) + "k" + std::to_string(i);
        EXPECT_EQ(nc.RoundTrip({"GET", key}).str, "7") << key;
      }
    }
  }

  restored.Stop();
  replica.Stop();
  primary.Stop();
}

}  // namespace
}  // namespace memdb
