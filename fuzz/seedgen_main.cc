// Seed-corpus generator: writes the checked-in seeds under fuzz/corpus/.
// Kept as a tool (rather than a one-off script) so the binary rpc frames —
// which need the real CRC64 — can be regenerated whenever the wire format
// changes: `memorydb-fuzz-seedgen <repo>/fuzz/corpus`.
//
// RESP seeds lead with the harness' chunk-selector byte ('0' = one-shot
// feed, '3' = 3-byte chunks); the bytes after it are the protocol stream.
// Log-replay seeds are encoded log entries, and snapshot bodies without
// their CRC64 trailer (the harness seals every input with one).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/coding.h"
#include "engine/engine.h"
#include "engine/snapshot.h"
#include "replication/effect_batch.h"
#include "resp/resp.h"
#include "rpc/frame.h"
#include "txlog/record.h"

namespace {

namespace fs = std::filesystem;

void WriteSeed(const fs::path& dir, const std::string& name,
               const std::string& bytes) {
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  std::printf("wrote %s (%zu bytes)\n", (dir / name).c_str(), bytes.size());
}

void RespSeeds(const fs::path& dir) {
  using memdb::resp::EncodeCommand;
  using memdb::resp::Value;

  WriteSeed(dir, "simple_ok", "0+OK\r\n");
  WriteSeed(dir, "error", "0-ERR unknown command\r\n");
  WriteSeed(dir, "integer", "0:12345\r\n");
  WriteSeed(dir, "bulk", "0$5\r\nhello\r\n");
  WriteSeed(dir, "null_bulk", "0$-1\r\n");
  WriteSeed(dir, "null_array", "0*-1\r\n");
  // A header that counts no arguments: skipped, never an empty command.
  WriteSeed(dir, "empty_multibulk", "0*0\r\n");
  WriteSeed(dir, "set_command", "0" + EncodeCommand({"SET", "key", "value"}));
  WriteSeed(dir, "get_chunked", "3" + EncodeCommand({"GET", "key"}));
  WriteSeed(dir, "inline_command", "0PING\r\n");
  WriteSeed(dir, "inline_args", "2SET key value\r\n");
  WriteSeed(dir, "nested_array",
            "0" + Value::Array({Value::Array({Value::Bulk("a")}),
                                Value::Integer(-7), Value::Null()})
                      .Encode());
  WriteSeed(dir, "pipelined",
            "0" + EncodeCommand({"INCR", "n"}) + EncodeCommand({"INCR", "n"}));
  // Declared sizes beyond the harness limits: must reject, not allocate.
  WriteSeed(dir, "oversize_bulk", "0$999999999\r\n");
  WriteSeed(dir, "oversize_array", "0*999999999\r\n");
  WriteSeed(dir, "truncated_bulk", "0$5\r\nhel");
  WriteSeed(dir, "bad_type_byte", "0@oops\r\n");
  // Deep nesting: the decoder must cap recursion, not run the stack out.
  std::string deep = "0";
  for (int i = 0; i < 100; ++i) deep += "*1\r\n";
  deep += ":1\r\n";
  WriteSeed(dir, "deep_nesting", deep);
}

void RpcSeeds(const fs::path& dir) {
  using memdb::rpc::Code;
  using memdb::rpc::EncodeFrame;
  using memdb::rpc::Frame;
  using memdb::rpc::FrameType;

  Frame req;
  req.type = FrameType::kRequest;
  req.request_id = 7;
  req.trace_id = 0x1122334455667788ull;
  req.deadline_ms = 250;
  req.method = "txlog.Append";
  req.payload = std::string("\x01\x00payload-bytes", 15);
  std::string bytes;
  EncodeFrame(req, &bytes);
  WriteSeed(dir, "request_append", bytes);

  Frame resp;
  resp.type = FrameType::kResponse;
  resp.code = Code::kOk;
  resp.request_id = 7;
  resp.payload = "ack";
  bytes.clear();
  EncodeFrame(resp, &bytes);
  WriteSeed(dir, "response_ok", bytes);

  Frame err;
  err.type = FrameType::kResponse;
  err.code = Code::kOverloaded;
  err.request_id = 9;
  bytes.clear();
  EncodeFrame(err, &bytes);
  WriteSeed(dir, "response_overloaded", bytes);

  Frame empty;
  empty.method = "ping";
  bytes.clear();
  EncodeFrame(empty, &bytes);
  WriteSeed(dir, "request_empty_payload", bytes);

  // Corrupt variants: flip a payload byte (checksum must catch it) and
  // truncate mid-header (must report kNeedMore, never kOk).
  bytes.clear();
  EncodeFrame(req, &bytes);
  bytes[bytes.size() / 2] ^= 0x40;
  WriteSeed(dir, "corrupt_checksum", bytes);
  bytes.clear();
  EncodeFrame(req, &bytes);
  WriteSeed(dir, "truncated_header", bytes.substr(0, 11));
  // Two frames back to back: consumed must stop at the first boundary.
  bytes.clear();
  EncodeFrame(req, &bytes);
  EncodeFrame(resp, &bytes);
  WriteSeed(dir, "pipelined_frames", bytes);
}

void LogReplaySeeds(const fs::path& dir) {
  using memdb::txlog::LogEntry;
  using memdb::txlog::RecordType;

  auto entry = [](RecordType type, const std::string& payload) {
    LogEntry e;
    e.term = 3;  // the harness replays onto a chain seeded with the term
    e.index = 7;
    e.record.type = type;
    e.record.payload = payload;
    std::string bytes;
    e.EncodeTo(&bytes);
    return bytes;
  };
  const std::string batch = memdb::replication::EncodeEffectBatch(
      "7.0.7", {{"SET", "k", "v"}, {"RPUSH", "l", "a", "b"}, {"DEL", "k"}});
  WriteSeed(dir, "data_entry", entry(RecordType::kData, batch));
  // Cut short inside its last effect.
  WriteSeed(dir, "malformed_batch",
            entry(RecordType::kData, batch.substr(0, batch.size() - 4)));
  std::string chain;
  memdb::PutFixed64(&chain, 3);
  WriteSeed(dir, "checksum_entry", entry(RecordType::kChecksum, chain));
  WriteSeed(dir, "checksum_short",
            entry(RecordType::kChecksum, chain.substr(0, 4)));
  WriteSeed(dir, "checksum_long",
            entry(RecordType::kChecksum, chain + std::string(4, '\0')));
  WriteSeed(dir, "lease_entry", entry(RecordType::kLease, "release"));

  memdb::engine::Engine engine;
  for (const memdb::engine::Argv& argv :
       std::vector<memdb::engine::Argv>{{"SET", "s", "v"},
                                        {"RPUSH", "l", "a", "b"},
                                        {"HSET", "h", "f", "v"},
                                        {"SADD", "set", "m"},
                                        {"ZADD", "z", "1.5", "m"},
                                        {"PEXPIREAT", "s", "9000000000000"}}) {
    engine.Apply(argv, 1000);
  }
  memdb::engine::SnapshotMeta meta;
  meta.log_position = 42;
  meta.log_running_checksum = 0x1234;
  const std::string blob = SerializeSnapshot(engine.keyspace(), meta);
  WriteSeed(dir, "snapshot_body", blob.substr(0, blob.size() - 8));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const fs::path root(argv[1]);
  RespSeeds(root / "resp_decode");
  RpcSeeds(root / "rpc_frame");
  LogReplaySeeds(root / "log_replay");
  return 0;
}
