// Wire messages for the transaction-log service, carried as rpc frame
// payloads to memorydb-txlogd and as message payloads to the simulated
// RaftReplica: one vocabulary for both. The client-facing append/read/tail
// bodies reuse txlog/wire.h encodings; this header adds the method names,
// the long-poll ReadStream request, and trim.

#ifndef MEMDB_TXLOG_RPC_WIRE_H_
#define MEMDB_TXLOG_RPC_WIRE_H_

#include <cstdint>
#include <string>

#include "common/coding.h"
#include "txlog/wire.h"

namespace memdb::txlog::rpcwire {

// Client-facing service methods.
inline constexpr char kAppend[] = "txlog.ConditionalAppend";
inline constexpr char kRead[] = "txlog.ReadStream";
inline constexpr char kTail[] = "txlog.Tail";
// Trim hint from the snapshotter (§4.2.3): history up to upto_index is
// covered by a durable snapshot and may be discarded.
inline constexpr char kTrim[] = "txlog.Trim";
// Diagnostics: Prometheus text exposition of the daemon's registry.
inline constexpr char kMetrics[] = "svc.Metrics";
// Diagnostics: JSONL dump of the daemon's TraceLog (common/trace_export.h
// line format); the scrape analogue of the server's RESP `TRACE DUMP`.
inline constexpr char kTraceDump[] = "svc.TraceDump";
// Replica-internal raft traffic (leader election / replication).
inline constexpr char kRaftVote[] = "raft.Vote";
inline constexpr char kRaftAppendEntries[] = "raft.AppendEntries";

// Splits a "host:port" endpoint; false on malformed input.
inline bool SplitEndpoint(const std::string& ep, std::string* host,
                          uint16_t* port) {
  const size_t colon = ep.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= ep.size()) {
    return false;
  }
  unsigned long p = 0;
  for (size_t i = colon + 1; i < ep.size(); ++i) {
    if (ep[i] < '0' || ep[i] > '9') return false;
    p = p * 10 + static_cast<unsigned long>(ep[i] - '0');
    if (p > 65535) return false;
  }
  *host = ep.substr(0, colon);
  *port = static_cast<uint16_t>(p);
  return true;
}

// ReadStream: committed entries from from_index. wait_ms > 0 turns the call
// into a long poll — a replica with no entries at from_index holds the
// response until its commit index reaches from_index or wait_ms elapses
// (then answers empty). This is how replicas follow the log over the wire
// without a tight poll loop.
struct ReadStreamRequest {
  uint64_t from_index = 1;
  uint64_t max_count = 64;
  uint64_t wait_ms = 0;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, from_index);
    PutVarint64(&out, max_count);
    PutVarint64(&out, wait_ms);
    return out;
  }
  static bool Decode(Slice data, ReadStreamRequest* out) {
    Decoder dec(data);
    return dec.GetVarint64(&out->from_index) &&
           dec.GetVarint64(&out->max_count) &&
           dec.GetVarint64(&out->wait_ms);
  }
};

// Trim: each replica discards committed history up to upto_index, bounded
// by what it can safely drop (its own commit index; the leader additionally
// keeps everything a lagging follower still needs, since there is no
// snapshot-install path). Always answered by the receiving replica — the
// client broadcasts the hint to the whole group.
struct TrimRequest {
  uint64_t upto_index = 0;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, upto_index);
    return out;
  }
  static bool Decode(Slice data, TrimRequest* out) {
    Decoder dec(data);
    return dec.GetVarint64(&out->upto_index);
  }
};

struct TrimResponse {
  // First index still present after the trim (base + 1).
  uint64_t first_index = 1;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, first_index);
    return out;
  }
  static bool Decode(Slice data, TrimResponse* out) {
    Decoder dec(data);
    return dec.GetVarint64(&out->first_index);
  }
};

}  // namespace memdb::txlog::rpcwire

#endif  // MEMDB_TXLOG_RPC_WIRE_H_
