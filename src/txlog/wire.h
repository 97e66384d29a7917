// Wire formats for transaction-log RPCs (internal Raft traffic and the
// client-facing service API). Shared by RaftCore, its two drivers
// (RaftReplica, LogService) and the log client; the method names are in
// txlog/rpc_wire.h.

#ifndef MEMDB_TXLOG_WIRE_H_
#define MEMDB_TXLOG_WIRE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/coding.h"
#include "txlog/record.h"

namespace memdb::txlog::wire {

// Replica id on the wire. Same width as sim::NodeId, so simulated replicas
// use their host ids directly; kNoNode is "none" (no vote, leader unknown).
using NodeId = uint32_t;
inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

// Outcome of a client-facing operation.
enum class ClientResult : uint8_t {
  kOk = 0,
  kConditionFailed = 1,  // precondition index was stale
  kNotLeader = 2,        // retry at leader_hint
  kUnavailable = 3,      // election in progress / barrier pending
};

struct VoteRequest {
  uint64_t term = 0;
  NodeId candidate = kNoNode;
  uint64_t last_log_index = 0;
  uint64_t last_log_term = 0;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, term);
    PutVarint64(&out, candidate);
    PutVarint64(&out, last_log_index);
    PutVarint64(&out, last_log_term);
    return out;
  }
  static bool Decode(Slice data, VoteRequest* out) {
    Decoder dec(data);
    uint64_t cand;
    if (!dec.GetVarint64(&out->term) || !dec.GetVarint64(&cand) ||
        !dec.GetVarint64(&out->last_log_index) ||
        !dec.GetVarint64(&out->last_log_term)) {
      return false;
    }
    out->candidate = static_cast<NodeId>(cand);
    return true;
  }
};

struct VoteResponse {
  uint64_t term = 0;
  bool granted = false;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, term);
    PutVarint64(&out, granted ? 1 : 0);
    return out;
  }
  static bool Decode(Slice data, VoteResponse* out) {
    Decoder dec(data);
    uint64_t g;
    if (!dec.GetVarint64(&out->term) || !dec.GetVarint64(&g)) return false;
    out->granted = g != 0;
    return true;
  }
};

struct AppendEntriesRequest {
  uint64_t term = 0;
  NodeId leader = kNoNode;
  uint64_t prev_index = 0;
  uint64_t prev_term = 0;
  uint64_t commit_index = 0;
  std::vector<LogEntry> entries;

  std::string Encode() const {
    return EncodeWith(entries.size(), [this](size_t i) -> const LogEntry& {
      return entries[i];
    });
  }
  // Encodes the header fields with `count` entries taken from at(0..count-1)
  // instead of `entries`: a leader frames entries straight from its log.
  template <typename At>
  std::string EncodeWith(size_t count, At at) const {
    std::string out;
    PutVarint64(&out, term);
    PutVarint64(&out, leader);
    PutVarint64(&out, prev_index);
    PutVarint64(&out, prev_term);
    PutVarint64(&out, commit_index);
    PutVarint64(&out, count);
    for (size_t i = 0; i < count; ++i) at(i).EncodeTo(&out);
    return out;
  }
  static bool Decode(Slice data, AppendEntriesRequest* out) {
    Decoder dec(data);
    uint64_t leader, count;
    if (!dec.GetVarint64(&out->term) || !dec.GetVarint64(&leader) ||
        !dec.GetVarint64(&out->prev_index) ||
        !dec.GetVarint64(&out->prev_term) ||
        !dec.GetVarint64(&out->commit_index) || !dec.GetVarint64(&count)) {
      return false;
    }
    out->leader = static_cast<NodeId>(leader);
    out->entries.resize(count);
    for (uint64_t i = 0; i < count; ++i) {
      if (!LogEntry::DecodeFrom(&dec, &out->entries[i])) return false;
    }
    return true;
  }
};

struct AppendEntriesResponse {
  uint64_t term = 0;
  bool success = false;
  uint64_t match_index = 0;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, term);
    PutVarint64(&out, success ? 1 : 0);
    PutVarint64(&out, match_index);
    return out;
  }
  static bool Decode(Slice data, AppendEntriesResponse* out) {
    Decoder dec(data);
    uint64_t s;
    if (!dec.GetVarint64(&out->term) || !dec.GetVarint64(&s) ||
        !dec.GetVarint64(&out->match_index)) {
      return false;
    }
    out->success = s != 0;
    return true;
  }
};

// Conditional append. prev_index == kUnconditional skips the CAS check.
inline constexpr uint64_t kUnconditional = ~0ULL;

struct ClientAppendRequest {
  uint64_t prev_index = kUnconditional;
  LogRecord record;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, prev_index);
    record.EncodeTo(&out);
    return out;
  }
  static bool Decode(Slice data, ClientAppendRequest* out) {
    Decoder dec(data);
    return dec.GetVarint64(&out->prev_index) &&
           LogRecord::DecodeFrom(&dec, &out->record);
  }
};

struct ClientAppendResponse {
  ClientResult result = ClientResult::kUnavailable;
  uint64_t index = 0;      // assigned index on kOk; current tail on CAS fail
  NodeId leader_hint = kNoNode;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, static_cast<uint64_t>(result));
    PutVarint64(&out, index);
    PutVarint64(&out, leader_hint);
    return out;
  }
  static bool Decode(Slice data, ClientAppendResponse* out) {
    Decoder dec(data);
    uint64_t r, hint;
    if (!dec.GetVarint64(&r) || !dec.GetVarint64(&out->index) ||
        !dec.GetVarint64(&hint)) {
      return false;
    }
    out->result = static_cast<ClientResult>(r);
    out->leader_hint = static_cast<NodeId>(hint);
    return true;
  }
};

struct ClientReadResponse {
  std::vector<LogEntry> entries;
  uint64_t commit_index = 0;
  // First index still present (reads below this hit truncated history and
  // the reader must restore from a snapshot instead).
  uint64_t first_index = 1;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, entries.size());
    for (const LogEntry& e : entries) e.EncodeTo(&out);
    PutVarint64(&out, commit_index);
    PutVarint64(&out, first_index);
    return out;
  }
  static bool Decode(Slice data, ClientReadResponse* out) {
    Decoder dec(data);
    uint64_t count;
    if (!dec.GetVarint64(&count)) return false;
    out->entries.resize(count);
    for (uint64_t i = 0; i < count; ++i) {
      if (!LogEntry::DecodeFrom(&dec, &out->entries[i])) return false;
    }
    return dec.GetVarint64(&out->commit_index) &&
           dec.GetVarint64(&out->first_index);
  }
};

struct ClientTailResponse {
  ClientResult result = ClientResult::kUnavailable;
  uint64_t commit_index = 0;
  uint64_t last_index = 0;
  NodeId leader_hint = kNoNode;
  // Log consumers the answering replica can observe: readers currently
  // parked in its long-poll table. A lower bound — reads round-robin across
  // replicas, so each replica sees only its own followers.
  uint64_t consumers = 0;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, static_cast<uint64_t>(result));
    PutVarint64(&out, commit_index);
    PutVarint64(&out, last_index);
    PutVarint64(&out, leader_hint);
    PutVarint64(&out, consumers);
    return out;
  }
  static bool Decode(Slice data, ClientTailResponse* out) {
    Decoder dec(data);
    uint64_t r, hint;
    if (!dec.GetVarint64(&r) || !dec.GetVarint64(&out->commit_index) ||
        !dec.GetVarint64(&out->last_index) || !dec.GetVarint64(&hint)) {
      return false;
    }
    out->result = static_cast<ClientResult>(r);
    out->leader_hint = static_cast<NodeId>(hint);
    // Absent in encodings from older replicas; default 0.
    if (!dec.GetVarint64(&out->consumers)) out->consumers = 0;
    return true;
  }
};

}  // namespace memdb::txlog::wire

#endif  // MEMDB_TXLOG_WIRE_H_
