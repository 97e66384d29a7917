// RaftCore: the transaction log's Raft replica as a sans-IO state machine —
// no clock, socket, file, thread or simulator. The simulator's RaftReplica
// actor (txlog/raft.h) and memorydb-txlogd (txlog/service.h) both drive it:
// they feed inputs (peer messages, the time, persist-done notices, client
// proposals) and drain an Output after each one.
//
// The core owns every Raft rule (elections and votes, the AppendEntries
// consistency check, truncation and the match rule, majority commit of
// current-term entries only, the leader-completeness barrier, batch caps,
// the trim bound) and the log service on top (§3.1, §4.1): conditional
// append with (writer, request_id) dedup, tail, committed reads and trim.
//
// Time is a monotonic count in the driver's unit (µs in both drivers): the
// config's durations, spans and the commit-latency histogram use it. An
// entry counts toward the quorum, and a follower acks it, only once the
// driver reports it persisted.

#ifndef MEMDB_TXLOG_RAFT_CORE_H_
#define MEMDB_TXLOG_RAFT_CORE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "txlog/record.h"
#include "txlog/wire.h"

namespace memdb::txlog {

using wire::NodeId;

// Entries per AppendEntries request, and per committed read (a restore's
// tail replay is a run of reads, so they carry more).
inline constexpr size_t kMaxAppendEntries = 64;
inline constexpr size_t kMaxReadEntries = 256;
// Payload bytes per AppendEntries request or read response: the entry caps
// alone let large entries build a frame over rpc::kMaxFrameBytes, which the
// receiver rejects — and the retry would send the same batch forever. One
// entry always goes, whatever its size.
inline constexpr size_t kMaxBatchBytes = 4u << 20;
// Default cap on the (writer, request_id) dedup table.
inline constexpr size_t kDefaultDedupEntries = 65536;

// The replica state that must survive a restart.
struct RaftPersistentState {
  uint64_t current_term = 0;
  NodeId voted_for = wire::kNoNode;
  // log[i] holds the entry with index base_index + i + 1.
  std::deque<LogEntry> log;
  uint64_t base_index = 0;  // entries <= base_index have been trimmed
  uint64_t base_term = 0;
};

struct RaftConfig {
  NodeId self = 0;
  uint64_t heartbeat_interval = 0;
  uint64_t election_timeout_min = 0;
  uint64_t election_timeout_max = 0;
  // Oldest entries are evicted first; a retry arriving after its entry was
  // evicted re-appends (a duplicate). 0 = unbounded.
  size_t dedup_max_entries = kDefaultDedupEntries;
  uint64_t seed = 1;
};

class RaftCore {
 public:
  enum class Role : uint8_t { kFollower, kCandidate, kLeader };
  enum class SendKind : uint8_t { kVote, kAppendEntries };

  // A request to a peer. The driver delivers it and hands the peer's answer
  // (or the call's failure) back with the same epoch.
  struct Send {
    NodeId to = wire::kNoNode;
    SendKind kind = SendKind::kVote;
    uint64_t epoch = 0;
    std::string payload;  // encoded wire::VoteRequest / AppendEntriesRequest
  };
  // The answer to the peer request that arrived with `token`.
  struct Reply {
    uint64_t token = 0;
    std::string payload;  // encoded wire::VoteResponse / AppendEntriesResponse
  };
  // How the proposal that arrived with `token` ended. kOk carries the entry's
  // index, kConditionFailed the current tail.
  struct Outcome {
    uint64_t token = 0;
    wire::ClientResult result = wire::ClientResult::kUnavailable;
    uint64_t index = 0;
    NodeId leader_hint = wire::kNoNode;
  };
  // Log storage past from-1 must come to hold entries [from, to]. After a
  // suffix truncation (`truncated`) the old tail is stale: storage that only
  // appends rewrites instead. Report completion with OnPersisted(to, gen).
  struct LogWrite {
    uint64_t from = 0;  // 0 = nothing to write
    uint64_t to = 0;
    bool truncated = false;
    uint64_t gen = 0;
  };
  // Drained after each input. Persist first (meta, then the log), then send,
  // then answer; after a failed persist, do none of the rest.
  struct Output {
    bool write_meta = false;  // term, vote or base changed
    bool compact = false;     // prefix trimmed: drop it from the log storage
    LogWrite log;
    std::vector<Send> sends;
    std::vector<Reply> replies;
    std::vector<Outcome> outcomes;
    bool committed = false;  // commit index advanced
  };

  // Instruments and spans go to the driver's registry and trace log, so
  // they outlive a core that a restart replaces.
  RaftCore(RaftConfig config, RaftPersistentState state,
           MetricsRegistry* metrics, TraceLog* trace);
  RaftCore(const RaftCore&) = delete;
  RaftCore& operator=(const RaftCore&) = delete;

  // --- inputs ---------------------------------------------------------------
  // Joins the group (peers exclude self) and arms the election timer. A core
  // answers peers before Start but never times out.
  void Start(uint64_t now, std::vector<NodeId> peers);
  // Fires a due election or heartbeat. Drivers tick a few times per
  // heartbeat interval.
  void Tick(uint64_t now);
  void OnVoteRequest(uint64_t now, uint64_t token,
                     const wire::VoteRequest& req);
  void OnVoteResponse(uint64_t now, NodeId from, uint64_t epoch,
                      const wire::VoteResponse& resp);
  void OnAppendEntries(uint64_t now, uint64_t token,
                       wire::AppendEntriesRequest&& req);
  // resp == nullptr: the call failed; the next heartbeat retries.
  void OnAppendEntriesResponse(uint64_t now, NodeId from, uint64_t epoch,
                               const wire::AppendEntriesResponse* resp);
  void OnPersisted(uint64_t now, uint64_t to, uint64_t gen);
  // Conditional append (prev_index == wire::kUnconditional skips the CAS).
  // Always resolves through exactly one Outcome for `token`.
  void Propose(uint64_t now, uint64_t token, uint64_t prev_index,
               LogRecord&& record);
  // Drops history up to `upto`, bounded by the commit index and, on a
  // leader, by every follower's match. Returns the first index kept.
  uint64_t Trim(uint64_t upto);
  // Fails every pending proposal (process shutdown).
  void FailPending();

  bool HasOutput() const;
  Output TakeOutput();

  // --- queries --------------------------------------------------------------
  Role role() const { return role_; }
  bool IsLeader() const { return role_ == Role::kLeader; }
  uint64_t current_term() const { return state_.current_term; }
  NodeId voted_for() const { return state_.voted_for; }
  NodeId leader_hint() const { return leader_hint_; }
  uint64_t commit_index() const { return commit_index_; }
  uint64_t durable_index() const { return durable_index_; }
  uint64_t base_index() const { return state_.base_index; }
  uint64_t base_term() const { return state_.base_term; }
  uint64_t last_index() const { return state_.base_index + state_.log.size(); }
  // nullptr outside (base_index, last_index].
  const LogEntry* entry(uint64_t index) const;
  // kOk on a leader whose barrier committed; else kNotLeader/kUnavailable.
  wire::ClientResult LeaderStatus() const;
  wire::ClientTailResponse Tail() const;
  // Encoded wire::ClientReadResponse: committed entries from `from`, capped
  // at min(max_count, kMaxReadEntries) entries and kMaxBatchBytes.
  std::string EncodeRead(uint64_t from, uint64_t max_count) const;
  // Committed entries in [from, from+count), uncapped (inspection).
  std::vector<LogEntry> CommittedEntries(uint64_t from, size_t count) const;
  // The restart image: term, vote, base and the persisted log prefix —
  // entries the driver never reported persisted are lost with the process.
  RaftPersistentState TakeDurableState() &&;

 private:
  struct Peer {
    uint64_t next = 1;
    uint64_t match = 0;
    bool inflight = false;
    size_t sent = 0;  // entries in the in-flight AppendEntries
    Gauge* lag = nullptr;
  };
  struct PendingReply {
    uint64_t token = 0;
    uint64_t match = 0;
    uint64_t leader_commit = 0;
  };

  size_t Majority() const { return (peers_.size() + 1) / 2 + 1; }
  uint64_t TermAt(uint64_t index) const;
  void SetRole(Role role);
  void ResetElectionTimer(uint64_t now);
  void BecomeFollower(uint64_t now, uint64_t term);
  void StartElection(uint64_t now);
  void BecomeLeader(uint64_t now);
  uint64_t AppendLocal(LogRecord&& record);
  void AppendEntry(LogEntry&& entry);
  void BroadcastAppendEntries();
  void SendAppendEntries(NodeId peer);
  void AdvanceCommitIndex(uint64_t now);
  void SetCommit(uint64_t index);
  void AnswerAppend(uint64_t token, bool success, uint64_t match);
  void ReleaseReplies();
  void TruncateSuffixFrom(uint64_t index);
  void Resolve(uint64_t token, wire::ClientResult result, uint64_t index);
  void DedupInsert(const LogRecord& record, uint64_t index);
  // Entries [from, ...] that fit one batch, at most `max_count`.
  size_t BatchSize(uint64_t from, uint64_t until, size_t max_count) const;

  RaftConfig config_;
  RaftPersistentState state_;
  std::vector<NodeId> peers_;
  bool started_ = false;
  Rng rng_;

  Role role_ = Role::kFollower;
  NodeId leader_hint_ = wire::kNoNode;
  uint64_t commit_index_ = 0;
  uint64_t durable_index_ = 0;
  // Bumped by every suffix truncation; a write issued before one no longer
  // describes the log, and its completion is ignored.
  uint64_t log_gen_ = 0;
  // Invalidates responses to requests sent under an earlier role or term.
  uint64_t epoch_ = 0;
  std::vector<NodeId> votes_;
  uint64_t barrier_index_ = 0;
  uint64_t election_deadline_ = 0;
  uint64_t heartbeat_deadline_ = 0;
  std::map<NodeId, Peer> peer_state_;

  // Follower acks waiting for their entries to be persisted.
  std::deque<PendingReply> pending_replies_;
  // Proposals awaiting commit: index -> tokens (a deduped retry of an
  // in-flight entry waits on the original index).
  std::map<uint64_t, std::vector<uint64_t>> pending_;
  std::map<uint64_t, uint64_t> received_at_;

  // Idempotency: (writer, request_id) -> log index, maintained with the log
  // (inserted on append, removed on suffix truncation) and bounded by
  // config_.dedup_max_entries: dedup_order_ records insertion order and the
  // oldest entries are evicted once the map exceeds the cap. An order slot
  // whose mapping was since replaced or erased is skipped at eviction time,
  // so re-inserted keys get a fresh lifetime.
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> dedup_;
  std::deque<std::pair<std::pair<uint64_t, uint64_t>, uint64_t>> dedup_order_;

  Output out_;

  MetricsRegistry* metrics_;
  TraceLog* trace_;
  Counter* elections_started_;
  Counter* leader_elected_;
  Counter* client_appends_;
  Counter* entries_replicated_;
  Counter* dedup_hits_;
  Counter* dedup_evictions_;
  Counter* trims_;
  Gauge* dedup_entries_gauge_;
  Gauge* base_index_gauge_;
  Gauge* term_gauge_;
  Gauge* commit_gauge_;
  Gauge* role_gauge_;
  Histogram* commit_latency_;
};

}  // namespace memdb::txlog

#endif  // MEMDB_TXLOG_RAFT_CORE_H_
