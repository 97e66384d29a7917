// TxLogClient: the database node's handle to one shard's transaction log.
// Wraps leader discovery, redirects, bounded retries, and the append
// indeterminacy contract:
//
//   OK               -> entry committed at `index`
//   ConditionFailed  -> precondition stale; `index` holds the actual tail
//   Unavailable      -> determinate failure (entry NOT appended)
//   TimedOut         -> INDETERMINATE: the entry may or may not have been
//                       committed; the caller must resolve by reading the
//                       log (MemoryDB nodes match on writer/request_id)
//
// This is the §3.2 boundary: a write whose commit is not acknowledged must
// not become visible, so the caller keeps replies blocked until resolution.

#ifndef MEMDB_TXLOG_CLIENT_H_
#define MEMDB_TXLOG_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/actor.h"
#include "txlog/record.h"
#include "txlog/wire.h"

namespace memdb::txlog {

class TxLogClient {
 public:
  using AppendCallback = std::function<void(const Status&, uint64_t index)>;
  using ReadCallback =
      std::function<void(const Status&, const wire::ClientReadResponse&)>;
  using TailCallback =
      std::function<void(const Status&, const wire::ClientTailResponse&)>;

  struct Options {
    sim::Duration rpc_timeout = 150 * sim::kMs;
    sim::Duration retry_backoff = 20 * sim::kMs;
    int max_attempts = 8;
  };

  TxLogClient() = default;
  TxLogClient(sim::Actor* owner, std::vector<sim::NodeId> replicas);
  TxLogClient(sim::Actor* owner, std::vector<sim::NodeId> replicas,
              Options options);

  bool valid() const { return owner_ != nullptr; }

  // Conditional append (wire::kUnconditional skips the precondition).
  void Append(uint64_t prev_index, LogRecord record, AppendCallback cb);

  // Stops every append made so far: none is sent again and none calls
  // back. A request already on its way may still land.
  void CancelAppends() { ++append_epoch_; }

  // Committed entries from `from_index`, served by any replica.
  void Read(uint64_t from_index, uint64_t max_count, ReadCallback cb);

  // Linearizable tail query (leader only).
  void Tail(TailCallback cb);

  // Compaction hint; best-effort fan-out to every replica.
  void Trim(uint64_t upto_index);

  const std::vector<sim::NodeId>& replicas() const { return replicas_; }

 private:
  sim::NodeId PickTarget();
  void AppendAttempt(uint64_t prev_index, const LogRecord& record,
                     AppendCallback cb, int attempts_left, bool sent_once,
                     uint64_t epoch);
  void TailAttempt(TailCallback cb, int attempts_left);

  sim::Actor* owner_ = nullptr;
  std::vector<sim::NodeId> replicas_;
  Options options_;
  sim::NodeId leader_hint_ = sim::kInvalidNode;
  size_t round_robin_ = 0;
  uint64_t append_epoch_ = 0;  // bumped by CancelAppends
};

}  // namespace memdb::txlog

#endif  // MEMDB_TXLOG_CLIENT_H_
