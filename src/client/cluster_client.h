// ClusterClient: real-socket cluster-aware client — the wire counterpart of
// the simulated DbClient. Learns the slot -> endpoint map from CLUSTER
// SLOTS, caches it, routes each keyed command by CRC16 hash slot (§2.1:
// clients route requests themselves), and follows the redirect protocol:
//
//   -MOVED <slot> <endpoint>   ownership changed: update the cached map,
//                              refresh it from the new owner, retry there.
//   -ASK <slot> <endpoint>     slot is mid-migration and this key already
//                              moved: retry once at the target, prefixed
//                              with ASKING; the map is NOT updated.
//   -TRYAGAIN ...              key is in transit this instant: back off and
//                              retry at the same node.
//
// Redirect-following is bounded (Options::max_hops redirects and
// kMaxTryAgain retries per command) so a stale or disagreeing topology
// degrades into an error, never a spin.
//
// Threading: an instance is owned by one thread (bench worker, test body).
// One blocking RespConn per endpoint — this is client-side code, never an
// event loop.

#ifndef MEMDB_CLIENT_CLUSTER_CLIENT_H_
#define MEMDB_CLIENT_CLUSTER_CLIENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "client/resp_conn.h"
#include "common/status.h"
#include "resp/resp.h"

namespace memdb::client {

class ClusterClient {
 public:
  struct Options {
    uint64_t recv_timeout_ms = 2000;  // connect/send/reply deadline
    int max_hops = 8;                 // MOVED/ASK redirects per command
  };
  // TRYAGAIN retries per command, and the pause before each.
  static constexpr int kMaxTryAgain = 40;
  static constexpr uint64_t kTryAgainBackoffMs = 5;

  // `seeds`: "host:port" endpoints used for the initial slot-map fetch and
  // as fallbacks when the cached owner of a slot is unreachable.
  explicit ClusterClient(std::vector<std::string> seeds, Options options);
  explicit ClusterClient(std::vector<std::string> seeds);
  ~ClusterClient();
  ClusterClient(const ClusterClient&) = delete;
  ClusterClient& operator=(const ClusterClient&) = delete;

  // Fetches CLUSTER SLOTS from the first reachable known endpoint and
  // replaces the cached map. Called lazily by Execute when the map is
  // empty; callable directly to warm up.
  Status RefreshSlotMap();

  // Executes one command, routing by the hash slot of argv[1] (keyless
  // commands go to any reachable node). Follows redirects per the table
  // above. A non-OK status means the budget was exhausted or no node was
  // reachable; redirect errors themselves are never surfaced.
  Status Execute(const std::vector<std::string>& argv, resp::Value* reply);

  // Cached owner endpoint for a slot ("" when unknown). Tests use this to
  // observe map updates; it never triggers I/O.
  std::string EndpointForSlot(uint16_t slot) const;

  // "MOVED 42 127.0.0.1:7001" -> (42, "127.0.0.1:7001"); false when the
  // error is not a well-formed redirect of the given kind ("MOVED"/"ASK").
  static bool ParseRedirect(const std::string& error, const char* kind,
                            uint16_t* slot, std::string* endpoint);

  // Redirect / retry observability for tests and benches.
  uint64_t moved_redirects() const { return moved_redirects_; }
  uint64_t ask_redirects() const { return ask_redirects_; }
  uint64_t tryagain_retries() const { return tryagain_retries_; }
  uint64_t map_refreshes() const { return map_refreshes_; }

 private:
  // False on connect/send/recv/protocol failure; the connection is closed.
  bool RoundTrip(const std::string& endpoint,
                 const std::vector<std::string>& argv, resp::Value* reply,
                 bool asking);
  // All endpoints worth probing: cached owners, then seeds.
  std::vector<std::string> KnownEndpoints() const;
  Status RefreshSlotMapFrom(const std::string& endpoint);

  const std::vector<std::string> seeds_;
  const Options options_;
  std::map<std::string, RespConn> conns_;
  std::vector<std::string> slot_owner_;  // 16384 entries, "" = unknown

  uint64_t moved_redirects_ = 0;
  uint64_t ask_redirects_ = 0;
  uint64_t tryagain_retries_ = 0;
  uint64_t map_refreshes_ = 0;
};

}  // namespace memdb::client

#endif  // MEMDB_CLIENT_CLUSTER_CLIENT_H_
