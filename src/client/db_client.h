// DbClient: cluster-aware client component, the moral equivalent of a Redis
// cluster client library. Owns the slot -> node routing table learned from
// MOVED/ASK redirects (§2.1: clients route requests themselves), retries
// around failovers, and supports the READONLY replica-read opt-in.

#ifndef MEMDB_CLIENT_DB_CLIENT_H_
#define MEMDB_CLIENT_DB_CLIENT_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "client/db_wire.h"
#include "resp/resp.h"
#include "sim/actor.h"

namespace memdb::client {

class DbClient {
 public:
  using CommandCallback = std::function<void(const resp::Value&)>;

  struct Options {
    sim::Duration rpc_timeout = 300 * sim::kMs;
    sim::Duration retry_backoff = 25 * sim::kMs;
    int max_attempts = 30;
  };

  DbClient() = default;
  DbClient(sim::Actor* owner, std::vector<sim::NodeId> nodes);
  DbClient(sim::Actor* owner, std::vector<sim::NodeId> nodes, Options options);

  // Routes to the primary owning the command's key (argv[1] by convention);
  // retries through redirects and failovers. The callback receives the
  // final reply (an error Value if attempts are exhausted).
  void Command(std::vector<std::string> argv, CommandCallback cb);

  // Replica read: sends with the READONLY flag to a replica-eligible node
  // (round-robin across the cluster), falling back to the primary.
  void CommandReadonly(std::vector<std::string> argv, CommandCallback cb);

  // MULTI/EXEC transaction; all commands execute and replicate atomically.
  void Multi(std::vector<std::vector<std::string>> commands,
             CommandCallback cb);

  // Expands the node set (topology discovery during scaling).
  void AddNode(sim::NodeId node);

 private:
  void Attempt(std::string type, std::string payload, uint16_t slot,
               bool readonly, int attempts_left, CommandCallback cb,
               sim::NodeId forced_target);
  sim::NodeId TargetFor(uint16_t slot, bool readonly);
  static uint16_t SlotOf(const std::vector<std::string>& argv);

  sim::Actor* owner_ = nullptr;
  std::vector<sim::NodeId> nodes_;
  Options options_;
  std::map<uint16_t, sim::NodeId> slot_owner_;
  sim::NodeId default_primary_ = sim::kInvalidNode;
  size_t round_robin_ = 0;
};

// A simulated client host: one actor owning one DbClient, the shape tests
// and benches drive the simulated shard and cluster through.
class ClientActor : public sim::Actor {
 public:
  ClientActor(sim::Simulation* sim, sim::NodeId id,
              std::vector<sim::NodeId> nodes)
      : Actor(sim, id), db(this, std::move(nodes)) {}
  DbClient db;
};

}  // namespace memdb::client

#endif  // MEMDB_CLIENT_DB_CLIENT_H_
