// Fundamental types for the deterministic discrete-event simulation.

#ifndef MEMDB_SIM_TYPES_H_
#define MEMDB_SIM_TYPES_H_

#include <cstdint>
#include <limits>
#include <string>

namespace memdb::sim {

// Virtual time, in microseconds since simulation start.
using Time = uint64_t;
// Durations, also microseconds.
using Duration = uint64_t;

inline constexpr Duration kUs = 1;
inline constexpr Duration kMs = 1000;
inline constexpr Duration kSec = 1000 * 1000;

// Identifies a simulated host (a process-on-a-machine). Node 0 is valid.
using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

// Availability Zone index (the paper's deployments span 3 AZs).
using AzId = uint8_t;
inline constexpr int kNumAzs = 3;

// A message in flight between two hosts. `rpc_id` correlates a response to a
// pending request (0 for one-way messages).
struct Message {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  std::string type;      // handler dispatch key, e.g. "txlog.Tail"
  std::string payload;   // opaque serialized body
  uint64_t rpc_id = 0;
  bool is_response = false;
  // For responses: a memdb::StatusCode value (0 = OK). On a non-OK response
  // the payload carries the status message.
  uint8_t status_code = 0;
};

}  // namespace memdb::sim

#endif  // MEMDB_SIM_TYPES_H_
