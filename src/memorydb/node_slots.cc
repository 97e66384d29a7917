// Slot ownership and migration (§5.2): the node-side half of resharding.
// A MigrationCoordinator (src/cluster) drives these handlers:
//
//   data movement    — the source serializes each key of the slot (DUMP)
//                      and streams it to the target, which re-creates it
//                      (RESTORE) through its own transaction log; mutations
//                      of already-transferred keys are forwarded on the
//                      same ordered channel;
//   ownership change — writes to the slot are briefly blocked, a data
//                      integrity digest is compared, and ownership flips
//                      via 2-phase-commit records durably appended to both
//                      shards' transaction logs.

#include <algorithm>
#include <cstddef>
#include <limits>

#include "common/crc.h"
#include "engine/snapshot.h"
#include "memorydb/node.h"
#include "replication/effect_batch.h"

namespace memdb::memorydb {

using sim::Duration;
using sim::Message;
using sim::NodeId;
using resp::Value;

namespace {

// Payload of kSlotOwnership records and db.slot_ownership requests.
struct OwnershipMsg {
  uint8_t phase = 0;  // 1=prepare-source 2=prepare-target
                      // 3=commit-source  4=commit-target
  uint16_t slot = 0;
  uint64_t peer = 0;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, phase);
    PutVarint64(&out, slot);
    PutVarint64(&out, peer);
    return out;
  }
  static bool Decode(Slice data, OwnershipMsg* out) {
    Decoder dec(data);
    uint64_t phase, slot, peer;
    if (!dec.GetVarint64(&phase) || !dec.GetVarint64(&slot) ||
        !dec.GetVarint64(&peer)) {
      return false;
    }
    out->phase = static_cast<uint8_t>(phase);
    out->slot = static_cast<uint16_t>(slot);
    out->peer = peer;
    return true;
  }
};

// The slot's `limit` smallest keys in sorted order. Two nodes holding the
// same keys must digest them identically whatever their tables' iteration
// order, and streaming and deletion in key order do not depend on that
// order either. O(keys + limit log limit).
std::vector<std::string> SortedKeysInSlot(
    const engine::Keyspace& keyspace, uint16_t slot,
    size_t limit = std::numeric_limits<size_t>::max()) {
  std::vector<const std::string*> order;
  for (const auto& [key, entry] : keyspace.KeysInSlot(slot)) {
    order.push_back(&key);
  }
  const auto less = [](const std::string* a, const std::string* b) {
    return *a < *b;
  };
  if (limit < order.size()) {
    std::nth_element(order.begin(),
                     order.begin() + static_cast<std::ptrdiff_t>(limit),
                     order.end(), less);
    order.resize(limit);
  }
  std::sort(order.begin(), order.end(), less);
  std::vector<std::string> keys;
  keys.reserve(order.size());
  for (const std::string* key : order) keys.push_back(*key);
  return keys;
}

}  // namespace

void Node::SetSlotState(uint16_t slot, SlotState state, NodeId peer) {
  if (state == SlotState::kOwned) {
    slots_.erase(slot);
    return;
  }
  SlotInfo& info = slots_[slot];
  info.state = state;
  info.peer = peer;
}

Node::SlotState Node::slot_state(uint16_t slot) const {
  auto it = slots_.find(slot);
  return it == slots_.end() ? SlotState::kOwned : it->second.state;
}

Value Node::CheckSlotAccess(const std::vector<engine::Argv>& commands,
                            bool has_write, std::vector<std::string>* keys,
                            uint16_t* slot_out) {
  for (const engine::Argv& argv : commands) {
    const engine::CommandSpec* spec = engine_.FindCommand(argv[0]);
    if (spec == nullptr) continue;
    for (auto& k : engine::Engine::CommandKeys(*spec, argv)) {
      keys->push_back(std::move(k));
    }
  }
  if (keys->empty()) return Value::Null();  // keyless commands always run

  const uint16_t slot = KeyHashSlot((*keys)[0]);
  *slot_out = slot;
  for (const std::string& k : *keys) {
    if (KeyHashSlot(k) != slot) {
      return Value::Error(
          "CROSSSLOT Keys in request don't hash to the same slot");
    }
  }
  auto it = slots_.find(slot);
  if (it == slots_.end()) return Value::Null();  // owned
  switch (it->second.state) {
    case SlotState::kOwned:
    case SlotState::kImporting:
      return Value::Null();
    case SlotState::kNotOwned:
      return Value::Error(client::MovedError(slot, it->second.peer));
    case SlotState::kBlocked:
      // Only *new write operations* are blocked during the ownership
      // handshake (§5.2); reads keep flowing.
      if (has_write) return Value::Error("TRYAGAIN slot is being migrated");
      return Value::Null();
    case SlotState::kMigrating: {
      // Keys still present are served here; transferred-and-deleted or
      // never-existing keys are redirected with ASK.
      for (const std::string& k : *keys) {
        if (engine_.keyspace().FindRaw(k) == nullptr) {
          return Value::Error(client::AskError(slot, it->second.peer));
        }
      }
      return Value::Null();
    }
  }
  return Value::Null();
}

void Node::ApplyAndReplicate(const std::vector<engine::Argv>& effects) {
  for (const engine::Argv& argv : effects) {
    engine_.Apply(argv, Now() / 1000);
  }
  const uint64_t seq = next_batch_seq_++;
  std::vector<std::string> keys;
  for (const engine::Argv& argv : effects) {
    const engine::CommandSpec* spec = engine_.FindCommand(argv[0]);
    if (spec == nullptr) continue;
    for (std::string& k : engine::Engine::CommandKeys(*spec, argv)) {
      keys.push_back(std::move(k));
    }
  }
  tracker_.Write(seq, keys, /*keyspace=*/false);
  SubmitToGate(seq, txlog::RecordType::kData,
               replication::EncodeEffectBatch(config_.engine_version, effects));
}

// ----------------------------------------------------------- source side

void Node::ForwardEffects(uint16_t slot, const std::vector<engine::Argv>& effects) {
  migration_queue_[slot].emplace_back(
      "db.slot_apply",
      replication::EncodeEffectBatch(config_.engine_version, effects));
  PumpMigrationQueue(slot);
}

void Node::StreamMigratingSlot(uint16_t slot) {
  // Serialize every key currently in the slot into ordered RESTORE batches;
  // they ride the same channel, and codec, as forwarded mutations.
  const std::vector<std::string> snapshot_keys =
      SortedKeysInSlot(engine_.keyspace(), slot);
  constexpr size_t kBatch = 16;
  for (size_t i = 0; i < snapshot_keys.size(); i += kBatch) {
    std::vector<engine::Argv> restores;
    const size_t end = std::min(snapshot_keys.size(), i + kBatch);
    for (size_t j = i; j < end; ++j) {
      const engine::Keyspace::Entry* e = engine_.keyspace().FindRaw(snapshot_keys[j]);
      if (e == nullptr) continue;
      std::string dump;
      engine::SerializeValue(e->value, &dump);
      PutFixed64(&dump, Crc64(0, dump.data(), dump.size()));
      restores.push_back({"RESTORE", snapshot_keys[j],
                          std::to_string(e->expire_at_ms()), std::move(dump),
                          "REPLACE", "ABSTTL"});
    }
    if (!restores.empty()) ForwardEffects(slot, restores);
  }
  // End-of-stream marker (consumed locally by the pump).
  migration_queue_[slot].emplace_back("__stream_done", "");
  PumpMigrationQueue(slot);
}

void Node::PumpMigrationQueue(uint16_t slot) {
  if (migration_rpc_inflight_[slot]) return;
  auto& queue = migration_queue_[slot];
  while (!queue.empty() && queue.front().first == "__stream_done") {
    slots_[slot].stream_done = true;
    queue.pop_front();
  }
  if (queue.empty()) return;
  auto it = slots_.find(slot);
  if (it == slots_.end() || it->second.peer == sim::kInvalidNode) return;
  migration_rpc_inflight_[slot] = true;
  auto [type, payload] = queue.front();
  const uint64_t epoch = epoch_;
  Rpc(it->second.peer, type, payload, 2 * sim::kSec,
      [this, slot, epoch](const Status& s, const std::string&) {
        if (!alive() || epoch != epoch_) return;
        migration_rpc_inflight_[slot] = false;
        if (s.ok()) migration_queue_[slot].pop_front();
        // On failure the same message is retried (idempotent RESTOREs).
        After(s.ok() ? 0 : 20 * sim::kMs,
              [this, slot] { PumpMigrationQueue(slot); });
      });
}

// ----------------------------------------------------------- handlers

void Node::RegisterSlotHandlers() {
  On("db.health", [this](const Message& m) {
    std::string out;
    PutVarint64(&out, static_cast<uint64_t>(role_));
    PutVarint64(&out, applied_index_);
    Reply(m, std::move(out));
  });

  // Coordinator -> target: start accepting the slot.
  On("db.slot_set_importing", [this](const Message& m) {
    Decoder dec(m.payload);
    uint64_t slot, source;
    if (!dec.GetVarint64(&slot) || !dec.GetVarint64(&source)) return;
    SetSlotState(static_cast<uint16_t>(slot), SlotState::kImporting,
                 static_cast<NodeId>(source));
    Reply(m, "");
  });

  // Coordinator -> source: begin the data movement phase.
  On("db.slot_migrate_start", [this](const Message& m) {
    Decoder dec(m.payload);
    uint64_t slot, target;
    if (!dec.GetVarint64(&slot) || !dec.GetVarint64(&target)) return;
    if (role_ != DbRole::kPrimary) {
      ReplyError(m, Status::Unavailable("not primary"));
      return;
    }
    SetSlotState(static_cast<uint16_t>(slot), SlotState::kMigrating,
                 static_cast<NodeId>(target));
    slots_[static_cast<uint16_t>(slot)].stream_done = false;
    StreamMigratingSlot(static_cast<uint16_t>(slot));
    Reply(m, "");
  });

  // Source -> target: RESTOREs of the slot's keys, then forwarded
  // mutations of keys already transferred.
  On("db.slot_apply", [this](const Message& m) {
    if (role_ != DbRole::kPrimary) {
      ReplyError(m, Status::Unavailable("not primary"));
      return;
    }
    std::string version;
    std::vector<engine::Argv> effects;
    if (!replication::DecodeEffectBatch(Slice(m.payload), &version,
                                        &effects)) {
      return;
    }
    if (!effects.empty()) ApplyAndReplicate(effects);
    Reply(m, "");
  });

  // Coordinator -> source: data-movement progress.
  On("db.slot_migrate_status", [this](const Message& m) {
    Decoder dec(m.payload);
    uint64_t slot;
    if (!dec.GetVarint64(&slot)) return;
    std::string out;
    auto it = slots_.find(static_cast<uint16_t>(slot));
    const bool stream_done = it != slots_.end() && it->second.stream_done;
    const bool queue_empty =
        migration_queue_[static_cast<uint16_t>(slot)].empty();
    PutVarint64(&out, stream_done && queue_empty ? 1 : 0);
    Reply(m, std::move(out));
  });

  // Coordinator -> source: block writes, wait for in-progress operations to
  // finish propagating to both transaction logs (§5.2).
  On("db.slot_block", [this](const Message& m) {
    Decoder dec(m.payload);
    uint64_t slot;
    if (!dec.GetVarint64(&slot)) return;
    SetSlotState(static_cast<uint16_t>(slot), SlotState::kBlocked,
                 slots_.count(static_cast<uint16_t>(slot))
                     ? slots_[static_cast<uint16_t>(slot)].peer
                     : sim::kInvalidNode);
    // Reply once the append pipeline and the migration channel drain; the
    // check self-reschedules every few milliseconds until then.
    WaitForDrainThenReply(m, static_cast<uint16_t>(slot));
  });

  // Data integrity handshake: digest of the slot's content.
  On("db.slot_digest", [this](const Message& m) {
    Decoder dec(m.payload);
    uint64_t slot;
    if (!dec.GetVarint64(&slot)) return;
    uint64_t crc = 0;
    uint64_t count = 0;
    for (const std::string& key :
         SortedKeysInSlot(engine_.keyspace(), static_cast<uint16_t>(slot))) {
      const engine::Keyspace::Entry* e = engine_.keyspace().FindRaw(key);
      std::string buf;
      PutLengthPrefixed(&buf, key);
      PutFixed64(&buf, e->expire_at_ms());
      engine::SerializeValue(e->value, &buf);
      crc = Crc64(crc, buf.data(), buf.size());
      ++count;
    }
    std::string out;
    PutVarint64(&out, count);
    PutFixed64(&out, crc);
    // `pending` tells the coordinator our log gate has not drained yet.
    PutVarint64(&out, gate_ == nullptr || gate_->idle() ? 0 : 1);
    Reply(m, std::move(out));
  });

  // 2PC ownership records, durably appended to this shard's log.
  On("db.slot_ownership", [this](const Message& m) { HandleSlotOwnership(m); });

  // Coordinator -> any node: authoritative slot owner hint (control-plane /
  // cluster-bus role propagation).
  On("db.slot_update", [this](const Message& m) {
    Decoder dec(m.payload);
    uint64_t slot, owner;
    if (!dec.GetVarint64(&slot) || !dec.GetVarint64(&owner)) return;
    if (static_cast<NodeId>(owner) == id() ||
        (role_ == DbRole::kPrimary && static_cast<NodeId>(owner) == id())) {
      SetSlotState(static_cast<uint16_t>(slot), SlotState::kOwned);
    } else {
      SetSlotState(static_cast<uint16_t>(slot), SlotState::kNotOwned,
                   static_cast<NodeId>(owner));
    }
    Reply(m, "");
  });

  // Coordinator -> source/target: migration failed (the abort path of
  // §5.2). payload = {slot, resume_owned}: the source resumes serving the
  // slot; the target discards the transferred data.
  On("db.slot_abort", [this](const Message& m) {
    Decoder dec(m.payload);
    uint64_t slot, resume_owned = 1;
    if (!dec.GetVarint64(&slot)) return;
    dec.GetVarint64(&resume_owned);
    migration_queue_[static_cast<uint16_t>(slot)].clear();
    if (resume_owned != 0) {
      SetSlotState(static_cast<uint16_t>(slot), SlotState::kOwned);
    } else {
      // Target side: delete everything that was transferred, then treat
      // the slot as foreign again.
      SetSlotState(static_cast<uint16_t>(slot), SlotState::kNotOwned,
                   m.from);
      if (role_ == DbRole::kPrimary) {
        BackgroundDeleteSlot(static_cast<uint16_t>(slot));
      }
    }
    Reply(m, "");
  });
}

void Node::HandleSlotOwnership(const Message& m) {
  OwnershipMsg msg;
  if (!OwnershipMsg::Decode(m.payload, &msg)) return;
  if (role_ != DbRole::kPrimary) {
    ReplyError(m, Status::Unavailable("not primary"));
    return;
  }
  const uint64_t seq = next_batch_seq_++;
  // The coordinator's OK waits for the record like a write's reply.
  tracker_.Write(seq, {}, /*keyspace=*/false, AwaitReply(m, ReqTrace{}),
                 Value::Ok().Encode());
  SubmitToGate(seq, txlog::RecordType::kSlotOwnership, msg.Encode());
  // State transition happens when the record commits; the primary applies
  // it immediately here (replicas apply it from the log).
  ApplySlotOwnershipRecord([&] {
    txlog::LogRecord r;
    r.payload = msg.Encode();
    return r;
  }());
}

void Node::ApplySlotOwnershipRecord(const txlog::LogRecord& record) {
  OwnershipMsg msg;
  if (!OwnershipMsg::Decode(record.payload, &msg)) return;
  switch (msg.phase) {
    case 1:  // prepare on the source: writes stay blocked
      SetSlotState(msg.slot, SlotState::kBlocked,
                   static_cast<NodeId>(msg.peer));
      break;
    case 2:  // prepare on the target: keep importing
      SetSlotState(msg.slot, SlotState::kImporting,
                   static_cast<NodeId>(msg.peer));
      break;
    case 3:  // commit on the source: ownership gone; clean up in background
      SetSlotState(msg.slot, SlotState::kNotOwned,
                   static_cast<NodeId>(msg.peer));
      if (role_ == DbRole::kPrimary) BackgroundDeleteSlot(msg.slot);
      break;
    case 4:  // commit on the target: slot is ours
      SetSlotState(msg.slot, SlotState::kOwned);
      break;
    default:
      break;
  }
}

void Node::WaitForDrainThenReply(const Message& m, uint16_t slot) {
  if ((gate_ == nullptr || gate_->idle()) && migration_queue_[slot].empty()) {
    Reply(m, "");
    return;
  }
  After(5 * sim::kMs, [this, m, slot] { WaitForDrainThenReply(m, slot); });
}

void Node::BackgroundDeleteSlot(uint16_t slot) {
  // Rate-limited deletion of transferred keys (§5.2), replicated as DELs so
  // source replicas clean up too.
  std::vector<std::string> keys =
      SortedKeysInSlot(engine_.keyspace(), slot, 32);
  if (keys.empty()) return;
  std::vector<engine::Argv> dels;
  for (std::string& key : keys) dels.push_back({"DEL", std::move(key)});
  ApplyAndReplicate(dels);
  After(20 * sim::kMs, [this, slot] {
    if (role_ == DbRole::kPrimary) BackgroundDeleteSlot(slot);
  });
}

}  // namespace memdb::memorydb
