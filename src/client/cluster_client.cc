#include "client/cluster_client.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "common/crc.h"
#include "common/slice.h"

namespace memdb::client {

namespace {

bool ErrorHasPrefix(const resp::Value& v, const char* prefix) {
  return v.type == resp::Type::kError &&
         v.str.compare(0, std::strlen(prefix), prefix) == 0;
}

}  // namespace

ClusterClient::ClusterClient(std::vector<std::string> seeds, Options options)
    : seeds_(std::move(seeds)),
      options_(options),
      slot_owner_(static_cast<size_t>(kNumSlots)) {}

ClusterClient::ClusterClient(std::vector<std::string> seeds)
    : ClusterClient(std::move(seeds), Options()) {}

ClusterClient::~ClusterClient() = default;

bool ClusterClient::RoundTrip(const std::string& endpoint,
                              const std::vector<std::string>& argv,
                              resp::Value* reply, bool asking) {
  RespConn& conn = conns_[endpoint];
  if (!conn.connected() && !conn.Connect(endpoint, options_.recv_timeout_ms)) {
    return false;
  }
  // ASKING is pipelined with the command: one write, two replies. The
  // server consumes the one-shot flag on the very next command, so there is
  // no window for another command to steal it (one thread owns this
  // client).
  std::string frame;
  if (asking) frame += resp::EncodeCommand({"ASKING"});
  frame += resp::EncodeCommand(argv);
  resp::Value ask_reply;
  if (conn.Send(frame) && (!asking || conn.ReadReply(&ask_reply)) &&
      conn.ReadReply(reply)) {
    return true;
  }
  conn.Close();
  return false;
}

std::vector<std::string> ClusterClient::KnownEndpoints() const {
  std::vector<std::string> out;
  const auto push_unique = [&out](const std::string& ep) {
    if (ep.empty()) return;
    for (const std::string& have : out) {
      if (have == ep) return;
    }
    out.push_back(ep);
  };
  for (const std::string& ep : slot_owner_) push_unique(ep);
  for (const std::string& ep : seeds_) push_unique(ep);
  return out;
}

Status ClusterClient::RefreshSlotMap() {
  Status last = Status::Unavailable("no endpoints known");
  for (const std::string& ep : KnownEndpoints()) {
    last = RefreshSlotMapFrom(ep);
    if (last.ok()) return last;
  }
  return last;
}

Status ClusterClient::RefreshSlotMapFrom(const std::string& endpoint) {
  resp::Value reply;
  if (!RoundTrip(endpoint, {"CLUSTER", "SLOTS"}, &reply, false)) {
    return Status::Unavailable("CLUSTER SLOTS round trip to " + endpoint +
                               " failed");
  }
  if (reply.type != resp::Type::kArray) {
    return Status::InvalidArgument("unexpected CLUSTER SLOTS reply");
  }
  std::vector<std::string> fresh(static_cast<size_t>(kNumSlots));
  for (const resp::Value& range : reply.array) {
    // [start, end, [host, port, shard-id]]
    if (range.type != resp::Type::kArray || range.array.size() < 3 ||
        range.array[2].type != resp::Type::kArray ||
        range.array[2].array.size() < 2) {
      return Status::InvalidArgument("malformed CLUSTER SLOTS range");
    }
    const int64_t start = range.array[0].integer;
    const int64_t end = range.array[1].integer;
    if (start < 0 || end < start || end >= kNumSlots) {
      return Status::InvalidArgument("CLUSTER SLOTS range out of bounds");
    }
    const std::string ep = range.array[2].array[0].str + ":" +
                           std::to_string(range.array[2].array[1].integer);
    for (int64_t s = start; s <= end; ++s) {
      fresh[static_cast<size_t>(s)] = ep;
    }
  }
  slot_owner_ = std::move(fresh);
  ++map_refreshes_;
  return Status::OK();
}

std::string ClusterClient::EndpointForSlot(uint16_t slot) const {
  if (slot >= slot_owner_.size()) return std::string();
  return slot_owner_[slot];
}

bool ClusterClient::ParseRedirect(const std::string& error, const char* kind,
                                  uint16_t* slot, std::string* endpoint) {
  const size_t kind_len = std::strlen(kind);
  if (error.compare(0, kind_len, kind) != 0 || error.size() <= kind_len ||
      error[kind_len] != ' ') {
    return false;
  }
  const size_t slot_start = kind_len + 1;
  const size_t space = error.find(' ', slot_start);
  if (space == std::string::npos || space + 1 >= error.size()) return false;
  char* end = nullptr;
  const unsigned long v =
      std::strtoul(error.c_str() + slot_start, &end, 10);
  if (end != error.c_str() + space || v >= static_cast<unsigned long>(kNumSlots)) {
    return false;
  }
  *slot = static_cast<uint16_t>(v);
  *endpoint = error.substr(space + 1);
  return true;
}

Status ClusterClient::Execute(const std::vector<std::string>& argv,
                              resp::Value* reply) {
  if (argv.empty()) return Status::InvalidArgument("empty command");

  // Route by argv[1] (the near-universal key position; keyless commands go
  // anywhere). A wrong guess self-corrects via -MOVED.
  std::string target;
  if (argv.size() >= 2) {
    const uint16_t slot = KeyHashSlot(Slice(argv[1]));
    if (slot_owner_[slot].empty()) {
      // lint:allow-discard -- lazy warm-up; an empty owner falls through to
      // the any-node path and self-corrects via -MOVED.
      (void)RefreshSlotMap();
    }
    target = slot_owner_[slot];
  }

  int hops = 0;
  int tryagains = 0;
  int connect_failures = 0;
  bool asking = false;
  for (;;) {
    if (target.empty()) {
      // Unknown owner: probe anything reachable; MOVED will correct us.
      const std::vector<std::string> known = KnownEndpoints();
      if (known.empty()) return Status::Unavailable("no endpoints known");
      target = known[static_cast<size_t>(connect_failures) % known.size()];
    }
    if (!RoundTrip(target, argv, reply, asking)) {
      if (++connect_failures > static_cast<int>(KnownEndpoints().size()) + 1) {
        return Status::Unavailable("no cluster node reachable for command");
      }
      // The cached owner may be gone; rebuild the map from survivors and
      // let the retry pick a fresh target.
      // lint:allow-discard -- best-effort: a failed refresh leaves the stale
      // map and the retry loop probes/follows MOVED until the budget runs out.
      (void)RefreshSlotMap();
      target.clear();
      asking = false;
      continue;
    }
    if (reply->type != resp::Type::kError) return Status::OK();

    uint16_t slot = 0;
    std::string redirect_ep;
    if (ParseRedirect(reply->str, "MOVED", &slot, &redirect_ep)) {
      if (++hops > options_.max_hops) {
        return Status::Unavailable("redirect hop budget exhausted");
      }
      ++moved_redirects_;
      // Trust the redirect immediately, then refresh the whole map — one
      // MOVED usually means a whole range flipped.
      slot_owner_[slot] = redirect_ep;
      // lint:allow-discard -- best-effort: the redirect target above is
      // already trusted; a failed whole-map refresh just means more MOVEDs.
      (void)RefreshSlotMapFrom(redirect_ep);
      target = redirect_ep;
      asking = false;
      continue;
    }
    if (ParseRedirect(reply->str, "ASK", &slot, &redirect_ep)) {
      if (++hops > options_.max_hops) {
        return Status::Unavailable("redirect hop budget exhausted");
      }
      ++ask_redirects_;
      // One-shot detour; ownership has not changed, so no map update.
      target = redirect_ep;
      asking = true;
      continue;
    }
    if (ErrorHasPrefix(*reply, "TRYAGAIN")) {
      if (++tryagains > kMaxTryAgain) {
        return Status::Unavailable("TRYAGAIN budget exhausted");
      }
      ++tryagain_retries_;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(kTryAgainBackoffMs));
      asking = false;
      continue;
    }
    // Any other error (-ERR, -READONLY, ...) is the command's real reply.
    return Status::OK();
  }
}

}  // namespace memdb::client
