#include "chaos/workload.h"

#include <chrono>

#include "client/resp_conn.h"

namespace memdb::chaos {

namespace {
void SleepMs(uint64_t ms) {
  // lint:allow-blocking — chaos driver thread, never an event loop.
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

bool IsReadonlyError(const resp::Value& v) {
  return v.IsError() && v.str.rfind("READONLY", 0) == 0;
}
}  // namespace

WireWorkload::WireWorkload(Options options, HistoryRecorder* recorder)
    : options_(std::move(options)), recorder_(recorder) {
  MutexLock lock(&mu_);
  ports_ = options_.ports;
}

WireWorkload::~WireWorkload() { Stop(); }

// lint:off-loop -- the test driver thread spawning the client threads.
void WireWorkload::Start() {
  stop_.store(false, std::memory_order_release);
  threads_.reserve(static_cast<size_t>(options_.clients));
  for (int i = 0; i < options_.clients; ++i) {
    threads_.emplace_back([this, i] { ClientMain(i); });
  }
}

void WireWorkload::Stop() {
  stop_.store(true, std::memory_order_release);
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

void WireWorkload::AddPort(uint16_t port) {
  MutexLock lock(&mu_);
  for (const uint16_t p : ports_) {
    if (p == port) return;
  }
  ports_.push_back(port);
}

std::vector<uint16_t> WireWorkload::SnapshotPorts() {
  MutexLock lock(&mu_);
  return ports_;
}

// lint:off-loop -- chaos client thread body, never an event loop.
void WireWorkload::ClientMain(int client_idx) {
  client::RespConn sock;
  size_t target = static_cast<size_t>(client_idx);
  uint64_t seq = 0;
  // A connection is "verified" once a SET was acked on it: only the node
  // holding the shard lease acks writes (the fenced append chain), so a
  // verified connection is talking to the primary. GETs are issued ONLY on
  // verified connections — a GET answered by a replica (or a demoted
  // primary) would be a stale-but-determinate read, unsound to linearize.
  // The server closes every connection when it demotes, so verification
  // cannot silently outlive primaryship; the lease-validity read gate on
  // the server covers the remaining in-flight window.
  bool verified = false;
  while (!stop_.load(std::memory_order_acquire)) {
    if (!sock.connected()) {
      verified = false;
      const std::vector<uint16_t> ports = SnapshotPorts();
      if (ports.empty()) return;
      if (!sock.Connect(ports[target % ports.size()],
                        options_.recv_timeout_ms)) {
        ++target;
        SleepMs(options_.reconnect_backoff_ms);
        continue;
      }
    }
    const std::string key =
        KeyName((client_idx + static_cast<int>(seq)) % options_.keys);
    const bool is_write = !verified || (seq % 2) == 0;
    std::vector<std::string> argv;
    std::string value;
    if (is_write) {
      value = "c" + std::to_string(client_idx) + "-" + std::to_string(seq);
      argv = {"SET", key, value};
    } else {
      argv = {"GET", key};
    }
    ++seq;
    const uint64_t id = recorder_->BeginOp(client_idx, argv);
    if (!sock.SendCommand(argv)) {
      // The frame never fully left this process: the server cannot parse a
      // complete command, so the op provably did not execute.
      recorder_->Drop(id);
      sock.Close();
      ++target;
      continue;
    }
    resp::Value reply;
    if (!sock.ReadReply(&reply)) {
      // The command may have reached the server and executed; only the
      // reply is lost. Writes must stay in the history as indeterminate.
      if (is_write) {
        recorder_->EndOpIndeterminate(id);
      } else {
        recorder_->Drop(id);
      }
      sock.Close();
      ++target;
      continue;
    }
    if (IsReadonlyError(reply)) {
      // Replica / promoting / fenced node: the write was refused before
      // executing. Rotate toward the (new) primary.
      recorder_->Drop(id);
      sock.Close();
      ++target;
      SleepMs(options_.reconnect_backoff_ms);
      continue;
    }
    if (reply.IsError()) {
      // E.g. "-ERR transaction log unavailable": applied locally but never
      // durable — whether it survives the failover is unknowable here.
      if (is_write) {
        recorder_->EndOpIndeterminate(id);
      } else {
        recorder_->Drop(id);
      }
      sock.Close();
      ++target;
      continue;
    }
    recorder_->EndOp(id, reply);
    if (is_write) {
      acked_writes_.fetch_add(1, std::memory_order_acq_rel);
      verified = true;
    }
    if (options_.op_gap_ms > 0) SleepMs(options_.op_gap_ms);
  }
}

// lint:off-loop -- the test driver thread, after Stop().
bool WireWorkload::FinalReads(uint16_t port, HistoryRecorder* recorder) {
  client::RespConn sock;
  if (!sock.Connect(port, options_.recv_timeout_ms)) return false;
  // The reader gets its own client id so the checker sees a distinct
  // sequential process.
  const int reader = options_.clients;
  {
    // Verify the connection the same way the workload clients do: an acked
    // SET proves this node holds the lease, so the GETs below are reads
    // against the primary, not a stale replica the caller mistook for one.
    const std::vector<std::string> probe = {"SET", "chaos:final-probe",
                                            "final"};
    const uint64_t id = recorder->BeginOp(reader, probe);
    resp::Value reply;
    if (!sock.RoundTrip(probe, &reply) || reply.IsError()) {
      recorder->Drop(id);
      return false;
    }
    recorder->EndOp(id, reply);
  }
  for (int i = 0; i < options_.keys; ++i) {
    const std::vector<std::string> argv = {"GET", KeyName(i)};
    const uint64_t id = recorder->BeginOp(reader, argv);
    resp::Value reply;
    if (!sock.RoundTrip(argv, &reply) || reply.IsError()) {
      recorder->Drop(id);
      return false;
    }
    recorder->EndOp(id, reply);
  }
  return true;
}

}  // namespace memdb::chaos
