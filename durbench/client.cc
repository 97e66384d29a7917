// durbench-client: the benchmark's single load-generating process. run.py
// starts it once per cluster, pins it off the server's CPU, and drives it
// over stdin with one command per line; every command answers with one
// JSON line on stdout:
//
//   ready <timeout_ms>          connect and SET until the log has a leader
//   prefill                     MSET every key at version 0
//   warmup <ms>                 run the workload mix, unmeasured
//   window <units>              the measured window: write_heavy runs
//                               <units> batches per connection, read_mostly
//                               runs until its writer made <units> SETs
//   verify <port>               read back the fixed sample of written keys
//   await <port> <timeout_ms>   poll until <port> serves the window's last
//                               acknowledged SET
//   scrape                      server METRICS + every txlogd svc.Metrics
//   layers                      in-process layer timings (layers.cc)
//   spans <file>...             span attribution (layers.cc)
//   quit
//
// Every reply is checked: SET must answer +OK; GET must answer the value
// MakeValue derives for the version its header names, never older than the
// last version acknowledged before the GET was sent.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/sync.h"
#include "layers.h"
#include "resp/resp.h"
#include "rpc/channel.h"
#include "rpc/loop.h"
#include "txlog/rpc_wire.h"

namespace durbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// One blocking RESP connection.
class Conn {
 public:
  Conn() = default;
  ~Conn() { Close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Connect(uint16_t port) {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      Close();
      return false;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{};
    tv.tv_sec = 10;  // a reply later than this counts as timed out
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    dec_ = memdb::resp::Decoder();
    return true;
  }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  bool ok() const { return fd_ >= 0; }

  bool Send(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  // Next complete reply; false on EOF, timeout or protocol error.
  bool Read(memdb::resp::Value* out) {
    for (;;) {
      const memdb::resp::DecodeStatus st = dec_.Decode(out);
      if (st == memdb::resp::DecodeStatus::kOk) return true;
      if (st == memdb::resp::DecodeStatus::kError) return false;
      const ssize_t r = ::recv(fd_, buf_, sizeof(buf_), 0);
      if (r <= 0) return false;
      dec_.Feed(memdb::Slice(buf_, static_cast<size_t>(r)));
    }
  }

 private:
  int fd_ = -1;
  memdb::resp::Decoder dec_;
  char buf_[64 * 1024];
};

void AppendHeader(std::string* out, char kind, size_t n) {
  out->push_back(kind);
  out->append(std::to_string(n));
  out->append("\r\n");
}

void AppendBulk(std::string* out, std::string_view a) {
  AppendHeader(out, '$', a.size());
  out->append(a.data(), a.size());
  out->append("\r\n");
}

void AppendCommand(std::string* out,
                   std::initializer_list<std::string_view> argv) {
  AppendHeader(out, '*', argv.size());
  for (std::string_view a : argv) AppendBulk(out, a);
}

uint16_t ParsePort(const std::string& s) {
  return static_cast<uint16_t>(std::strtoul(s.c_str(), nullptr, 10));
}

// What one connection saw during a phase.
struct ConnStats {
  std::vector<float> get_us;
  std::vector<float> set_us;
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;      // error replies, timeouts, dropped connections
  uint64_t mismatched = 0;  // wrong, unknown or stale values
  uint64_t sets_acked = 0;
  uint64_t user_bytes = 0;  // key + value bytes of acknowledged SETs
  Clock::time_point last_ack_at{};
  uint32_t last_ack_key = 0;
  uint32_t last_ack_version = 0;
  // (ms since the phase started, ops the batch completed), per batch.
  std::vector<std::pair<uint32_t, uint32_t>> done_at;
  std::string error;
};

// Width of the window's throughput timeline bins.
constexpr double kBinS = 0.5;

class Client {
 public:
  Client(Shape shape, uint16_t port, std::vector<std::string> txlog_endpoints,
         std::string store_dir)
      : shape_(shape),
        port_(port),
        txlog_endpoints_(std::move(txlog_endpoints)),
        store_dir_(std::move(store_dir)),
        acked_(new std::atomic<uint32_t>[shape.total_keys()]),
        next_version_(shape.total_keys(), 0),
        zipf_(shape.read_keys, 0.99, shape.seed) {
    keys_.reserve(shape.total_keys());
    for (uint32_t i = 0; i < shape.total_keys(); ++i) {
      keys_.push_back(KeyName(shape.seed, i));
      acked_[i].store(0, std::memory_order_relaxed);
    }
    memdb::Rng rng(Mix64(shape.seed ^ 0x5a5a));
    for (int i = 0; i < 1000; ++i) {
      sample_.push_back(shape.write_base +
                        static_cast<uint32_t>(rng.Uniform(shape.write_keys)));
    }
  }

  std::string Ready(uint64_t timeout_ms) {
    const Clock::time_point t0 = Clock::now();
    Conn c;
    memdb::resp::Value v;
    std::string cmd;
    AppendCommand(&cmd, {"SET", "durbench:ready", "1"});
    uint64_t tries = 0;
    while (SecondsSince(t0) * 1000 < static_cast<double>(timeout_ms)) {
      ++tries;
      if ((c.ok() || c.Connect(port_)) && c.Send(cmd) && c.Read(&v) &&
          v.type == memdb::resp::Type::kSimpleString) {
        return Json().Bool("ok", true).Int("tries", tries).Done();
      }
      c.Close();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return Json().Bool("ok", false).Str("error", "no leader / no server").Done();
  }

  std::string Prefill() {
    constexpr uint32_t kKeysPerMset = 500;
    constexpr int kInflight = 4;
    const uint32_t total = shape_.total_keys();
    const uint32_t batches = (total + kKeysPerMset - 1) / kKeysPerMset;
    std::vector<ConnStats> stats(shape_.connections);
    std::vector<std::thread> threads;
    for (int c = 0; c < shape_.connections; ++c) {
      threads.emplace_back([&, c] {
        ConnStats& st = stats[c];
        Conn conn;
        if (!conn.Connect(port_)) {
          st.error = "connect failed";
          return;
        }
        std::vector<uint32_t> mine;
        for (uint32_t b = c; b < batches; b += shape_.connections) {
          mine.push_back(b);
        }
        memdb::resp::Value v;
        for (size_t i = 0; i < mine.size(); i += kInflight) {
          std::string out;
          size_t sent = 0;
          for (size_t j = i; j < mine.size() && j < i + kInflight; ++j, ++sent) {
            const uint32_t lo = mine[j] * kKeysPerMset;
            const uint32_t hi = std::min(total, lo + kKeysPerMset);
            AppendHeader(&out, '*', 1 + 2 * (hi - lo));
            AppendBulk(&out, "MSET");
            for (uint32_t k = lo; k < hi; ++k) {
              AppendBulk(&out, keys_[k]);
              AppendBulk(&out, MakeValue(shape_, k, 0));
            }
          }
          st.attempted += sent;
          if (!conn.Send(out)) {
            st.failed += sent;
            st.error = "send failed";
            return;
          }
          for (size_t j = 0; j < sent; ++j) {
            if (!conn.Read(&v)) {
              st.failed += sent - j;
              st.error = "read failed";
              return;
            }
            if (v.type == memdb::resp::Type::kSimpleString) {
              ++st.completed;
            } else {
              ++st.failed;
            }
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    Json j;
    uint64_t attempted = 0, failed = 0;
    std::string error;
    for (const ConnStats& st : stats) {
      attempted += st.attempted;
      failed += st.failed;
      if (!st.error.empty()) error = st.error;
    }
    return j.Int("keys", total)
        .Int("msets", attempted)
        .Int("failed", failed)
        .Str("error", error)
        .Done();
  }

  // Runs the workload until `deadline` (warm-up) or, when `units` > 0, for
  // the fixed budget (window). Versions restart above `version_base` so the
  // window's inputs do not depend on how far the warm-up got.
  std::string Run(Clock::time_point deadline, uint64_t units,
                  uint32_t version_base, uint64_t phase) {
    for (uint32_t i = 0; i < shape_.total_keys(); ++i) {
      next_version_[i] = std::max(next_version_[i], version_base);
    }
    std::vector<ConnStats> stats(shape_.connections);
    std::atomic<bool> stop{false};
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    Clock::time_point t0;
    for (int c = 0; c < shape_.connections; ++c) {
      threads.emplace_back([&, c] {
        Conn conn;
        const bool connected = conn.Connect(port_);
        ready.fetch_add(1, std::memory_order_acq_rel);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        if (!connected) {
          stats[c].error = "connect failed";
          stop.store(true, std::memory_order_release);
          return;
        }
        memdb::Rng rng(Mix64(shape_.seed * 0x1000193 + c * 0x10001 + phase));
        Drive(c, &conn, &rng, t0, deadline, units, &stop, &stats[c]);
      });
    }
    while (ready.load(std::memory_order_acquire) < shape_.connections) {
      std::this_thread::yield();
    }
    t0 = Clock::now();
    go.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
    const double elapsed = SecondsSince(t0);

    ConnStats all;
    std::vector<uint64_t> bins(static_cast<size_t>(elapsed / kBinS) + 1, 0);
    for (ConnStats& st : stats) {
      for (const auto& [ms, ops] : st.done_at) {
        bins[std::min(bins.size() - 1, static_cast<size_t>(ms / 1000.0 / kBinS))] += ops;
      }
      all.attempted += st.attempted;
      all.completed += st.completed;
      all.failed += st.failed;
      all.mismatched += st.mismatched;
      all.sets_acked += st.sets_acked;
      all.user_bytes += st.user_bytes;
      all.get_us.insert(all.get_us.end(), st.get_us.begin(), st.get_us.end());
      all.set_us.insert(all.set_us.end(), st.set_us.begin(), st.set_us.end());
      if (st.sets_acked > 0 && st.last_ack_at >= all.last_ack_at) {
        all.last_ack_at = st.last_ack_at;
        all.last_ack_key = st.last_ack_key;
        all.last_ack_version = st.last_ack_version;
      }
      if (!st.error.empty()) all.error = st.error;
    }
    if (all.sets_acked > 0) {
      last_ack_key_ = all.last_ack_key;
      last_ack_version_ = all.last_ack_version;
    }
    Json j;
    j.Num("seconds", elapsed)
        .Int("attempted", all.attempted)
        .Int("completed", all.completed)
        .Int("failed", all.failed)
        .Int("mismatched", all.mismatched)
        .Int("gets", all.get_us.size())
        .Int("sets", all.sets_acked)
        .Int("user_bytes", all.user_bytes)
        .Str("error", all.error);
    std::string timeline = "[";
    for (size_t i = 0; i < bins.size(); ++i) {
      timeline += (i > 0 ? "," : "") + std::to_string(bins[i]);
    }
    j.Raw("timeline", timeline + "]").Num("bin_s", kBinS);
    AddQuantiles(&j, "get", &all.get_us);
    AddQuantiles(&j, "set", &all.set_us);
    return j.Done();
  }

  std::string Verify(uint16_t port) {
    std::vector<uint32_t> keys = sample_;
    {
      memdb::MutexLock lock(&recent_mu_);
      keys.insert(keys.end(), recent_acked_.begin(), recent_acked_.end());
    }
    keys.push_back(last_ack_key_);
    Conn conn;
    uint64_t lost = 0, mismatched = 0, failed = 0, checked = 0;
    if (!conn.Connect(port)) {
      return Json().Int("checked", 0).Int("failed", keys.size())
          .Str("error", "connect failed").Done();
    }
    memdb::resp::Value v;
    bool alive = true;
    for (size_t i = 0; alive && i < keys.size(); i += 128) {
      std::string out;
      const size_t n = std::min<size_t>(128, keys.size() - i);
      for (size_t j = 0; j < n; ++j) AppendCommand(&out, {"GET", keys_[keys[i + j]]});
      alive = conn.Send(out);
      for (size_t j = 0; alive && j < n; ++j) {
        const uint32_t idx = keys[i + j];
        alive = conn.Read(&v);
        if (!alive) break;
        ++checked;
        const uint32_t want = acked_[idx].load(std::memory_order_acquire);
        uint32_t got_idx = 0, got = 0;
        if (v.type == memdb::resp::Type::kNull) {
          ++lost;
        } else if (v.type != memdb::resp::Type::kBulkString) {
          ++failed;
        } else if (!ParseValue(v.str, &got_idx, &got) || got_idx != idx ||
                   v.str != MakeValue(shape_, idx, got)) {
          ++mismatched;
        } else if (got < want) {
          ++lost;  // an acknowledged write is missing
        } else if (got != want) {
          ++mismatched;  // a value nobody was acknowledged for
        }
      }
    }
    failed += keys.size() - checked;  // unanswered after a dropped connection
    return Json().Int("checked", checked).Int("lost", lost)
        .Int("mismatched", mismatched).Int("failed", failed).Done();
  }

  std::string Await(uint16_t port, uint64_t timeout_ms) {
    const Clock::time_point t0 = Clock::now();
    const std::string want = MakeValue(shape_, last_ack_key_, last_ack_version_);
    std::string cmd;
    AppendCommand(&cmd, {"GET", keys_[last_ack_key_]});
    Conn c;
    memdb::resp::Value v;
    uint64_t polls = 0;
    while (SecondsSince(t0) * 1000 < static_cast<double>(timeout_ms)) {
      if (c.ok() || c.Connect(port)) {
        ++polls;
        if (c.Send(cmd) && c.Read(&v)) {
          if (v.type == memdb::resp::Type::kBulkString && v.str == want) {
            return Json().Bool("ok", true).Int("polls", polls).Done();
          }
        } else {
          c.Close();
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    return Json().Bool("ok", false).Int("polls", polls).Done();
  }

  std::string Scrape() {
    Json j;
    Conn c;
    memdb::resp::Value v;
    std::string cmd;
    AppendCommand(&cmd, {"METRICS"});
    if (!c.Connect(port_) || !c.Send(cmd) || !c.Read(&v) ||
        v.type != memdb::resp::Type::kBulkString) {
      return Json().Str("error", "server METRICS failed").Done();
    }
    j.Raw("server", SeriesJson(v.str));
    std::string logs = "[";
    memdb::rpc::LoopThread loop;
    if (!loop.Start().ok()) return Json().Str("error", "rpc loop").Done();
    for (size_t i = 0; i < txlog_endpoints_.size(); ++i) {
      const std::string& ep = txlog_endpoints_[i];
      const size_t colon = ep.rfind(':');
      memdb::rpc::Channel ch(&loop, ep.substr(0, colon),
                             ParsePort(ep.substr(colon + 1)));
      memdb::Mutex mu;
      memdb::CondVar cv;
      bool done = false;
      std::string text;
      ch.Call(memdb::txlog::rpcwire::kMetrics, std::string(), 3000, 0,
              [&](const memdb::Status& s, std::string payload) {
                memdb::MutexLock lock(&mu);
                if (s.ok()) text = std::move(payload);
                done = true;
                cv.Signal();
              });
      {
        memdb::MutexLock lock(&mu);
        while (!done) cv.Wait(&mu);
      }
      ch.Shutdown();
      logs += (i > 0 ? "," : "") + SeriesJson(text);
    }
    loop.Stop();
    j.Raw("txlogd", logs + "]");
    return j.Done();
  }

  const Shape& shape() const { return shape_; }
  const std::vector<std::string>& keys() const { return keys_; }
  const std::vector<std::string>& txlog_endpoints() const {
    return txlog_endpoints_;
  }
  const std::string& store_dir() const { return store_dir_; }

 private:
  struct Slot {
    bool is_set = false;
    uint32_t key = 0;
    uint32_t version = 0;  // SET: version written; GET: acked at send
  };

  void Drive(int c, Conn* conn, memdb::Rng* rng, Clock::time_point start,
             Clock::time_point deadline, uint64_t units,
             std::atomic<bool>* stop, ConnStats* st) {
    const bool measured = units > 0;
    const bool writer =
        shape_.workload == Workload::kWriteHeavy || c == shape_.connections - 1;
    // write_heavy: every connection owns the keys congruent to its index, so
    // each key has one writer and its acknowledged version is exact.
    const uint32_t owners =
        shape_.workload == Workload::kWriteHeavy ? shape_.connections : 1;
    const uint32_t owner_slot =
        shape_.workload == Workload::kWriteHeavy ? static_cast<uint32_t>(c) : 0;
    std::vector<Slot> slots;
    std::string out;
    memdb::resp::Value v;
    std::vector<uint32_t> recent;
    uint64_t batches = 0;
    for (;;) {
      if (measured) {
        if (shape_.workload == Workload::kWriteHeavy ? batches >= units
            : writer ? st->attempted >= units
                     : stop->load(std::memory_order_acquire)) {
          break;
        }
      } else if (Clock::now() >= deadline ||
                 stop->load(std::memory_order_acquire)) {
        break;
      }
      ++batches;
      slots.clear();
      if (shape_.workload == Workload::kWriteHeavy) {
        for (int i = 0; i < shape_.pipeline; ++i) {
          slots.push_back(Slot{i < shape_.pipeline / 2, 0, 0});
        }
        for (size_t i = slots.size() - 1; i > 0; --i) {
          std::swap(slots[i], slots[rng->Uniform(i + 1)]);
        }
        for (Slot& s : slots) {
          s.key = s.is_set ? shape_.write_base + owner_slot +
                                 owners * static_cast<uint32_t>(rng->Uniform(
                                              shape_.write_keys / owners))
                           : static_cast<uint32_t>(rng->Uniform(shape_.read_keys));
        }
      } else if (writer) {
        slots.push_back(Slot{true, shape_.write_base + static_cast<uint32_t>(
                                       rng->Uniform(shape_.write_keys)), 0});
      } else {
        for (int i = 0; i < shape_.pipeline; ++i) {
          slots.push_back(Slot{false, zipf_.Next(*rng), 0});
        }
      }
      out.clear();
      for (Slot& s : slots) {
        if (s.is_set) {
          s.version = ++next_version_[s.key];
          AppendCommand(&out, {"SET", keys_[s.key],
                               MakeValue(shape_, s.key, s.version)});
        } else {
          s.version = acked_[s.key].load(std::memory_order_acquire);
          AppendCommand(&out, {"GET", keys_[s.key]});
        }
      }
      st->attempted += slots.size();
      const Clock::time_point t0 = Clock::now();
      if (!conn->Send(out)) {
        st->failed += slots.size();
        st->error = "send failed";
        break;
      }
      const uint64_t completed_before = st->completed;
      size_t done = 0;
      for (; done < slots.size(); ++done) {
        if (!conn->Read(&v)) break;
        const Clock::time_point t = Clock::now();
        const float us = std::chrono::duration<float, std::micro>(t - t0).count();
        const Slot& s = slots[done];
        if (v.type == memdb::resp::Type::kError) {
          ++st->failed;
          continue;
        }
        if (s.is_set) {
          if (v.type != memdb::resp::Type::kSimpleString || v.str != "OK") {
            ++st->mismatched;
            continue;
          }
          acked_[s.key].store(s.version, std::memory_order_release);
          ++st->sets_acked;
          st->user_bytes += keys_[s.key].size() + shape_.value_bytes;
          st->last_ack_at = t;
          st->last_ack_key = s.key;
          st->last_ack_version = s.version;
          if (measured) {
            st->set_us.push_back(us);
            if (recent.size() < 256) recent.push_back(s.key);
            else recent[st->sets_acked % 256] = s.key;
          }
        } else {
          uint32_t idx = 0, version = 0;
          if (v.type != memdb::resp::Type::kBulkString ||
              !ParseValue(v.str, &idx, &version) || idx != s.key ||
              version < s.version ||
              v.str != MakeValue(shape_, idx, version)) {
            ++st->mismatched;
            continue;
          }
          if (measured) st->get_us.push_back(us);
        }
        ++st->completed;
      }
      st->done_at.emplace_back(
          std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                                start)
              .count(),
          st->completed - completed_before);
      if (done < slots.size()) {
        st->failed += slots.size() - done;
        st->error = "connection lost or reply timed out";
        break;
      }
    }
    if (writer) stop->store(true, std::memory_order_release);
    if (measured && !recent.empty()) {
      memdb::MutexLock lock(&recent_mu_);
      recent_acked_.insert(recent_acked_.end(), recent.begin(), recent.end());
    }
  }

  static void AddQuantiles(Json* j, const std::string& op,
                           std::vector<float>* us) {
    j->Int(op + "_samples", us->size());
    if (us->empty()) return;
    for (const auto& [q, name] : {std::pair<double, const char*>{0.5, "p50"},
                                  std::pair<double, const char*>{0.99, "p99"}}) {
      const size_t k = std::min(us->size() - 1,
                                static_cast<size_t>(q * static_cast<double>(us->size())));
      std::nth_element(us->begin(), us->begin() + static_cast<long>(k), us->end());
      j->Num(op + "_" + name + "_us", (*us)[k]);
    }
  }

  // Prometheus text -> {"series": value}.
  static std::string SeriesJson(const std::string& text) {
    Json j;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      const size_t sp = line.rfind(' ');
      if (sp == std::string::npos) continue;
      j.Num(line.substr(0, sp), std::atof(line.c_str() + sp + 1));
    }
    return j.Done();
  }

  const Shape shape_;
  const uint16_t port_;
  const std::vector<std::string> txlog_endpoints_;
  const std::string store_dir_;
  std::vector<std::string> keys_;
  // Last acknowledged version per key, published by the key's writer.
  std::unique_ptr<std::atomic<uint32_t>[]> acked_;
  // Next version per key; only the key's single writer thread touches it.
  std::vector<uint32_t> next_version_;
  ZipfKeys zipf_;
  std::vector<uint32_t> sample_;  // fixed, seed-chosen written keys
  memdb::Mutex recent_mu_;
  std::vector<uint32_t> recent_acked_ GUARDED_BY(recent_mu_);
  uint32_t last_ack_key_ = 0;
  uint32_t last_ack_version_ = 0;
};

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  std::istringstream in(s);
  while (std::getline(in, cur, sep)) {
    if (!cur.empty()) out.push_back(cur);
  }
  return out;
}

int Main(int argc, char** argv) {
  std::string workload, endpoints, store_dir;
  uint64_t seed = 1;
  uint16_t port = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg == "--workload") workload = argv[i + 1];
    else if (arg == "--seed") seed = std::strtoull(argv[i + 1], nullptr, 10);
    else if (arg == "--port") port = ParsePort(argv[i + 1]);
    else if (arg == "--txlog") endpoints = argv[i + 1];
    else if (arg == "--store-dir") store_dir = argv[i + 1];
  }
  Shape shape;
  if (!MakeShape(workload, seed, &shape) || port == 0) {
    std::fprintf(stderr,
                 "usage: durbench-client --workload write_heavy|read_mostly "
                 "--seed N --port P --txlog H:P,... --store-dir DIR\n");
    return 2;
  }
  Client client(shape, port, Split(endpoints, ','), store_dir);
  std::string line;
  uint64_t phase = 0;
  while (std::getline(std::cin, line)) {
    const std::vector<std::string> cmd = Split(line, ' ');
    if (cmd.empty()) continue;
    std::string reply;
    const auto arg = [&](size_t i) -> uint64_t {
      return i < cmd.size() ? std::strtoull(cmd[i].c_str(), nullptr, 10) : 0;
    };
    if (cmd[0] == "quit") break;
    if (cmd[0] == "ready") {
      reply = client.Ready(arg(1));
    } else if (cmd[0] == "prefill") {
      reply = client.Prefill();
    } else if (cmd[0] == "warmup") {
      reply = client.Run(Clock::now() + std::chrono::milliseconds(arg(1)), 0,
                         1u << 20, ++phase);
    } else if (cmd[0] == "window") {
      // The window's versions start at 2^24 whatever the warm-up wrote.
      reply = client.Run(Clock::time_point::max(), arg(1), 1u << 24, 1u << 20);
    } else if (cmd[0] == "verify") {
      reply = client.Verify(static_cast<uint16_t>(arg(1)));
    } else if (cmd[0] == "await") {
      reply = client.Await(static_cast<uint16_t>(arg(1)), arg(2));
    } else if (cmd[0] == "scrape") {
      reply = client.Scrape();
    } else if (cmd[0] == "layers") {
      reply = MeasureLayers(client.shape(), client.keys(),
                            client.txlog_endpoints(), client.store_dir());
    } else if (cmd[0] == "spans") {
      reply = AttributeSpans(
          std::vector<std::string>(cmd.begin() + 1, cmd.end()));
    } else {
      reply = Json().Str("error", "unknown command " + cmd[0]).Done();
    }
    std::cout << reply << std::endl;
  }
  return 0;
}

}  // namespace
}  // namespace durbench

int main(int argc, char** argv) { return durbench::Main(argc, argv); }
