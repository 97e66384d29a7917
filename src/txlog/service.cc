#include "txlog/service.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/coding.h"
#include "common/crc.h"
#include "common/trace_export.h"

namespace memdb::txlog {

namespace {

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// txlogd numbers replicas from 1 and writes 0 for "none", both in leader
// hints and in the meta file's vote.
uint64_t ZeroIfNone(NodeId id) { return id == wire::kNoNode ? 0 : id; }

Status IoError(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

// Log frame: u32 len | entry | u32 crc.
void AppendFrame(const LogEntry& e, std::string* buf) {
  std::string body;
  e.EncodeTo(&body);
  PutFixed32(buf, static_cast<uint32_t>(body.size()));
  buf->append(body);
  PutFixed32(buf, static_cast<uint32_t>(Crc64(0, body.data(), body.size())));
}

bool WriteAll(int fd, const std::string& buf) {
  size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n = ::write(fd, buf.data() + off, buf.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (n == 0) errno = EIO;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

// Reads all of `path`; a missing file reads as empty.
Status ReadFile(const std::string& path, std::string* out) {
  out->clear();
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return errno == ENOENT ? Status::OK() : IoError("open " + path);
  char chunk[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      Status s = IoError("read " + path);
      ::close(fd);
      return s;
    }
    if (n == 0) break;
    out->append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return Status::OK();
}

}  // namespace

LogService::LogService(Options options)
    : options_(std::move(options)),
      server_(std::make_unique<rpc::Server>(&loop_, options_.listen_host,
                                            options_.listen_port)),
      raft_stats_(&metrics_, {rpcwire::kRaftVote, rpcwire::kRaftAppendEntries}) {
  fsyncs_ = metrics_.GetCounter("txlog_fsyncs_total");
  fsync_us_ = metrics_.GetHistogram("txlog_fsync_us");
  read_waiters_gauge_ = metrics_.GetGauge("txlog_read_waiters");
  persist_errors_ = metrics_.GetCounter("txlog_persist_errors_total");
  metrics_.SetHelp("txlog_persist_errors_total",
                   "Failed meta/log writes, fsyncs or renames; the first "
                   "one stops the replica (fail-stop).");

  server_->set_metrics(&metrics_);
  using Handler = void (LogService::*)(rpc::Server::Call&&);
  const std::pair<const char*, Handler> handlers[] = {
      {rpcwire::kRaftVote, &LogService::HandleRaftVote},
      {rpcwire::kRaftAppendEntries, &LogService::HandleRaftAppendEntries},
      {rpcwire::kAppend, &LogService::HandleClientAppend},
      {rpcwire::kRead, &LogService::HandleReadStream},
      {rpcwire::kTail, &LogService::HandleTail},
      {rpcwire::kTrim, &LogService::HandleTrim},
      {rpcwire::kMetrics, &LogService::HandleMetricsScrape},
      {rpcwire::kTraceDump, &LogService::HandleTraceDump},
  };
  for (const auto& [method, handler] : handlers) {
    server_->RegisterHandler(method, [this, handler](rpc::Server::Call&& c) {
      (this->*handler)(std::move(c));
    });
  }
  server_->set_trace_log(&trace_);
}

// lint:off-loop -- teardown runs on the embedding thread.
LogService::~LogService() { Stop(); }

// lint:off-loop -- startup runs on the embedding (txlogd main) thread;
// PostSync builds the raft core from disk on the loop before serving.
Status LogService::Start() {
  if (started_) return Status::OK();
  Status s = loop_.Start("txlogd-loop");
  if (!s.ok()) return s;
  loop_.PostSync([this, &s] {
    RaftPersistentState state;
    bool rewrite = false;
    s = LoadDisk(&state, &rewrite);
    if (!s.ok()) return;
    RaftConfig config;
    config.self = static_cast<NodeId>(options_.node_id);
    config.heartbeat_interval = options_.heartbeat_ms * 1000;
    config.election_timeout_min = options_.election_min_ms * 1000;
    config.election_timeout_max = options_.election_max_ms * 1000;
    config.dedup_max_entries = options_.dedup_max_entries;
    config.seed = 0x7178 /* 'tx' */ + options_.node_id;
    core_ = std::make_unique<RaftCore>(config, std::move(state), &metrics_,
                                       &trace_);
    if (rewrite) s = RewriteLog();
    Pump();  // publishes the loaded commit floor
  });
  if (s.ok()) s = server_->Start();
  if (!s.ok()) {
    loop_.Stop();
    if (log_fd_ >= 0) ::close(log_fd_);
    log_fd_ = -1;
    return s;
  }
  port_ = server_->port();
  started_ = true;
  return Status::OK();
}

// lint:off-loop -- setup runs on the embedding thread before traffic.
void LogService::SetPeers(std::vector<std::pair<uint64_t, std::string>> peers) {
  loop_.PostSync([this, peers = std::move(peers)] {
    std::vector<NodeId> ids;
    for (const auto& [id, endpoint] : peers) {
      if (id == options_.node_id) continue;
      std::string host;
      uint16_t port = 0;
      if (!rpcwire::SplitEndpoint(endpoint, &host, &port)) continue;
      peer_channels_[id] =
          std::make_unique<rpc::Channel>(&loop_, host, port, &raft_stats_);
      ids.push_back(static_cast<NodeId>(id));
    }
    if (halted_) return;
    core_->Start(NowUs(), std::move(ids));
    Pump();
    ScheduleTick();
  });
}

// lint:off-loop -- teardown runs on the embedding thread (see Start).
void LogService::Stop() {
  if (!started_) return;
  started_ = false;
  loop_.PostSync([this] {
    if (!halted_) {
      core_->FailPending();
      Pump();
    }
    halted_ = true;
    if (timer_id_ != 0) loop_.CancelTimer(timer_id_);
    timer_id_ = 0;
    held_.clear();
    for (auto& [id, w] : read_waiters_) {
      if (w.timer_id != 0) loop_.CancelTimer(w.timer_id);
      ServeRead(w.req, w.call);
    }
    read_waiters_.clear();
    if (log_fd_ >= 0) {
      ::close(log_fd_);
      log_fd_ = -1;
    }
  });
  // Channels PostSync internally; shut them down while the loop is alive.
  for (auto& [id, ch] : peer_channels_) ch->Shutdown();
  server_->Stop();
  loop_.Stop();
  if (!options_.trace_file.empty()) {
    const std::string jsonl = ExportSpansJsonl(trace_, TraceProcLabel());
    if (std::FILE* f = std::fopen(options_.trace_file.c_str(), "w")) {
      std::fwrite(jsonl.data(), 1, jsonl.size(), f);
      std::fclose(f);
    }
  }
}

// --- core driver -------------------------------------------------------------

uint64_t LogService::Hold(Respond respond) {
  const uint64_t token = next_token_++;
  held_.emplace(token, std::move(respond));
  return token;
}

void LogService::Pump() {
  loop_.AssertOnLoopThread();
  while (!halted_ && core_->HasOutput()) {
    RaftCore::Output out = core_->TakeOutput();
    if (!Persist(out)) return;
    for (RaftCore::Send& send : out.sends) SendToPeer(std::move(send));
    for (RaftCore::Reply& reply : out.replies) {
      auto it = held_.find(reply.token);
      if (it == held_.end()) continue;
      it->second(rpc::Code::kOk, std::move(reply.payload));
      held_.erase(it);
    }
    for (const RaftCore::Outcome& o : out.outcomes) Answer(o);
    if (out.committed) WakeLongPolls();
  }
  role_atomic_.store(static_cast<uint8_t>(core_->role()),
                     std::memory_order_release);
  commit_atomic_.store(core_->commit_index(), std::memory_order_release);
}

bool LogService::Persist(const RaftCore::Output& out) {
  Status s = Status::OK();
  if (!options_.data_dir.empty()) {
    // Meta before the log: a crash between a trim's two writes leaves the
    // old log under the new base, and LoadDisk skips frames at or below it.
    if (out.write_meta || out.compact) {
      std::string body;
      PutFixed64(&body, core_->current_term());
      PutFixed64(&body, ZeroIfNone(core_->voted_for()));
      PutFixed64(&body, core_->base_index());
      PutFixed64(&body, core_->base_term());
      PutFixed32(&body,
                 static_cast<uint32_t>(Crc64(0, body.data(), body.size())));
      s = ReplaceFile(MetaPath(), body);
    }
    if (s.ok() && (out.compact || out.log.truncated)) {
      s = RewriteLog();
    } else if (s.ok() && out.log.from != 0) {
      s = AppendLog(out.log.from, out.log.to);
    }
  }
  if (!s.ok()) {
    FailStop(s);
    return false;
  }
  // Reported only now: after the write, and after the fsync when it is on.
  if (out.log.from != 0) core_->OnPersisted(NowUs(), out.log.to, out.log.gen);
  return true;
}

void LogService::FailStop(const Status& status) {
  persist_errors_->Increment();
  std::fprintf(stderr, "memorydb-txlogd node %llu: %s; stopping\n",
               static_cast<unsigned long long>(options_.node_id),
               status.ToString().c_str());
  halted_ = true;
  failed_atomic_.store(true, std::memory_order_release);
  role_atomic_.store(static_cast<uint8_t>(RaftCore::Role::kFollower),
                     std::memory_order_release);
  if (timer_id_ != 0) loop_.CancelTimer(timer_id_);
  timer_id_ = 0;
  // Answer what the core held with "not served": no vote, no ack.
  for (auto& [token, respond] : held_) respond(rpc::Code::kShutdown, "");
  held_.clear();
}

void LogService::SendToPeer(RaftCore::Send&& send) {
  auto ch = peer_channels_.find(send.to);
  if (ch == peer_channels_.end()) return;
  const bool vote = send.kind == RaftCore::SendKind::kVote;
  ch->second->Call(
      vote ? rpcwire::kRaftVote : rpcwire::kRaftAppendEntries,
      std::move(send.payload), options_.raft_rpc_timeout_ms, 0,
      [this, vote, to = send.to, epoch = send.epoch](Status status,
                                                     std::string payload) {
        if (halted_) return;
        wire::VoteResponse v;
        wire::AppendEntriesResponse a;
        if (vote && status.ok() && wire::VoteResponse::Decode(payload, &v)) {
          core_->OnVoteResponse(NowUs(), to, epoch, v);
        } else if (!vote) {
          const bool ok =
              status.ok() && wire::AppendEntriesResponse::Decode(payload, &a);
          core_->OnAppendEntriesResponse(NowUs(), to, epoch, ok ? &a : nullptr);
        }
        Pump();
      });
}

void LogService::Answer(const RaftCore::Outcome& o) {
  auto it = held_.find(o.token);
  if (it == held_.end()) return;
  wire::ClientAppendResponse r;
  r.result = o.result;
  r.index = o.index;
  r.leader_hint = static_cast<NodeId>(ZeroIfNone(o.leader_hint));
  it->second(rpc::Code::kOk, r.Encode());
  held_.erase(it);
}

void LogService::ScheduleTick() {
  // Timeouts fire on the next tick after they fall due.
  timer_id_ = loop_.After(std::max<uint64_t>(1, options_.heartbeat_ms / 4),
                          [this] {
                            timer_id_ = 0;
                            if (halted_) return;
                            core_->Tick(NowUs());
                            Pump();
                            ScheduleTick();
                          });
}

// --- raft message handlers -------------------------------------------------

template <typename Request>
bool LogService::Accept(rpc::Server::Call& call, Request* req) {
  loop_.AssertOnLoopThread();
  if (!Request::Decode(Slice(call.payload), req)) {
    call.respond(rpc::Code::kBadRequest, std::string());
    return false;
  }
  if (halted_) {
    call.respond(rpc::Code::kShutdown, std::string());
    return false;
  }
  return true;
}

void LogService::HandleRaftVote(rpc::Server::Call&& call) {
  wire::VoteRequest req;
  if (!Accept(call, &req)) return;
  core_->OnVoteRequest(NowUs(), Hold(std::move(call.respond)), req);
  Pump();
}

void LogService::HandleRaftAppendEntries(rpc::Server::Call&& call) {
  wire::AppendEntriesRequest req;
  if (!Accept(call, &req)) return;
  core_->OnAppendEntries(NowUs(), Hold(std::move(call.respond)),
                         std::move(req));
  Pump();
}

// --- client-facing handlers ------------------------------------------------

void LogService::HandleClientAppend(rpc::Server::Call&& call) {
  wire::ClientAppendRequest req;
  if (!Accept(call, &req)) return;
  core_->Propose(NowUs(), Hold(std::move(call.respond)), req.prev_index,
                 std::move(req.record));
  Pump();
}

void LogService::ServeRead(const rpcwire::ReadStreamRequest& req,
                           rpc::Server::Call& call) {
  call.respond(rpc::Code::kOk,
               core_->EncodeRead(req.from_index, req.max_count));
}

void LogService::HandleReadStream(rpc::Server::Call&& call) {
  loop_.AssertOnLoopThread();
  rpcwire::ReadStreamRequest req;
  if (!rpcwire::ReadStreamRequest::Decode(Slice(call.payload), &req)) {
    call.respond(rpc::Code::kBadRequest, std::string());
    return;
  }
  if (core_->commit_index() >= req.from_index || req.wait_ms == 0) {
    ServeRead(req, call);
    return;
  }
  // Long poll: park until commit reaches from_index or wait_ms elapses.
  const uint64_t id = next_waiter_id_++;
  Waiter w;
  w.id = id;
  w.req = req;
  w.call = std::move(call);
  w.timer_id = loop_.After(req.wait_ms, [this, id] {
    auto it = read_waiters_.find(id);
    if (it == read_waiters_.end()) return;
    it->second.timer_id = 0;
    ServeRead(it->second.req, it->second.call);  // answers empty
    read_waiters_.erase(it);
    read_waiters_gauge_->Set(static_cast<int64_t>(read_waiters_.size()));
  });
  read_waiters_.emplace(id, std::move(w));
  read_waiters_gauge_->Set(static_cast<int64_t>(read_waiters_.size()));
}

void LogService::WakeLongPolls() {
  for (auto it = read_waiters_.begin(); it != read_waiters_.end();) {
    if (core_->commit_index() >= it->second.req.from_index) {
      if (it->second.timer_id != 0) loop_.CancelTimer(it->second.timer_id);
      ServeRead(it->second.req, it->second.call);
      it = read_waiters_.erase(it);
    } else {
      ++it;
    }
  }
  read_waiters_gauge_->Set(static_cast<int64_t>(read_waiters_.size()));
}

void LogService::HandleTail(rpc::Server::Call&& call) {
  loop_.AssertOnLoopThread();
  wire::ClientTailResponse resp = core_->Tail();
  if (halted_) resp.result = wire::ClientResult::kUnavailable;
  resp.leader_hint = static_cast<NodeId>(ZeroIfNone(resp.leader_hint));
  if (resp.result == wire::ClientResult::kOk) {
    resp.consumers = read_waiters_.size();
  }
  call.respond(rpc::Code::kOk, resp.Encode());
}

void LogService::HandleTrim(rpc::Server::Call&& call) {
  rpcwire::TrimRequest req;
  if (!Accept(call, &req)) return;
  rpcwire::TrimResponse resp;
  resp.first_index = core_->Trim(req.upto_index);
  Pump();  // halts if the compaction's writes fail
  call.respond(halted_ ? rpc::Code::kShutdown : rpc::Code::kOk,
               halted_ ? std::string() : resp.Encode());
}

void LogService::HandleMetricsScrape(rpc::Server::Call&& call) {
  call.respond(rpc::Code::kOk, metrics_.ExpositionText());
}

void LogService::HandleTraceDump(rpc::Server::Call&& call) {
  call.respond(rpc::Code::kOk,
               ExportSpansJsonl(trace_, TraceProcLabel()));
}

// --- persistence -----------------------------------------------------------
//
// Two files per replica:
//   meta: fixed-size term/voted_for/base block, replaced atomically
//         (tmp, fsync, rename, directory fsync).
//   log:  framed entries (u32 len | entry | u32 crc), appended and fsynced
//         before the entry counts toward the quorum; suffix truncation and
//         trim rewrite the file the same way meta is replaced.

std::string LogService::MetaPath() const { return options_.data_dir + "/meta"; }
std::string LogService::LogPath() const { return options_.data_dir + "/log"; }

Status LogService::Fsync(int fd, const std::string& what) {
  if (!options_.fsync) return Status::OK();
  // lint:allow-blocking -- fsync gates quorum acks by design (paper 3.1).
  if (::fsync(fd) != 0) return IoError("fsync " + what);
  return Status::OK();
}

Status LogService::ReplaceFile(const std::string& path,
                               const std::string& body) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) return IoError("open " + tmp);
  Status s = WriteAll(fd, body) ? Fsync(fd, tmp) : IoError("write " + tmp);
  if (::close(fd) != 0 && s.ok()) s = IoError("close " + tmp);
  if (!s.ok()) return s;
  if (::rename(tmp.c_str(), path.c_str()) != 0) return IoError("rename " + tmp);
  const int dir = ::open(options_.data_dir.c_str(),
                         O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir < 0) return IoError("open " + options_.data_dir);
  s = Fsync(dir, options_.data_dir);
  ::close(dir);
  return s;
}

Status LogService::AppendLog(uint64_t from, uint64_t to) {
  if (log_fd_ < 0) {
    log_fd_ = ::open(LogPath().c_str(),
                     O_CREAT | O_APPEND | O_WRONLY | O_CLOEXEC, 0644);
    if (log_fd_ < 0) return IoError("open " + LogPath());
  }
  std::string buf;
  for (uint64_t i = from; i <= to; ++i) AppendFrame(*core_->entry(i), &buf);
  if (!WriteAll(log_fd_, buf)) return IoError("write " + LogPath());
  const uint64_t t0 = NowUs();
  Status s = Fsync(log_fd_, LogPath());
  if (!s.ok()) return s;
  if (options_.fsync) fsync_us_->Record(NowUs() - t0);
  fsyncs_->Increment();
  return Status::OK();
}

Status LogService::RewriteLog() {
  if (options_.data_dir.empty()) return Status::OK();
  if (log_fd_ >= 0) {
    ::close(log_fd_);
    log_fd_ = -1;
  }
  std::string buf;
  for (uint64_t i = core_->base_index() + 1; i <= core_->last_index(); ++i) {
    AppendFrame(*core_->entry(i), &buf);
  }
  Status s = ReplaceFile(LogPath(), buf);
  if (!s.ok()) return s;
  log_fd_ = ::open(LogPath().c_str(), O_CREAT | O_APPEND | O_WRONLY | O_CLOEXEC,
                   0644);
  return log_fd_ < 0 ? IoError("open " + LogPath()) : Status::OK();
}

Status LogService::LoadDisk(RaftPersistentState* state, bool* rewrite) {
  if (options_.data_dir.empty()) return Status::OK();
  if (::mkdir(options_.data_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return IoError("mkdir " + options_.data_dir);
  }

  // Meta: term/vote plus the trimmed-prefix base (4 fixed64 + crc). The
  // legacy 2-field layout (pre-trim) is still accepted.
  std::string raw;
  Status s = ReadFile(MetaPath(), &raw);
  if (!s.ok()) return s;
  if (!raw.empty()) {
    const size_t fields = raw.size() == 36 ? 4 : raw.size() == 20 ? 2 : 0;
    uint64_t v[4] = {0, 0, 0, 0};
    uint32_t crc = 0;
    Decoder dec{Slice(raw)};
    bool valid = fields > 0;
    for (size_t i = 0; valid && i < fields; ++i) valid = dec.GetFixed64(&v[i]);
    if (!valid || !dec.GetFixed32(&crc) ||
        crc != static_cast<uint32_t>(Crc64(0, raw.data(), fields * 8))) {
      return Status::Corruption(MetaPath() + ": bad size or crc");
    }
    state->current_term = v[0];
    state->voted_for = v[1] == 0 ? wire::kNoNode : static_cast<NodeId>(v[1]);
    state->base_index = v[2];
    state->base_term = v[3];
  }

  // Log: read frames until EOF or corruption. A torn tail is expected after
  // a crash mid-append: recover the clean prefix and drop the rest. Frames
  // at or below the base are what a trim interrupted between its meta and
  // log writes left behind; the first kept frame must be base+1.
  s = ReadFile(LogPath(), &raw);
  if (!s.ok()) return s;
  size_t off = 0;
  bool torn = false;
  bool skipped = false;
  while (off + 8 <= raw.size()) {
    uint32_t len = 0, crc = 0;
    Decoder(Slice(raw.data() + off, 4)).GetFixed32(&len);
    if (raw.size() - off - 8 < len) break;
    const char* body = raw.data() + off + 4;
    Decoder(Slice(body + len, 4)).GetFixed32(&crc);
    Decoder dec(Slice(body, len));
    LogEntry e;
    torn = crc != static_cast<uint32_t>(Crc64(0, body, len)) ||
           !LogEntry::DecodeFrom(&dec, &e) ||
           (e.index > state->base_index &&
            e.index != state->base_index + state->log.size() + 1);
    if (torn) break;
    off += 8 + len;
    skipped |= e.index <= state->base_index;
    if (e.index > state->base_index) state->log.push_back(std::move(e));
  }
  *rewrite = torn || skipped || off < raw.size();
  return Status::OK();
}

}  // namespace memdb::txlog
