#include "client/resp_conn.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "common/slice.h"

namespace memdb::client {

RespConn::RespConn(uint16_t loopback_port, uint64_t deadline_ms) {
  Connect(loopback_port, deadline_ms);
}

RespConn::~RespConn() { Close(); }

bool RespConn::ParseEndpoint(const std::string& endpoint, std::string* ipv4,
                             uint16_t* port) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon + 1 == endpoint.size() ||
      endpoint.size() - colon - 1 > 5) {
    return false;
  }
  uint32_t p = 0;
  for (size_t i = colon + 1; i < endpoint.size(); ++i) {
    if (endpoint[i] < '0' || endpoint[i] > '9') return false;
    p = p * 10 + static_cast<uint32_t>(endpoint[i] - '0');
  }
  if (p == 0 || p > 65535) return false;
  std::string host = endpoint.substr(0, colon);
  if (host == "localhost") host = "127.0.0.1";
  in_addr addr{};
  if (::inet_pton(AF_INET, host.c_str(), &addr) != 1) return false;
  *ipv4 = std::move(host);
  *port = static_cast<uint16_t>(p);
  return true;
}

bool RespConn::Connect(const std::string& endpoint, uint64_t deadline_ms) {
  Close();
  dec_ = resp::Decoder();
  std::string host;
  uint16_t port = 0;
  if (!ParseEndpoint(endpoint, &host, &port)) return false;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(deadline_ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((deadline_ms % 1000) * 1000);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  ::inet_pton(AF_INET, host.c_str(), &sa.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    Close();
    return false;
  }
  return true;
}

bool RespConn::Connect(uint16_t loopback_port, uint64_t deadline_ms) {
  return Connect("127.0.0.1:" + std::to_string(loopback_port), deadline_ms);
}

void RespConn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool RespConn::Send(const std::string& bytes) {
  if (fd_ < 0) return false;
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

bool RespConn::SendCommand(const std::vector<std::string>& argv) {
  return Send(resp::EncodeCommand(argv));
}

bool RespConn::ReadReply(resp::Value* out) {
  if (fd_ < 0) return false;
  char buf[64 * 1024];
  for (;;) {
    const resp::DecodeStatus st = dec_.Decode(out);
    if (st == resp::DecodeStatus::kOk) return true;
    if (st == resp::DecodeStatus::kError) return false;
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;  // EOF, reset, or the SO_RCVTIMEO deadline
    dec_.Feed(Slice(buf, static_cast<size_t>(n)));
  }
}

bool RespConn::RoundTrip(const std::vector<std::string>& argv,
                         resp::Value* out) {
  return SendCommand(argv) && ReadReply(out);
}

std::vector<resp::Value> RespConn::ReadReplies(size_t n) {
  std::vector<resp::Value> out;
  while (out.size() < n) {
    resp::Value v;
    if (!ReadReply(&v)) break;
    out.push_back(std::move(v));
  }
  return out;
}

resp::Value RespConn::RoundTrip(const std::vector<std::string>& argv) {
  if (!SendCommand(argv)) return resp::Value::Error("ERR send failed");
  resp::Value v;
  if (!ReadReply(&v)) return resp::Value::Error("ERR no reply");
  return v;
}

}  // namespace memdb::client
