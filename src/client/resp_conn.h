// RespConn: one blocking RESP connection over TCP — the client half of
// every wire conversation in the tree. ClusterClient keeps one per
// endpoint, the §5.2 migration channel streams ASKING+RESTORE over one,
// and loadgen, the chaos workload, memorydb-stat and the tests and benches
// that drive a real server each use it as is.
//
// Connect parses "host:port" (dotted IPv4 or `localhost`, port 1-65535)
// and sets the caller's deadline as SO_RCVTIMEO and SO_SNDTIMEO, plus
// TCP_NODELAY, before connect(2): the connect, every send and every read
// are bounded by it (a deadline of 0 bounds nothing). Every Connect starts
// a fresh decoder, so no bytes of an earlier connection reach a later
// reply.
//
// Threading: an instance is owned by one thread. Every call blocks, so it
// never runs on an event loop.

#ifndef MEMDB_CLIENT_RESP_CONN_H_
#define MEMDB_CLIENT_RESP_CONN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "resp/resp.h"

namespace memdb::client {

class RespConn {
 public:
  RespConn() = default;
  // Connects to 127.0.0.1:port at once; check connected().
  RespConn(uint16_t loopback_port, uint64_t deadline_ms);
  ~RespConn();
  RespConn(const RespConn&) = delete;
  RespConn& operator=(const RespConn&) = delete;

  // "host:port" -> dotted IPv4 and port; `localhost` reads as 127.0.0.1.
  // False unless the host is an IPv4 address or localhost and the port is
  // a number in 1-65535.
  static bool ParseEndpoint(const std::string& endpoint, std::string* ipv4,
                            uint16_t* port);

  // Closes any open socket first. False, with no socket opened, when the
  // endpoint does not parse; false when the connect fails or times out.
  bool Connect(const std::string& endpoint, uint64_t deadline_ms);
  bool Connect(uint16_t loopback_port, uint64_t deadline_ms);
  void Close();
  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // True only when every byte reached the kernel's send buffer.
  bool Send(const std::string& bytes);
  bool SendCommand(const std::vector<std::string>& argv);

  // One reply. False on EOF, reset, deadline or a protocol error; the
  // connection then stays unusable until the next Connect.
  bool ReadReply(resp::Value* out);
  bool RoundTrip(const std::vector<std::string>& argv, resp::Value* out);

  // Up to n replies in order; the vector comes back short after a failed
  // read.
  std::vector<resp::Value> ReadReplies(size_t n);

  // For callers that check the reply rather than the transport: the reply,
  // or the error value "ERR send failed" / "ERR no reply".
  resp::Value RoundTrip(const std::vector<std::string>& argv);

 private:
  int fd_ = -1;
  resp::Decoder dec_;
};

}  // namespace memdb::client

#endif  // MEMDB_CLIENT_RESP_CONN_H_
