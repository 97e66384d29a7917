// RESP2 (REdis Serialization Protocol) value model, encoder, and an
// incremental decoder. Used at three places in the system: the client/server
// command boundary, the replication stream chunker (effects are encoded as
// RESP command arrays, exactly like the Redis replication stream), and
// benchmark drivers.

#ifndef MEMDB_RESP_RESP_H_
#define MEMDB_RESP_RESP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace memdb::resp {

enum class Type : uint8_t {
  kSimpleString,  // +OK\r\n
  kError,         // -ERR ...\r\n
  kInteger,       // :42\r\n
  kBulkString,    // $5\r\nhello\r\n
  kNull,          // $-1\r\n (null bulk) / *-1\r\n (null array)
  kArray,         // *2\r\n...
};

// A parsed RESP value. Value-semantic tree.
struct Value {
  Type type = Type::kNull;
  std::string str;            // simple string / error / bulk payload
  int64_t integer = 0;        // integer payload
  std::vector<Value> array;   // array elements

  static Value Simple(std::string s);
  static Value Error(std::string s);
  static Value Integer(int64_t v);
  static Value Bulk(std::string s);
  static Value Null();
  static Value Array(std::vector<Value> elems);
  // The ubiquitous +OK.
  static Value Ok() { return Simple("OK"); }

  bool IsError() const { return type == Type::kError; }
  bool IsNull() const { return type == Type::kNull; }

  // Serializes this value in RESP2 wire format, appending to *out.
  void EncodeTo(std::string* out) const;
  std::string Encode() const;

  // Human-readable form for logs/tests (not wire format).
  std::string ToString() const;

  bool operator==(const Value& other) const;
};

// Encodes a command (array of bulk strings) — the client->server direction.
std::string EncodeCommand(const std::vector<std::string>& args);

// Outcome of one streaming decode step. The tri-state lets socket readers
// distinguish "wait for more bytes" from "tear the connection down".
enum class DecodeStatus : uint8_t {
  kOk,        // one complete frame was consumed
  kNeedMore,  // buffer ends mid-frame; feed more bytes and retry
  kError,     // protocol violation; the stream is unrecoverable
};

// Guard rails applied while decoding untrusted byte streams (the moral
// equivalent of Redis' proto-max-bulk-len / multibulk limits). A frame that
// *declares* a size beyond these is rejected before its payload is buffered.
struct DecodeLimits {
  size_t max_bulk_bytes = 512u << 20;   // per bulk-string payload
  size_t max_array_elems = 1u << 20;    // per multibulk header
  size_t max_inline_bytes = 64u << 10;  // per inline command line
  // Array nesting cap. ParseAt recurses per level, so without this a
  // stream of `*1\r\n` repeated runs the parser thread out of stack
  // (found by fuzz/resp_decode_fuzz.cc). Commands and replication
  // effects are depth <= 2 in practice; 32 is far above anything legal.
  size_t max_nesting = 32;
};

// Incremental decoder: feed bytes as they "arrive", pull complete values.
class Decoder {
 public:
  // Appends bytes to the internal buffer.
  void Feed(Slice data);

  // Attempts to parse one complete value. Returns:
  //  - OK and sets *value if a full value was consumed,
  //  - NotFound if more bytes are needed,
  //  - Corruption on malformed input (protocol error).
  Status TryParse(Value* value);

  // ---- streaming API (socket readers: net::Connection, reply pumps) -----
  // Caps enforced by the streaming entry points below (and by TryParse for
  // declared bulk/array sizes). Defaults are Redis-like and generous.
  void set_limits(const DecodeLimits& limits) { limits_ = limits; }
  const DecodeLimits& limits() const { return limits_; }

  // Streaming value decode: one complete value per kOk. On kError, *error
  // (if non-null) carries the protocol-error detail.
  DecodeStatus Decode(Value* value, std::string* error = nullptr);

  // Streaming command decode. Accepts both framings Redis accepts on the
  // command channel: a multibulk array of bulk strings, and *inline
  // commands* — a bare `SET k v\r\n` text line split on whitespace. One
  // command per kOk. As in Redis, what names no command is consumed and
  // skipped, never returned: an empty line, and a multibulk header whose
  // count is <= 0 (`*0\r\n`, `*-1\r\n`).
  //
  // The bytes go straight into *argv: it is resized to the command's
  // argument count and each string is assigned in place, so a caller that
  // decodes into the same argv again reuses its strings' capacity (after
  // kNeedMore or kError it holds unspecified strings). Limits are checked
  // against each declared size before its payload arrives. A frame with an
  // element other than a bulk string fails once it is complete ("command
  // elements must be bulk strings"); a malformed element fails with the
  // value parser's error for it.
  DecodeStatus DecodeCommand(std::vector<std::string>* argv,
                             std::string* error = nullptr);

  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  Status ParseAt(size_t* pos, Value* value, size_t depth = 0);
  bool ReadLine(size_t* pos, std::string* line);
  // The elements of a multibulk frame of `n` (> 0) elements starting at
  // `pos`, into *argv.
  DecodeStatus DecodeArgs(size_t pos, size_t n, std::vector<std::string>* argv,
                          std::string* error);
  void Compact();

  std::string buffer_;
  size_t consumed_ = 0;
  DecodeLimits limits_;
};

}  // namespace memdb::resp

#endif  // MEMDB_RESP_RESP_H_
