#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "resp/resp.h"

namespace memdb::resp {
namespace {

TEST(RespEncodeTest, SimpleString) {
  EXPECT_EQ(Value::Simple("OK").Encode(), "+OK\r\n");
}

TEST(RespEncodeTest, Error) {
  EXPECT_EQ(Value::Error("ERR boom").Encode(), "-ERR boom\r\n");
}

TEST(RespEncodeTest, Integer) {
  EXPECT_EQ(Value::Integer(42).Encode(), ":42\r\n");
  EXPECT_EQ(Value::Integer(-7).Encode(), ":-7\r\n");
}

TEST(RespEncodeTest, BulkString) {
  EXPECT_EQ(Value::Bulk("hello").Encode(), "$5\r\nhello\r\n");
  EXPECT_EQ(Value::Bulk("").Encode(), "$0\r\n\r\n");
  // Binary-safe.
  EXPECT_EQ(Value::Bulk(std::string("a\0b", 3)).Encode(),
            std::string("$3\r\na\0b\r\n", 9));
}

TEST(RespEncodeTest, Null) { EXPECT_EQ(Value::Null().Encode(), "$-1\r\n"); }

TEST(RespEncodeTest, Array) {
  Value v = Value::Array({Value::Bulk("GET"), Value::Bulk("k")});
  EXPECT_EQ(v.Encode(), "*2\r\n$3\r\nGET\r\n$1\r\nk\r\n");
}

TEST(RespEncodeTest, NestedArray) {
  Value v = Value::Array({Value::Integer(1), Value::Array({Value::Simple("a")})});
  EXPECT_EQ(v.Encode(), "*2\r\n:1\r\n*1\r\n+a\r\n");
}

TEST(RespEncodeTest, EncodeCommand) {
  EXPECT_EQ(EncodeCommand({"SET", "key", "val"}),
            "*3\r\n$3\r\nSET\r\n$3\r\nkey\r\n$3\r\nval\r\n");
}

Value ParseOne(const std::string& wire) {
  Decoder d;
  d.Feed(wire);
  Value v;
  Status s = d.TryParse(&v);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return v;
}

TEST(RespDecodeTest, RoundTripAllTypes) {
  const Value values[] = {
      Value::Simple("PONG"),
      Value::Error("ERR x"),
      Value::Integer(-123456789),
      Value::Bulk("payload with \r\n inside"),
      Value::Null(),
      Value::Array({Value::Integer(1), Value::Bulk("two"),
                    Value::Array({Value::Simple("three")})}),
  };
  for (const Value& v : values) {
    EXPECT_EQ(ParseOne(v.Encode()), v) << v.ToString();
  }
}

TEST(RespDecodeTest, IncrementalFeed) {
  const std::string wire = EncodeCommand({"SET", "key", "value"});
  Decoder d;
  Value v;
  // Feed one byte at a time; must report NotFound until complete.
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    d.Feed(Slice(wire.data() + i, 1));
    Status s = d.TryParse(&v);
    EXPECT_TRUE(s.IsNotFound()) << "at byte " << i << ": " << s.ToString();
  }
  d.Feed(Slice(wire.data() + wire.size() - 1, 1));
  ASSERT_TRUE(d.TryParse(&v).ok());
  EXPECT_EQ(v.array.size(), 3u);
}

TEST(RespDecodeTest, MultipleValuesInOneBuffer) {
  Decoder d;
  d.Feed(Value::Simple("a").Encode() + Value::Integer(2).Encode() +
         Value::Bulk("c").Encode());
  Value v;
  ASSERT_TRUE(d.TryParse(&v).ok());
  EXPECT_EQ(v, Value::Simple("a"));
  ASSERT_TRUE(d.TryParse(&v).ok());
  EXPECT_EQ(v, Value::Integer(2));
  ASSERT_TRUE(d.TryParse(&v).ok());
  EXPECT_EQ(v, Value::Bulk("c"));
  EXPECT_TRUE(d.TryParse(&v).IsNotFound());
}

TEST(RespDecodeTest, MalformedMarkerIsCorruption) {
  Decoder d;
  d.Feed("!bogus\r\n");
  Value v;
  EXPECT_TRUE(d.TryParse(&v).IsCorruption());
}

TEST(RespDecodeTest, BadIntegerIsCorruption) {
  Decoder d;
  d.Feed(":12a\r\n");
  Value v;
  EXPECT_TRUE(d.TryParse(&v).IsCorruption());
}

TEST(RespDecodeTest, BulkMissingTerminatorIsCorruption) {
  Decoder d;
  d.Feed("$3\r\nabcXY");
  Value v;
  EXPECT_TRUE(d.TryParse(&v).IsCorruption());
}

TEST(RespDecodeTest, NullArrayDecodesAsNull) {
  EXPECT_TRUE(ParseOne("*-1\r\n").IsNull());
}

TEST(RespDecodeTest, LargeBulk) {
  std::string big(1 << 20, 'z');
  EXPECT_EQ(ParseOne(Value::Bulk(big).Encode()).str, big);
}

TEST(RespDecodeTest, BufferCompactionKeepsParsing) {
  Decoder d;
  Value v;
  for (int i = 0; i < 2000; ++i) {
    d.Feed(Value::Bulk("item" + std::to_string(i)).Encode());
    ASSERT_TRUE(d.TryParse(&v).ok());
    EXPECT_EQ(v.str, "item" + std::to_string(i));
  }
  EXPECT_EQ(d.buffered(), 0u);
}

TEST(RespValueTest, ToStringForms) {
  EXPECT_EQ(Value::Null().ToString(), "(nil)");
  EXPECT_EQ(Value::Integer(3).ToString(), "3");
  EXPECT_EQ(Value::Array({Value::Integer(1), Value::Bulk("x")}).ToString(),
            "[1, \"x\"]");
}

// ---- streaming API (DecodeCommand / Decode) ------------------------------

TEST(RespStreamTest, DecodeCommandNeedsMoreThenOk) {
  Decoder d;
  std::vector<std::string> argv;
  const std::string wire = EncodeCommand({"SET", "key", "value"});
  // Feed one byte at a time: every prefix must report kNeedMore.
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    d.Feed(Slice(wire.data() + i, 1));
    ASSERT_EQ(d.DecodeCommand(&argv), DecodeStatus::kNeedMore) << i;
  }
  d.Feed(Slice(wire.data() + wire.size() - 1, 1));
  ASSERT_EQ(d.DecodeCommand(&argv), DecodeStatus::kOk);
  EXPECT_EQ(argv, (std::vector<std::string>{"SET", "key", "value"}));
  EXPECT_EQ(d.DecodeCommand(&argv), DecodeStatus::kNeedMore);
}

TEST(RespStreamTest, DecodeCommandPipelined) {
  Decoder d;
  d.Feed(EncodeCommand({"PING"}) + EncodeCommand({"GET", "k"}));
  std::vector<std::string> argv;
  ASSERT_EQ(d.DecodeCommand(&argv), DecodeStatus::kOk);
  EXPECT_EQ(argv, (std::vector<std::string>{"PING"}));
  ASSERT_EQ(d.DecodeCommand(&argv), DecodeStatus::kOk);
  EXPECT_EQ(argv, (std::vector<std::string>{"GET", "k"}));
  EXPECT_EQ(d.DecodeCommand(&argv), DecodeStatus::kNeedMore);
}

TEST(RespStreamTest, DecodeCommandMultibulk) {
  Decoder d;
  d.Feed(EncodeCommand({"HSET", "h", "f", "v"}));
  std::vector<std::string> argv;
  ASSERT_EQ(d.DecodeCommand(&argv), DecodeStatus::kOk);
  EXPECT_EQ(argv, (std::vector<std::string>{"HSET", "h", "f", "v"}));
}

TEST(RespStreamTest, DecodeCommandReusesArgvStrings) {
  // A caller that decodes into the same argv keeps its strings: the second
  // command is written into the first one's buffers, and a shorter command
  // drops the extra arguments.
  const std::string key1 = "k0123456789abcdef0";  // past the inline buffer
  const std::string key2 = "k0123456789abcdef1";
  Decoder d;
  d.Feed(EncodeCommand({"SET", key1, "v"}) + EncodeCommand({"GET", key2}));
  std::vector<std::string> argv;
  ASSERT_EQ(d.DecodeCommand(&argv), DecodeStatus::kOk);
  const char* key_buffer = argv[1].data();
  ASSERT_EQ(d.DecodeCommand(&argv), DecodeStatus::kOk);
  EXPECT_EQ(argv, (std::vector<std::string>{"GET", key2}));
  EXPECT_EQ(argv[1].data(), key_buffer);
}

TEST(RespStreamTest, ZeroOrNegativeCountIsSkipped) {
  // Redis consumes a multibulk header whose count is <= 0 and answers
  // nothing, as it does an empty inline line.
  Decoder d;
  std::vector<std::string> argv;
  d.Feed("*0\r\n");
  EXPECT_EQ(d.DecodeCommand(&argv), DecodeStatus::kNeedMore);
  EXPECT_EQ(d.buffered(), 0u);
  d.Feed("*-1\r\n*-7\r\n*00\r\n" + EncodeCommand({"PING"}));
  ASSERT_EQ(d.DecodeCommand(&argv), DecodeStatus::kOk);
  EXPECT_EQ(argv, (std::vector<std::string>{"PING"}));
  EXPECT_EQ(d.DecodeCommand(&argv), DecodeStatus::kNeedMore);
}

TEST(RespStreamTest, NonBulkElementFailsTheCompleteFrame) {
  // An integer, a nested array or a null bulk is no argument. The frame
  // fails once it is complete, as when it was parsed as a value first.
  for (const std::string& wire :
       {std::string("*2\r\n:1\r\n$3\r\nabc\r\n"),
        std::string("*2\r\n$3\r\nGET\r\n*1\r\n$1\r\nk\r\n"),
        std::string("*2\r\n$3\r\nGET\r\n$-1\r\n")}) {
    Decoder d;
    std::vector<std::string> argv;
    std::string error;
    d.Feed(Slice(wire.data(), wire.size() - 1));
    EXPECT_EQ(d.DecodeCommand(&argv, &error), DecodeStatus::kNeedMore)
        << wire;
    d.Feed(Slice(wire.data() + wire.size() - 1, 1));
    EXPECT_EQ(d.DecodeCommand(&argv, &error), DecodeStatus::kError) << wire;
    EXPECT_EQ(error, "command elements must be bulk strings") << wire;
  }
}

TEST(RespStreamTest, MalformedFramesKeepTheirErrors) {
  const struct {
    const char* wire;
    const char* error;
  } cases[] = {
      {"*x\r\n", "bad array length: x"},
      {"*1\r\n$-2\r\n", "bad bulk length: -2"},
      {"*1\r\n$z\r\n", "bad bulk length: z"},
      {"*1\r\n$3\r\nabcd\r\n", "bulk string missing CRLF terminator"},
      {"*2\r\n$1\r\na\r\n!x\r\n", "unexpected marker byte '!'"},
      {"*1\r\n:1x\r\n", "bad integer: 1x"},
  };
  for (const auto& c : cases) {
    Decoder d;
    std::vector<std::string> argv;
    std::string error;
    d.Feed(c.wire);
    EXPECT_EQ(d.DecodeCommand(&argv, &error), DecodeStatus::kError) << c.wire;
    EXPECT_EQ(error, c.error) << c.wire;
  }
}

TEST(RespStreamTest, InlineCommands) {
  Decoder d;
  std::vector<std::string> argv;
  d.Feed("PING\r\n");
  ASSERT_EQ(d.DecodeCommand(&argv), DecodeStatus::kOk);
  EXPECT_EQ(argv, (std::vector<std::string>{"PING"}));
  // Bare \n, extra whitespace, and empty lines are all accepted.
  d.Feed("  SET  k   v \n\r\n\nGET k\r\n");
  ASSERT_EQ(d.DecodeCommand(&argv), DecodeStatus::kOk);
  EXPECT_EQ(argv, (std::vector<std::string>{"SET", "k", "v"}));
  ASSERT_EQ(d.DecodeCommand(&argv), DecodeStatus::kOk);
  EXPECT_EQ(argv, (std::vector<std::string>{"GET", "k"}));
  EXPECT_EQ(d.DecodeCommand(&argv), DecodeStatus::kNeedMore);
}

TEST(RespStreamTest, InlineThenMultibulkMix) {
  Decoder d;
  d.Feed("PING\r\n" + EncodeCommand({"ECHO", "hi"}));
  std::vector<std::string> argv;
  ASSERT_EQ(d.DecodeCommand(&argv), DecodeStatus::kOk);
  ASSERT_EQ(d.DecodeCommand(&argv), DecodeStatus::kOk);
  EXPECT_EQ(argv, (std::vector<std::string>{"ECHO", "hi"}));
}

TEST(RespStreamTest, OversizedBulkRejectedBeforePayload) {
  Decoder d;
  DecodeLimits limits;
  limits.max_bulk_bytes = 16;
  d.set_limits(limits);
  std::vector<std::string> argv;
  std::string error;
  // The declared length alone must trigger the error — no payload sent.
  d.Feed("*2\r\n$3\r\nSET\r\n$1000\r\n");
  EXPECT_EQ(d.DecodeCommand(&argv, &error), DecodeStatus::kError);
  EXPECT_NE(error.find("proto-max-bulk-len"), std::string::npos);
}

TEST(RespStreamTest, OversizedMultibulkRejected) {
  Decoder d;
  DecodeLimits limits;
  limits.max_array_elems = 8;
  d.set_limits(limits);
  std::vector<std::string> argv;
  std::string error;
  d.Feed("*100000\r\n");
  EXPECT_EQ(d.DecodeCommand(&argv, &error), DecodeStatus::kError);
  EXPECT_NE(error.find("multibulk"), std::string::npos);
}

TEST(RespStreamTest, DeepNestingRejectedNotStackOverflow) {
  // Regression (found by fuzz/resp_decode_fuzz.cc): ParseAt recurses per
  // array level, so `*1\r\n` repeated used to run the parser thread out
  // of stack — a remote crash from ~2MB of hostile bytes. The nesting cap
  // must reject the stream as a protocol error instead.
  Decoder d;
  std::string deep;
  for (int i = 0; i < 200000; ++i) deep += "*1\r\n";
  deep += ":1\r\n";
  d.Feed(deep);
  Value v;
  std::string error;
  EXPECT_EQ(d.Decode(&v, &error), DecodeStatus::kError);
  EXPECT_NE(error.find("nesting"), std::string::npos);
}

TEST(RespStreamTest, NestingWithinLimitStillParses) {
  Decoder d;
  DecodeLimits limits;
  limits.max_nesting = 8;
  d.set_limits(limits);
  // 5 levels deep: comfortably legal under the cap of 8.
  d.Feed("*1\r\n*1\r\n*1\r\n*1\r\n*1\r\n:42\r\n");
  Value v;
  std::string error;
  ASSERT_EQ(d.Decode(&v, &error), DecodeStatus::kOk) << error;
  const Value* inner = &v;
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(inner->array.size(), 1u);
    inner = &inner->array[0];
  }
  EXPECT_EQ(inner->integer, 42);
}

TEST(RespStreamTest, OversizedInlineRejected) {
  Decoder d;
  DecodeLimits limits;
  limits.max_inline_bytes = 32;
  d.set_limits(limits);
  std::vector<std::string> argv;
  std::string error;
  d.Feed(std::string(100, 'a'));  // no newline yet, already over the cap
  EXPECT_EQ(d.DecodeCommand(&argv, &error), DecodeStatus::kError);
  EXPECT_NE(error.find("inline"), std::string::npos);
}

TEST(RespStreamTest, ProtocolErrorSurfacesMessage) {
  Decoder d;
  d.Feed("*1\r\n$3\r\nabcd\r\n");  // declared 3 bytes, sent 4
  std::vector<std::string> argv;
  std::string error;
  EXPECT_EQ(d.DecodeCommand(&argv, &error), DecodeStatus::kError);
  EXPECT_FALSE(error.empty());
}

TEST(RespStreamTest, StreamingValueDecode) {
  Decoder d;
  Value v;
  EXPECT_EQ(d.Decode(&v), DecodeStatus::kNeedMore);
  d.Feed("+OK\r\n:42\r\n");
  ASSERT_EQ(d.Decode(&v), DecodeStatus::kOk);
  EXPECT_EQ(v.str, "OK");
  ASSERT_EQ(d.Decode(&v), DecodeStatus::kOk);
  EXPECT_EQ(v.integer, 42);
  std::string error;
  d.Feed("?bogus\r\n");
  EXPECT_EQ(d.Decode(&v, &error), DecodeStatus::kError);
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace memdb::resp
