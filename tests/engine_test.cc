#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/crc.h"
#include "engine/engine.h"
#include "engine/snapshot.h"

namespace memdb::engine {
namespace {

using resp::Value;

class EngineTest : public ::testing::Test {
 protected:
  Value Run(const Argv& argv, uint64_t now_ms = 1000) {
    ctx_ = ExecContext{};
    ctx_.now_ms = now_ms;
    ctx_.rng = &engine_.rng();
    return engine_.Execute(argv, &ctx_);
  }
  // Runs and returns the accumulated effects of that one command.
  std::vector<Argv> EffectsOf(const Argv& argv, uint64_t now_ms = 1000) {
    Run(argv, now_ms);
    return ctx_.effects;
  }

  Engine engine_;
  ExecContext ctx_;
};

// ---------------------------------------------------------------- strings

TEST_F(EngineTest, SetGet) {
  EXPECT_EQ(Run({"SET", "k", "v"}), Value::Ok());
  EXPECT_EQ(Run({"GET", "k"}), Value::Bulk("v"));
  EXPECT_EQ(Run({"GET", "missing"}), Value::Null());
}

TEST_F(EngineTest, SetNxXx) {
  EXPECT_EQ(Run({"SET", "k", "v1", "NX"}), Value::Ok());
  EXPECT_EQ(Run({"SET", "k", "v2", "NX"}), Value::Null());
  EXPECT_EQ(Run({"GET", "k"}), Value::Bulk("v1"));
  EXPECT_EQ(Run({"SET", "k", "v3", "XX"}), Value::Ok());
  EXPECT_EQ(Run({"SET", "other", "x", "XX"}), Value::Null());
  EXPECT_EQ(Run({"GET", "k"}), Value::Bulk("v3"));
}

TEST_F(EngineTest, SetWithGetOption) {
  Run({"SET", "k", "old"});
  EXPECT_EQ(Run({"SET", "k", "new", "GET"}), Value::Bulk("old"));
  EXPECT_EQ(Run({"SET", "fresh", "v", "GET"}), Value::Null());
}

TEST_F(EngineTest, SetExpiryOptionsAndTtl) {
  Run({"SET", "k", "v", "EX", "10"}, 1000);
  EXPECT_EQ(Run({"TTL", "k"}, 1000), Value::Integer(10));
  EXPECT_EQ(Run({"PTTL", "k"}, 1000), Value::Integer(10000));
  // Expired at 11001.
  EXPECT_EQ(Run({"GET", "k"}, 11001), Value::Null());
  EXPECT_EQ(Run({"TTL", "k"}, 11001), Value::Integer(-2));
}

TEST_F(EngineTest, SetKeepTtl) {
  Run({"SET", "k", "v", "PX", "5000"}, 1000);
  Run({"SET", "k", "v2"}, 2000);  // plain SET clears TTL
  EXPECT_EQ(Run({"TTL", "k"}, 2000), Value::Integer(-1));
  Run({"SET", "k", "v3", "PX", "5000"}, 2000);
  Run({"SET", "k", "v4", "KEEPTTL"}, 3000);
  EXPECT_EQ(Run({"PTTL", "k"}, 3000), Value::Integer(4000));
}

TEST_F(EngineTest, SetReplicatesAsAbsoluteExpiry) {
  auto effects = EffectsOf({"SET", "k", "v", "EX", "10"}, 1000);
  ASSERT_EQ(effects.size(), 1u);
  EXPECT_EQ(effects[0], (Argv{"SET", "k", "v", "PXAT", "11000"}));
}

TEST_F(EngineTest, AppendStrlen) {
  EXPECT_EQ(Run({"APPEND", "k", "Hello"}), Value::Integer(5));
  EXPECT_EQ(Run({"APPEND", "k", " World"}), Value::Integer(11));
  EXPECT_EQ(Run({"STRLEN", "k"}), Value::Integer(11));
  EXPECT_EQ(Run({"GET", "k"}), Value::Bulk("Hello World"));
  EXPECT_EQ(Run({"STRLEN", "nope"}), Value::Integer(0));
}

TEST_F(EngineTest, IncrDecrFamily) {
  EXPECT_EQ(Run({"INCR", "n"}), Value::Integer(1));
  EXPECT_EQ(Run({"INCRBY", "n", "9"}), Value::Integer(10));
  EXPECT_EQ(Run({"DECR", "n"}), Value::Integer(9));
  EXPECT_EQ(Run({"DECRBY", "n", "4"}), Value::Integer(5));
  Run({"SET", "s", "abc"});
  EXPECT_TRUE(Run({"INCR", "s"}).IsError());
  Run({"SET", "big", "9223372036854775807"});
  EXPECT_TRUE(Run({"INCR", "big"}).IsError());  // overflow
}

TEST_F(EngineTest, IncrByFloatReplicatesAsSet) {
  Run({"SET", "f", "10.5"});
  EXPECT_EQ(Run({"INCRBYFLOAT", "f", "0.25"}), Value::Bulk("10.75"));
  auto effects = EffectsOf({"INCRBYFLOAT", "f", "0.25"});
  ASSERT_EQ(effects.size(), 1u);
  EXPECT_EQ(effects[0], (Argv{"SET", "f", "11"}));  // 10.5 + 0.25 + 0.25
}

TEST_F(EngineTest, MSetMGetMSetNx) {
  EXPECT_EQ(Run({"MSET", "a", "1", "b", "2"}), Value::Ok());
  EXPECT_EQ(Run({"MGET", "a", "b", "c"}),
            Value::Array({Value::Bulk("1"), Value::Bulk("2"), Value::Null()}));
  EXPECT_EQ(Run({"MSETNX", "c", "3", "a", "x"}), Value::Integer(0));
  EXPECT_EQ(Run({"GET", "c"}), Value::Null());  // all-or-nothing
  EXPECT_EQ(Run({"MSETNX", "c", "3", "d", "4"}), Value::Integer(1));
}

TEST_F(EngineTest, GetSetGetDel) {
  EXPECT_EQ(Run({"GETSET", "k", "v1"}), Value::Null());
  EXPECT_EQ(Run({"GETSET", "k", "v2"}), Value::Bulk("v1"));
  EXPECT_EQ(Run({"GETDEL", "k"}), Value::Bulk("v2"));
  EXPECT_EQ(Run({"EXISTS", "k"}), Value::Integer(0));
  auto effects = EffectsOf({"GETDEL", "nope"});
  EXPECT_TRUE(effects.empty());
}

TEST_F(EngineTest, SetRangeGetRange) {
  Run({"SET", "k", "Hello World"});
  EXPECT_EQ(Run({"SETRANGE", "k", "6", "Redis"}), Value::Integer(11));
  EXPECT_EQ(Run({"GET", "k"}), Value::Bulk("Hello Redis"));
  EXPECT_EQ(Run({"GETRANGE", "k", "0", "4"}), Value::Bulk("Hello"));
  EXPECT_EQ(Run({"GETRANGE", "k", "-5", "-1"}), Value::Bulk("Redis"));
  EXPECT_EQ(Run({"SETRANGE", "pad", "5", "x"}), Value::Integer(6));
  EXPECT_EQ(Run({"GET", "pad"}), Value::Bulk(std::string("\0\0\0\0\0x", 6)));
  EXPECT_EQ(Run({"SETRANGE", "void", "0", ""}), Value::Integer(0));
  EXPECT_EQ(Run({"EXISTS", "void"}), Value::Integer(0));
}

// Redis refuses a SETRANGE whose string would pass proto-max-bulk-len
// (512 MiB) before it creates the key or allocates anything: a huge offset
// that reached the allocator would throw std::bad_alloc out of Execute and
// abort the server.
TEST_F(EngineTest, SetRangePast512MiBIsRefusedWithoutAllocating) {
  const Value too_big = Value::Error(
      "ERR string exceeds maximum allowed size (proto-max-bulk-len)");
  Run({"SET", "s", "abc"});
  const size_t used = engine_.keyspace().used_memory();

  EXPECT_EQ(Run({"SETRANGE", "k", "9223372036854775800", "x"}), too_big);
  EXPECT_TRUE(ctx_.effects.empty());
  // 512 MiB exactly is allowed; one byte past it is not.
  EXPECT_EQ(Run({"SETRANGE", "k", "536870912", "x"}), too_big);
  EXPECT_EQ(Run({"SETRANGE", "s", "536870910", "xyz"}), too_big);
  EXPECT_TRUE(ctx_.effects.empty());
  EXPECT_EQ(engine_.keyspace().used_memory(), used);
  EXPECT_EQ(Run({"EXISTS", "k"}), Value::Integer(0));
  EXPECT_EQ(Run({"GET", "s"}), Value::Bulk("abc"));

  // A key of another type still answers WRONGTYPE first, as in Redis.
  Run({"LPUSH", "l", "x"});
  const Value wrong = Run({"SETRANGE", "l", "536870912", "x"});
  ASSERT_TRUE(wrong.IsError());
  EXPECT_EQ(wrong.str.rfind("WRONGTYPE", 0), 0u) << wrong.str;
}

TEST_F(EngineTest, TypeErrors) {
  Run({"LPUSH", "l", "x"});
  EXPECT_TRUE(Run({"GET", "l"}).IsError());
  EXPECT_TRUE(Run({"INCR", "l"}).IsError());
  Run({"SET", "s", "v"});
  EXPECT_TRUE(Run({"LPUSH", "s", "x"}).IsError());
  EXPECT_TRUE(Run({"SADD", "s", "x"}).IsError());
  EXPECT_TRUE(Run({"ZADD", "s", "1", "x"}).IsError());
  EXPECT_TRUE(Run({"HSET", "s", "f", "v"}).IsError());
}

// ---------------------------------------------------------------- keys

TEST_F(EngineTest, DelExistsType) {
  Run({"SET", "a", "1"});
  Run({"LPUSH", "l", "x"});
  EXPECT_EQ(Run({"EXISTS", "a", "l", "nope", "a"}), Value::Integer(3));
  EXPECT_EQ(Run({"TYPE", "a"}), Value::Simple("string"));
  EXPECT_EQ(Run({"TYPE", "l"}), Value::Simple("list"));
  EXPECT_EQ(Run({"TYPE", "nope"}), Value::Simple("none"));
  EXPECT_EQ(Run({"DEL", "a", "l", "nope"}), Value::Integer(2));
}

TEST_F(EngineTest, ExpireReplicatesAsPExpireAt) {
  Run({"SET", "k", "v"});
  auto effects = EffectsOf({"EXPIRE", "k", "30"}, 5000);
  ASSERT_EQ(effects.size(), 1u);
  EXPECT_EQ(effects[0], (Argv{"PEXPIREAT", "k", "35000"}));
}

TEST_F(EngineTest, ExpireInPastDeletes) {
  Run({"SET", "k", "v"});
  auto effects = EffectsOf({"EXPIRE", "k", "-1"}, 5000);
  ASSERT_EQ(effects.size(), 1u);
  EXPECT_EQ(effects[0], (Argv{"DEL", "k"}));
  EXPECT_EQ(Run({"EXISTS", "k"}), Value::Integer(0));
}

TEST_F(EngineTest, PersistClearsExpiry) {
  Run({"SET", "k", "v", "EX", "10"}, 1000);
  EXPECT_EQ(Run({"PERSIST", "k"}, 1000), Value::Integer(1));
  EXPECT_EQ(Run({"TTL", "k"}, 1000), Value::Integer(-1));
  EXPECT_EQ(Run({"PERSIST", "k"}, 1000), Value::Integer(0));
}

TEST_F(EngineTest, LazyExpiryOnPrimaryEmitsDel) {
  Run({"SET", "k", "v", "PX", "100"}, 1000);
  auto effects = EffectsOf({"GET", "k"}, 2000);
  ASSERT_EQ(effects.size(), 1u);
  EXPECT_EQ(effects[0], (Argv{"DEL", "k"}));
  EXPECT_EQ(engine_.keyspace().Size(), 0u);
}

TEST_F(EngineTest, ReplicaReadDoesNotDeleteExpired) {
  Run({"SET", "k", "v", "PX", "100"}, 1000);
  ExecContext ctx;
  ctx.now_ms = 2000;
  ctx.role = Role::kReplicaRead;
  ctx.rng = &engine_.rng();
  EXPECT_EQ(engine_.Execute({"GET", "k"}, &ctx), Value::Null());
  EXPECT_TRUE(ctx.effects.empty());
  EXPECT_EQ(engine_.keyspace().Size(), 1u);  // data retained
}

TEST_F(EngineTest, ActiveExpireCycle) {
  for (int i = 0; i < 10; ++i) {
    Run({"SET", "k" + std::to_string(i), "v", "PX", "100"}, 1000);
  }
  Run({"SET", "stay", "v"}, 1000);
  ExecContext ctx;
  ctx.now_ms = 5000;
  EXPECT_EQ(engine_.ActiveExpire(&ctx, 100), 10u);
  EXPECT_EQ(ctx.effects.size(), 10u);
  EXPECT_EQ(engine_.keyspace().Size(), 1u);
}

TEST_F(EngineTest, KeysGlobMatch) {
  Run({"MSET", "user:1", "a", "user:2", "b", "item:1", "c"});
  Value v = Run({"KEYS", "user:*"});
  EXPECT_EQ(v.array.size(), 2u);
  v = Run({"KEYS", "*"});
  EXPECT_EQ(v.array.size(), 3u);
  v = Run({"KEYS", "user:?"});
  EXPECT_EQ(v.array.size(), 2u);
  v = Run({"KEYS", "[ui]*:1"});
  EXPECT_EQ(v.array.size(), 2u);
}

TEST_F(EngineTest, ScanIteratesEverythingOnce) {
  for (int i = 0; i < 95; ++i) Run({"SET", "k" + std::to_string(i), "v"});
  std::set<std::string> seen;
  std::string cursor = "0";
  do {
    Value v = Run({"SCAN", cursor, "COUNT", "10"});
    ASSERT_EQ(v.array.size(), 2u);
    cursor = v.array[0].str;
    for (const auto& k : v.array[1].array) {
      EXPECT_TRUE(seen.insert(k.str).second) << "duplicate " << k.str;
    }
  } while (cursor != "0");
  EXPECT_EQ(seen.size(), 95u);
}

TEST_F(EngineTest, RenameAndRenameNx) {
  Run({"SET", "a", "v", "EX", "100"}, 1000);
  EXPECT_EQ(Run({"RENAME", "a", "b"}, 1000), Value::Ok());
  EXPECT_EQ(Run({"EXISTS", "a"}, 1000), Value::Integer(0));
  EXPECT_EQ(Run({"TTL", "b"}, 1000), Value::Integer(100));  // TTL carried
  EXPECT_TRUE(Run({"RENAME", "ghost", "x"}, 1000).IsError());
  Run({"SET", "c", "v"});
  EXPECT_EQ(Run({"RENAMENX", "c", "b"}, 1000), Value::Integer(0));
}

// ---------------------------------------------------------------- lists

TEST_F(EngineTest, ListPushPopRange) {
  EXPECT_EQ(Run({"RPUSH", "l", "a", "b", "c"}), Value::Integer(3));
  EXPECT_EQ(Run({"LPUSH", "l", "z"}), Value::Integer(4));
  EXPECT_EQ(Run({"LLEN", "l"}), Value::Integer(4));
  EXPECT_EQ(Run({"LRANGE", "l", "0", "-1"}),
            Value::Array({Value::Bulk("z"), Value::Bulk("a"), Value::Bulk("b"),
                          Value::Bulk("c")}));
  EXPECT_EQ(Run({"LPOP", "l"}), Value::Bulk("z"));
  EXPECT_EQ(Run({"RPOP", "l"}), Value::Bulk("c"));
  EXPECT_EQ(Run({"RPOP", "l", "2"}),
            Value::Array({Value::Bulk("b"), Value::Bulk("a")}));
  // Fully popped list disappears.
  EXPECT_EQ(Run({"EXISTS", "l"}), Value::Integer(0));
  EXPECT_EQ(Run({"LPOP", "l"}), Value::Null());
}

TEST_F(EngineTest, PushXRequiresExisting) {
  EXPECT_EQ(Run({"LPUSHX", "l", "x"}), Value::Integer(0));
  EXPECT_EQ(Run({"RPUSHX", "l", "x"}), Value::Integer(0));
  EXPECT_EQ(Run({"EXISTS", "l"}), Value::Integer(0));
  Run({"RPUSH", "l", "a"});
  EXPECT_EQ(Run({"LPUSHX", "l", "x"}), Value::Integer(2));
}

TEST_F(EngineTest, ListIndexSetInsertRemTrim) {
  Run({"RPUSH", "l", "a", "b", "c", "b"});
  EXPECT_EQ(Run({"LINDEX", "l", "1"}), Value::Bulk("b"));
  EXPECT_EQ(Run({"LINDEX", "l", "-1"}), Value::Bulk("b"));
  EXPECT_EQ(Run({"LINDEX", "l", "99"}), Value::Null());
  EXPECT_EQ(Run({"LSET", "l", "0", "A"}), Value::Ok());
  EXPECT_TRUE(Run({"LSET", "l", "99", "X"}).IsError());
  EXPECT_EQ(Run({"LINSERT", "l", "BEFORE", "c", "bb"}), Value::Integer(5));
  EXPECT_EQ(Run({"LINSERT", "l", "AFTER", "zz", "x"}), Value::Integer(-1));
  EXPECT_EQ(Run({"LREM", "l", "0", "b"}), Value::Integer(2));
  EXPECT_EQ(Run({"LTRIM", "l", "0", "1"}), Value::Ok());
  EXPECT_EQ(Run({"LRANGE", "l", "0", "-1"}),
            Value::Array({Value::Bulk("A"), Value::Bulk("bb")}));
}

TEST_F(EngineTest, LMoveAndRPopLPush) {
  Run({"RPUSH", "src", "a", "b", "c"});
  EXPECT_EQ(Run({"LMOVE", "src", "dst", "LEFT", "RIGHT"}), Value::Bulk("a"));
  EXPECT_EQ(Run({"RPOPLPUSH", "src", "dst"}), Value::Bulk("c"));
  EXPECT_EQ(Run({"LRANGE", "dst", "0", "-1"}),
            Value::Array({Value::Bulk("c"), Value::Bulk("a")}));
  EXPECT_EQ(Run({"RPOPLPUSH", "ghost", "dst"}), Value::Null());
}

// ---------------------------------------------------------------- hashes

TEST_F(EngineTest, HashBasics) {
  EXPECT_EQ(Run({"HSET", "h", "f1", "v1", "f2", "v2"}), Value::Integer(2));
  EXPECT_EQ(Run({"HSET", "h", "f1", "v1b"}), Value::Integer(0));
  EXPECT_EQ(Run({"HGET", "h", "f1"}), Value::Bulk("v1b"));
  EXPECT_EQ(Run({"HGET", "h", "nope"}), Value::Null());
  EXPECT_EQ(Run({"HLEN", "h"}), Value::Integer(2));
  EXPECT_EQ(Run({"HEXISTS", "h", "f2"}), Value::Integer(1));
  EXPECT_EQ(Run({"HSTRLEN", "h", "f2"}), Value::Integer(2));
  EXPECT_EQ(Run({"HMGET", "h", "f1", "x", "f2"}),
            Value::Array({Value::Bulk("v1b"), Value::Null(), Value::Bulk("v2")}));
  EXPECT_EQ(Run({"HDEL", "h", "f1", "f2"}), Value::Integer(2));
  EXPECT_EQ(Run({"EXISTS", "h"}), Value::Integer(0));  // empty hash removed
}

TEST_F(EngineTest, HashSetNxAndDumps) {
  EXPECT_EQ(Run({"HSETNX", "h", "f", "1"}), Value::Integer(1));
  EXPECT_EQ(Run({"HSETNX", "h", "f", "2"}), Value::Integer(0));
  EXPECT_EQ(Run({"HGET", "h", "f"}), Value::Bulk("1"));
  Run({"HSET", "h", "g", "2"});
  EXPECT_EQ(Run({"HKEYS", "h"}),
            Value::Array({Value::Bulk("f"), Value::Bulk("g")}));
  EXPECT_EQ(Run({"HVALS", "h"}),
            Value::Array({Value::Bulk("1"), Value::Bulk("2")}));
  EXPECT_EQ(Run({"HGETALL", "h"}),
            Value::Array({Value::Bulk("f"), Value::Bulk("1"), Value::Bulk("g"),
                          Value::Bulk("2")}));
}

TEST_F(EngineTest, HashIncr) {
  EXPECT_EQ(Run({"HINCRBY", "h", "n", "5"}), Value::Integer(5));
  EXPECT_EQ(Run({"HINCRBY", "h", "n", "-3"}), Value::Integer(2));
  Run({"HSET", "h", "s", "abc"});
  EXPECT_TRUE(Run({"HINCRBY", "h", "s", "1"}).IsError());
  EXPECT_EQ(Run({"HINCRBYFLOAT", "h", "f", "1.5"}), Value::Bulk("1.5"));
  auto effects = EffectsOf({"HINCRBYFLOAT", "h", "f", "1.25"});
  ASSERT_EQ(effects.size(), 1u);
  EXPECT_EQ(effects[0], (Argv{"HSET", "h", "f", "2.75"}));
}

// ---------------------------------------------------------------- sets

TEST_F(EngineTest, SetBasics) {
  EXPECT_EQ(Run({"SADD", "s", "a", "b", "c", "a"}), Value::Integer(3));
  EXPECT_EQ(Run({"SCARD", "s"}), Value::Integer(3));
  EXPECT_EQ(Run({"SISMEMBER", "s", "a"}), Value::Integer(1));
  EXPECT_EQ(Run({"SISMEMBER", "s", "z"}), Value::Integer(0));
  EXPECT_EQ(Run({"SMISMEMBER", "s", "a", "z"}),
            Value::Array({Value::Integer(1), Value::Integer(0)}));
  EXPECT_EQ(Run({"SREM", "s", "a", "z"}), Value::Integer(1));
  EXPECT_EQ(Run({"SREM", "s", "b", "c"}), Value::Integer(2));
  EXPECT_EQ(Run({"EXISTS", "s"}), Value::Integer(0));
}

TEST_F(EngineTest, SetOps) {
  Run({"SADD", "s1", "a", "b", "c"});
  Run({"SADD", "s2", "b", "c", "d"});
  EXPECT_EQ(Run({"SINTER", "s1", "s2"}),
            Value::Array({Value::Bulk("b"), Value::Bulk("c")}));
  EXPECT_EQ(Run({"SDIFF", "s1", "s2"}), Value::Array({Value::Bulk("a")}));
  EXPECT_EQ(Run({"SUNION", "s1", "s2"}).array.size(), 4u);
  EXPECT_EQ(Run({"SINTERSTORE", "dst", "s1", "s2"}), Value::Integer(2));
  EXPECT_EQ(Run({"SMEMBERS", "dst"}),
            Value::Array({Value::Bulk("b"), Value::Bulk("c")}));
  EXPECT_EQ(Run({"SDIFFSTORE", "dst", "s2", "s1"}), Value::Integer(1));
  // Store of an empty result deletes the destination.
  EXPECT_EQ(Run({"SINTERSTORE", "dst", "s1", "ghost"}), Value::Integer(0));
  EXPECT_EQ(Run({"EXISTS", "dst"}), Value::Integer(0));
}

TEST_F(EngineTest, SMove) {
  Run({"SADD", "src", "a", "b"});
  EXPECT_EQ(Run({"SMOVE", "src", "dst", "a"}), Value::Integer(1));
  EXPECT_EQ(Run({"SMOVE", "src", "dst", "ghost"}), Value::Integer(0));
  EXPECT_EQ(Run({"SISMEMBER", "dst", "a"}), Value::Integer(1));
}

TEST_F(EngineTest, SPopReplicatesAsSRem) {
  Run({"SADD", "s", "a", "b", "c"});
  Value popped = Run({"SPOP", "s"});
  ASSERT_EQ(popped.type, resp::Type::kBulkString);
  ASSERT_EQ(ctx_.effects.size(), 1u);
  EXPECT_EQ(ctx_.effects[0], (Argv{"SREM", "s", popped.str}));
  EXPECT_EQ(Run({"SISMEMBER", "s", popped.str}), Value::Integer(0));
}

TEST_F(EngineTest, SPopWithCountDrainsSet) {
  Run({"SADD", "s", "a", "b", "c"});
  Value popped = Run({"SPOP", "s", "10"});
  EXPECT_EQ(popped.array.size(), 3u);
  ASSERT_EQ(ctx_.effects.size(), 1u);
  EXPECT_EQ(ctx_.effects[0].size(), 5u);  // SREM s + 3 members
  EXPECT_EQ(Run({"EXISTS", "s"}), Value::Integer(0));
}

TEST_F(EngineTest, SPopOnMissingKeyNoEffect) {
  auto effects = EffectsOf({"SPOP", "ghost"});
  EXPECT_TRUE(effects.empty());
}

// ---------------------------------------------------------------- zsets

TEST_F(EngineTest, ZAddZScoreZCard) {
  EXPECT_EQ(Run({"ZADD", "z", "1", "a", "2", "b"}), Value::Integer(2));
  EXPECT_EQ(Run({"ZADD", "z", "3", "a"}), Value::Integer(0));  // update
  EXPECT_EQ(Run({"ZADD", "z", "CH", "4", "a", "5", "c"}), Value::Integer(2));
  EXPECT_EQ(Run({"ZSCORE", "z", "a"}), Value::Bulk("4"));
  EXPECT_EQ(Run({"ZSCORE", "z", "ghost"}), Value::Null());
  EXPECT_EQ(Run({"ZCARD", "z"}), Value::Integer(3));
  EXPECT_EQ(Run({"ZMSCORE", "z", "a", "ghost"}),
            Value::Array({Value::Bulk("4"), Value::Null()}));
}

TEST_F(EngineTest, ZAddConditionalFlags) {
  Run({"ZADD", "z", "5", "m"});
  EXPECT_EQ(Run({"ZADD", "z", "NX", "9", "m"}), Value::Integer(0));
  EXPECT_EQ(Run({"ZSCORE", "z", "m"}), Value::Bulk("5"));
  EXPECT_EQ(Run({"ZADD", "z", "XX", "9", "ghost"}), Value::Integer(0));
  EXPECT_EQ(Run({"ZSCORE", "z", "ghost"}), Value::Null());
  EXPECT_EQ(Run({"ZADD", "z", "GT", "3", "m"}), Value::Integer(0));
  EXPECT_EQ(Run({"ZSCORE", "z", "m"}), Value::Bulk("5"));  // 3 < 5 skipped
  Run({"ZADD", "z", "GT", "7", "m"});
  EXPECT_EQ(Run({"ZSCORE", "z", "m"}), Value::Bulk("7"));
  Run({"ZADD", "z", "LT", "2", "m"});
  EXPECT_EQ(Run({"ZSCORE", "z", "m"}), Value::Bulk("2"));
}

TEST_F(EngineTest, ZAddIncrMode) {
  EXPECT_EQ(Run({"ZADD", "z", "INCR", "5", "m"}), Value::Bulk("5"));
  EXPECT_EQ(Run({"ZADD", "z", "INCR", "2.5", "m"}), Value::Bulk("7.5"));
  EXPECT_EQ(Run({"ZADD", "z", "NX", "INCR", "1", "m"}), Value::Null());
  auto effects = EffectsOf({"ZINCRBY", "z", "0.5", "m"});
  ASSERT_EQ(effects.size(), 1u);
  EXPECT_EQ(effects[0], (Argv{"ZADD", "z", "8", "m"}));  // resolved score
}

TEST_F(EngineTest, ZRankAndRanges) {
  Run({"ZADD", "z", "1", "a", "2", "b", "3", "c"});
  EXPECT_EQ(Run({"ZRANK", "z", "a"}), Value::Integer(0));
  EXPECT_EQ(Run({"ZREVRANK", "z", "a"}), Value::Integer(2));
  EXPECT_EQ(Run({"ZRANK", "z", "ghost"}), Value::Null());
  EXPECT_EQ(Run({"ZRANGE", "z", "0", "-1"}),
            Value::Array({Value::Bulk("a"), Value::Bulk("b"), Value::Bulk("c")}));
  EXPECT_EQ(
      Run({"ZRANGE", "z", "0", "0", "WITHSCORES"}),
      Value::Array({Value::Bulk("a"), Value::Bulk("1")}));
  EXPECT_EQ(Run({"ZREVRANGE", "z", "0", "1"}),
            Value::Array({Value::Bulk("c"), Value::Bulk("b")}));
  EXPECT_EQ(Run({"ZRANGE", "z", "0", "0", "REV"}),
            Value::Array({Value::Bulk("c")}));
}

TEST_F(EngineTest, ZRangeByScoreAndCount) {
  for (int i = 1; i <= 5; ++i) {
    Run({"ZADD", "z", std::to_string(i), "m" + std::to_string(i)});
  }
  EXPECT_EQ(Run({"ZRANGEBYSCORE", "z", "2", "4"}).array.size(), 3u);
  EXPECT_EQ(Run({"ZRANGEBYSCORE", "z", "(2", "4"}).array.size(), 2u);
  EXPECT_EQ(Run({"ZRANGEBYSCORE", "z", "-inf", "+inf"}).array.size(), 5u);
  EXPECT_EQ(Run({"ZREVRANGEBYSCORE", "z", "4", "2"}),
            Value::Array({Value::Bulk("m4"), Value::Bulk("m3"),
                          Value::Bulk("m2")}));
  EXPECT_EQ(Run({"ZCOUNT", "z", "2", "(4"}), Value::Integer(2));
  EXPECT_EQ(Run({"ZREMRANGEBYSCORE", "z", "1", "3"}), Value::Integer(3));
  EXPECT_EQ(Run({"ZCARD", "z"}), Value::Integer(2));
}

TEST_F(EngineTest, ZPopMinMaxReplicateAsZRem) {
  Run({"ZADD", "z", "1", "a", "2", "b", "3", "c"});
  EXPECT_EQ(Run({"ZPOPMIN", "z"}),
            Value::Array({Value::Bulk("a"), Value::Bulk("1")}));
  ASSERT_EQ(ctx_.effects.size(), 1u);
  EXPECT_EQ(ctx_.effects[0], (Argv{"ZREM", "z", "a"}));
  EXPECT_EQ(Run({"ZPOPMAX", "z", "2"}).array.size(), 4u);
  EXPECT_EQ(Run({"EXISTS", "z"}), Value::Integer(0));
}

// ---------------------------------------------------------------- server

TEST_F(EngineTest, PingEchoTimeDbsize) {
  EXPECT_EQ(Run({"PING"}), Value::Simple("PONG"));
  EXPECT_EQ(Run({"PING", "hi"}), Value::Bulk("hi"));
  EXPECT_EQ(Run({"ECHO", "x"}), Value::Bulk("x"));
  Run({"SET", "k", "v"});
  EXPECT_EQ(Run({"DBSIZE"}), Value::Integer(1));
  Value t = Run({"TIME"}, 12345);
  EXPECT_EQ(t.array[0].str, "12");
  EXPECT_EQ(Run({"SELECT", "0"}), Value::Ok());
  EXPECT_TRUE(Run({"SELECT", "1"}).IsError());
}

TEST_F(EngineTest, FlushAllReplicates) {
  Run({"MSET", "a", "1", "b", "2"});
  auto effects = EffectsOf({"FLUSHALL"});
  ASSERT_EQ(effects.size(), 1u);
  EXPECT_EQ(effects[0], (Argv{"FLUSHALL"}));
  EXPECT_EQ(engine_.keyspace().Size(), 0u);
}

TEST_F(EngineTest, CommandIntrospection) {
  Value count = Run({"COMMAND", "COUNT"});
  EXPECT_GT(count.integer, 80);
  Value all = Run({"COMMAND"});
  EXPECT_EQ(static_cast<int64_t>(all.array.size()), count.integer);
}

TEST_F(EngineTest, UnknownCommandAndArity) {
  EXPECT_TRUE(Run({"BOGUS"}).IsError());
  EXPECT_TRUE(Run({"GET"}).IsError());
  EXPECT_TRUE(Run({"GET", "a", "b"}).IsError());
  EXPECT_TRUE(Run({"SET", "a"}).IsError());
}

TEST_F(EngineTest, MaxMemoryRejectsWrites) {
  // Admission is size-aware: with a 1-byte budget even the first write is
  // rejected up front — nothing ever slips past the ceiling.
  engine_.set_maxmemory(1);
  Value v = Run({"SET", "k", "v"});
  EXPECT_TRUE(v.IsError());
  EXPECT_NE(v.str.find("OOM"), std::string::npos);
  EXPECT_EQ(engine_.keyspace().Size(), 0u);

  // A budget with headroom admits writes until it is exhausted, then
  // rejects; reads and memory-relieving writes keep working at the ceiling.
  engine_.set_maxmemory(200);
  EXPECT_EQ(Run({"SET", "k", "v"}), Value::Ok());
  v = Run({"SET", "k2", std::string(200, 'x')});
  EXPECT_TRUE(v.IsError());
  EXPECT_NE(v.str.find("OOM"), std::string::npos);
  EXPECT_EQ(Run({"GET", "k"}), Value::Bulk("v"));
  EXPECT_EQ(Run({"DEL", "k"}), Value::Integer(1));  // deny_oom = false
}

TEST_F(EngineTest, CommandKeysExtraction) {
  const CommandSpec* mset = engine_.FindCommand("MSET");
  ASSERT_NE(mset, nullptr);
  auto keys = Engine::CommandKeys(*mset, {"MSET", "a", "1", "b", "2"});
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b"}));
  const CommandSpec* get = engine_.FindCommand("get");  // case-insensitive
  ASSERT_NE(get, nullptr);
  keys = Engine::CommandKeys(*get, {"GET", "k"});
  EXPECT_EQ(keys, (std::vector<std::string>{"k"}));
  const CommandSpec* ping = engine_.FindCommand("PING");
  EXPECT_TRUE(Engine::CommandKeys(*ping, {"PING"}).empty());
}

// ------------------------------------------------- replication property

// Replays the primary's effect stream into a replica engine and checks the
// two end states are byte-identical — the invariant the paper's transaction
// log design rests on.
TEST_F(EngineTest, EffectStreamConvergence) {
  Engine replica;
  Rng workload_rng(99);
  std::vector<Argv> log;
  const std::vector<std::string> keys = {"k1", "k2", "k3", "{t}l", "{t}s",
                                         "{t}z", "{t}h"};
  for (int i = 0; i < 5000; ++i) {
    ExecContext ctx;
    ctx.now_ms = 1000 + static_cast<uint64_t>(i);
    ctx.rng = &engine_.rng();
    const std::string& key = keys[workload_rng.Uniform(keys.size())];
    Argv cmd;
    switch (workload_rng.Uniform(12)) {
      case 0:
        cmd = {"SET", key, workload_rng.RandomString(8)};
        break;
      case 1:
        cmd = {"SET", key, "v", "PX", std::to_string(workload_rng.UniformRange(1, 50))};
        break;
      case 2:
        cmd = {"DEL", key};
        break;
      case 3:
        cmd = {"INCR", "counter"};
        break;
      case 4:
        cmd = {"LPUSH", "{t}l", workload_rng.RandomString(4)};
        break;
      case 5:
        cmd = {"RPOP", "{t}l"};
        break;
      case 6:
        cmd = {"SADD", "{t}s", std::to_string(workload_rng.Uniform(50))};
        break;
      case 7:
        cmd = {"SPOP", "{t}s"};
        break;
      case 8:
        cmd = {"ZADD", "{t}z", std::to_string(workload_rng.Uniform(100)),
               "m" + std::to_string(workload_rng.Uniform(20))};
        break;
      case 9:
        cmd = {"ZPOPMIN", "{t}z"};
        break;
      case 10:
        cmd = {"HSET", "{t}h", "f" + std::to_string(workload_rng.Uniform(10)),
               workload_rng.RandomString(4)};
        break;
      case 11:
        cmd = {"INCRBYFLOAT", "float", "0.1"};
        break;
    }
    engine_.Execute(cmd, &ctx);
    for (auto& effect : ctx.effects) log.push_back(std::move(effect));
  }
  // Final active-expire sweep so both sides agree on expired keys.
  ExecContext sweep;
  sweep.now_ms = 10'000'000;
  engine_.ActiveExpire(&sweep, 1'000'000);
  for (auto& effect : sweep.effects) log.push_back(std::move(effect));

  for (const Argv& effect : log) {
    Value v = replica.Apply(effect, 0);
    ASSERT_FALSE(v.IsError()) << v.ToString();
  }

  SnapshotMeta meta;
  const std::string a = SerializeSnapshot(engine_.keyspace(), meta);
  const std::string b = SerializeSnapshot(replica.keyspace(), meta);
  EXPECT_EQ(a, b) << "primary and replica diverged";
  EXPECT_GT(engine_.keyspace().Size(), 0u);  // workload left data behind
}

// ---------------------------------------------------------- deadline index

// Every (deadline, key) pair the entries hold, found by scanning them all:
// the order in which the keyspace's deadline index must hand keys out.
std::vector<std::pair<uint64_t, std::string>> DeadlinesByScan(
    const Keyspace& ks) {
  std::vector<std::pair<uint64_t, std::string>> out;
  ks.ForEach([&](const std::string& k, const Keyspace::Entry& e) {
    if (e.expire_at_ms() != 0) out.emplace_back(e.expire_at_ms(), k);
  });
  std::sort(out.begin(), out.end());
  return out;
}

// The keys of `by_deadline` expired at `now_ms`, at most `limit` of them.
std::vector<std::string> ExpiredPrefix(
    const std::vector<std::pair<uint64_t, std::string>>& by_deadline,
    uint64_t now_ms, size_t limit) {
  std::vector<std::string> out;
  for (const auto& [at, key] : by_deadline) {
    if (at > now_ms || out.size() >= limit) break;
    out.push_back(key);
  }
  return out;
}

// `expires=` of INFO's db0 line.
uint64_t InfoExpires(Engine& engine, uint64_t now_ms) {
  ExecContext ctx;
  ctx.now_ms = now_ms;
  ctx.rng = &engine.rng();
  const std::string info = engine.Execute({"INFO", "keyspace"}, &ctx).str;
  const size_t at = info.find(",expires=");
  EXPECT_NE(at, std::string::npos) << info;
  return at == std::string::npos ? 0 : std::stoull(info.substr(at + 9));
}

uint64_t EvictedTotal(const Engine& engine) {
  const Counter* c = engine.metrics().FindCounter("evicted_keys_total");
  return c == nullptr ? 0 : c->value();
}

// A seeded random walk over every writer of a key's deadline — SET
// EX/PX/PXAT/KEEPTTL, SETEX/PSETEX, the EXPIRE family (including deadlines
// in the past), PERSIST, GETEX, COPY, RESTORE, RENAME — plus DEL, APPEND,
// FLUSHALL, lazy expiry on GET, eviction under a tight budget, active
// expiry, and snapshot serialize -> load into a fresh engine. After every
// step the deadline index must agree with a scan of all entries.
TEST(DeadlineIndexTest, MatchesBruteForceScanUnderRandomWriters) {
  for (const EvictionPolicy policy :
       {EvictionPolicy::kAllKeysLru, EvictionPolicy::kVolatileTtl}) {
    SCOPED_TRACE(EvictionPolicyName(policy));
    Engine::Config config;
    config.maxmemory_bytes = 4096;
    config.eviction_policy = policy;
    auto engine = std::make_unique<Engine>(config);
    Rng rng(policy == EvictionPolicy::kVolatileTtl ? 0x77 : 0x11);
    uint64_t now = 1000;
    size_t active_expired = 0, lazy_expired = 0, evicted = 0, loads = 0;

    for (int step = 0; step < 4000; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      now += rng.Uniform(25);
      const std::string k = "k" + std::to_string(rng.Uniform(48));
      const std::string k2 = "k" + std::to_string(rng.Uniform(48));
      const std::string val = rng.RandomString(rng.UniformRange(4, 120));
      const std::string ttl = std::to_string(rng.UniformRange(1, 400));
      const std::string at = std::to_string(now + rng.UniformRange(1, 400));
      const auto before = DeadlinesByScan(engine->keyspace());

      const uint64_t pick = rng.Uniform(20);
      if (pick == 18) {
        // Active expiry at a random later time and cap.
        const uint64_t when = now + rng.Uniform(300);
        const size_t limit = rng.UniformRange(1, 30);
        const std::vector<std::string> want =
            ExpiredPrefix(before, when, limit);
        ExecContext ctx;
        ctx.now_ms = when;
        ctx.rng = &engine->rng();
        ASSERT_EQ(engine->ActiveExpire(&ctx, limit), want.size());
        ASSERT_EQ(ctx.effects.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(ctx.effects[i], (Argv{"DEL", want[i]}));
          EXPECT_EQ(engine->keyspace().FindRaw(want[i]), nullptr);
        }
        active_expired += want.size();
        now = when;
      } else if (pick == 19) {
        SnapshotMeta meta;
        const std::string blob = SerializeSnapshot(engine->keyspace(), meta);
        auto fresh = std::make_unique<Engine>(config);
        ASSERT_TRUE(DeserializeSnapshot(blob, &fresh->keyspace(), &meta).ok());
        ASSERT_EQ(fresh->keyspace().Size(), engine->keyspace().Size());
        engine = std::move(fresh);
        ++loads;
      } else {
        Argv cmd;
        switch (pick) {
          case 0: cmd = {"SET", k, val}; break;
          case 1: cmd = {"SET", k, val, "PX", ttl}; break;
          case 2: cmd = {"SET", k, val, "PXAT", at}; break;
          case 3: cmd = {"SET", k, val, "KEEPTTL"}; break;
          case 4: cmd = {"PSETEX", k, ttl, val}; break;
          case 5: cmd = {"SETEX", k, "1", val}; break;
          case 6: cmd = {"PEXPIRE", k, ttl}; break;
          case 7: cmd = {"EXPIRE", k, rng.Uniform(3) == 0 ? "-1" : "1"}; break;
          case 8: cmd = {"PEXPIREAT", k, at}; break;
          case 9: cmd = {"PERSIST", k}; break;
          case 10:
            cmd = rng.Uniform(2) == 0 ? Argv{"GETEX", k, "PX", ttl}
                                      : Argv{"GETEX", k, "PERSIST"};
            break;
          case 11: cmd = {"COPY", k, k2, "REPLACE"}; break;
          case 12: {
            std::string blob;  // DUMP's format: value + CRC64 trailer
            SerializeValue(ds::Value(val), &blob);
            PutFixed64(&blob, Crc64(0, blob.data(), blob.size()));
            cmd = {"RESTORE", k, rng.Uniform(3) == 0 ? "0" : ttl, blob,
                   "REPLACE"};
            break;
          }
          case 13: cmd = {"RENAME", k, k2}; break;
          case 14: cmd = {"DEL", k}; break;
          case 15: cmd = {"APPEND", k, val}; break;
          case 16: cmd = {"GET", k}; break;
          default:
            cmd = rng.Uniform(20) == 0 ? Argv{"FLUSHALL"} : Argv{"GET", k2};
            break;
        }
        ExecContext ctx;
        ctx.now_ms = now;
        ctx.rng = &engine->rng();
        const uint64_t evicted_before = EvictedTotal(*engine);
        engine->Execute(cmd, &ctx);
        const size_t victims = EvictedTotal(*engine) - evicted_before;
        evicted += victims;
        if (policy == EvictionPolicy::kVolatileTtl) {
          // Exact volatile-ttl: the victims are the earliest deadlines.
          ASSERT_LE(victims, before.size());
          ASSERT_GE(ctx.effects.size(), victims);
          for (size_t i = 0; i < victims; ++i) {
            EXPECT_EQ(ctx.effects[i], (Argv{"DEL", before[i].second}));
          }
        }
        if (cmd[0] == "GET" && !ctx.effects.empty()) ++lazy_expired;
      }

      // The index against the scan: size, INFO, and expired-key order.
      const auto after = DeadlinesByScan(engine->keyspace());
      ASSERT_EQ(engine->keyspace().ExpiresSize(), after.size());
      ASSERT_EQ(InfoExpires(*engine, now), after.size());
      const uint64_t probe = now + rng.Uniform(300);
      const size_t limit = rng.UniformRange(1, 30);
      ASSERT_EQ(engine->keyspace().ExpiredKeys(probe, limit),
                ExpiredPrefix(after, probe, limit));
    }
    // The walk really exercised every removal path.
    EXPECT_GT(active_expired, 0u);
    EXPECT_GT(lazy_expired, 0u);
    EXPECT_GT(evicted, 0u);
    EXPECT_GT(loads, 0u);
  }
}

// ---------------------------------------------------------- keyspace layout

// A seeded random walk over Keyspace's own writers — Put (new and
// replacing, with and without a deadline), Erase, Rename, SetExpiry,
// OnValueMutated and Clear — against a std::map model. Keys are short
// (inline strings) and long (heap strings), and a hash tag piles many
// into one slot. After every step: Size, ExpiresSize, used_memory as the
// sum of the per-entry charges, the touched slot's table, ExpiredKeys
// order and ForEach coverage.
TEST(KeyspaceModelTest, MatchesMapModelUnderRandomWriters) {
  struct Model {
    std::string value;
    uint64_t expire_at_ms = 0;
  };
  std::map<std::string, Model> model;
  Keyspace ks;
  Rng rng(0x6b657973);
  auto random_key = [&] {
    const std::string n = std::to_string(rng.Uniform(24));
    switch (rng.Uniform(3)) {
      case 0: return "k" + n;
      case 1: return "{tagged}a-long-key-name-" + n;
      default: return "another-long-key-" + n;
    }
  };
  auto random_deadline = [&]() -> uint64_t {
    return rng.Uniform(2) == 0 ? 0 : rng.UniformRange(1, 2000);
  };
  size_t replaced = 0, renamed = 0, mutated = 0, clears = 0;

  for (int step = 0; step < 4000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const std::string key = random_key();
    const uint64_t pick = rng.Uniform(50);
    if (pick < 20) {
      const std::string value = rng.RandomString(rng.Uniform(64));
      const uint64_t deadline = random_deadline();
      if (model.count(key) != 0) ++replaced;
      Keyspace::Entry* e = ks.Put(key, ds::Value(value), deadline);
      ASSERT_EQ(e, ks.FindRaw(key));
      EXPECT_EQ(e->lfu_count, kLfuInitVal);
      model[key] = Model{value, deadline};
    } else if (pick < 28) {
      ASSERT_EQ(ks.Erase(key), model.erase(key) == 1);
    } else if (pick < 34) {
      const std::string dst = random_key();
      auto it = model.find(key);
      ASSERT_EQ(ks.Rename(key, dst), it != model.end());
      if (it != model.end()) {
        Model moved = std::move(it->second);
        model.erase(it);
        model[dst] = std::move(moved);
        ++renamed;
      }
    } else if (pick < 41) {
      const uint64_t deadline = random_deadline();
      ks.SetExpiry(key, deadline);
      auto it = model.find(key);
      if (it != model.end()) it->second.expire_at_ms = deadline;
    } else if (pick < 49) {
      Keyspace::Entry* e = ks.FindRaw(key);
      ASSERT_EQ(e != nullptr, model.count(key) == 1);
      const std::string tail = rng.RandomString(rng.Uniform(40));
      if (e != nullptr) {
        e->value.str() += tail;
        model[key].value += tail;
        ++mutated;
      }
      ASSERT_EQ(ks.OnValueMutated(key), e);
    } else {
      ks.Clear();
      model.clear();
      ++clears;
    }

    ASSERT_EQ(ks.Size(), model.size());
    std::vector<std::pair<uint64_t, std::string>> by_deadline;
    for (const auto& [k, m] : model) {
      if (m.expire_at_ms != 0) by_deadline.emplace_back(m.expire_at_ms, k);
    }
    std::sort(by_deadline.begin(), by_deadline.end());
    ASSERT_EQ(ks.ExpiresSize(), by_deadline.size());

    std::map<std::string, Model> seen;
    size_t charged = 0;
    ks.ForEach([&](const std::string& k, const Keyspace::Entry& e) {
      EXPECT_TRUE(seen.emplace(k, Model{e.value.str(), e.expire_at_ms()}).second)
          << k << " visited twice";
      charged += Keyspace::Charge(k, e.value);
    });
    ASSERT_EQ(seen.size(), model.size());
    for (const auto& [k, m] : model) {
      auto it = seen.find(k);
      ASSERT_NE(it, seen.end()) << k;
      EXPECT_EQ(it->second.value, m.value) << k;
      EXPECT_EQ(it->second.expire_at_ms, m.expire_at_ms) << k;
    }
    ASSERT_EQ(ks.used_memory(), charged);
    ASSERT_GE(ks.used_memory_peak(), ks.used_memory());

    const uint16_t slot = KeyHashSlot(key);
    std::set<std::string> in_slot;
    for (const auto& [k, m] : model) {
      if (KeyHashSlot(k) == slot) in_slot.insert(k);
    }
    std::set<std::string> table;
    for (const auto& [k, e] : ks.KeysInSlot(slot)) table.insert(k);
    ASSERT_EQ(table, in_slot);

    const uint64_t probe = rng.Uniform(2100);
    const size_t limit = rng.UniformRange(1, 30);
    ASSERT_EQ(ks.ExpiredKeys(probe, limit),
              ExpiredPrefix(by_deadline, probe, limit));
  }
  // The walk reached every writer's interesting case.
  EXPECT_GT(replaced, 0u);
  EXPECT_GT(renamed, 0u);
  EXPECT_GT(mutated, 0u);
  EXPECT_GT(clears, 0u);
}

// The sampler finds its slot through the per-slot size tree, so a keyspace
// that leaves nearly every slot empty still yields a candidate every time.
TEST(KeyspaceModelTest, SampleEntriesFindsAKeyInATinyKeyspace) {
  Keyspace ks;
  for (const char* k : {"a", "b", "c"}) ks.Put(k, ds::Value(std::string("v")));
  Rng rng(3);
  std::set<std::string> sampled;
  for (int i = 0; i < 200; ++i) {
    const auto samples = ks.SampleEntries(rng, 1);
    ASSERT_EQ(samples.size(), 1u);
    ASSERT_EQ(ks.FindRaw(*samples[0].key), samples[0].entry);
    sampled.insert(*samples[0].key);
  }
  EXPECT_EQ(sampled.size(), 3u);
}

// Keys under one hash tag share one table, so a draw cannot walk to its
// offset; it must still reach every key, bucket-chain neighbours included.
TEST(KeyspaceModelTest, SampleEntriesReachesEveryKeyOfOneSlot) {
  Keyspace ks;
  for (int i = 0; i < 300; ++i) {
    ks.Put("{tag}:" + std::to_string(i), ds::Value(std::string("v")));
  }
  ASSERT_EQ(ks.KeysInSlot(KeyHashSlot("{tag}")).size(), 300u);
  Rng rng(5);
  std::set<std::string> sampled;
  for (int i = 0; i < 30000 && sampled.size() < 300; ++i) {
    const auto samples = ks.SampleEntries(rng, 1);
    ASSERT_EQ(samples.size(), 1u);
    ASSERT_EQ(ks.FindRaw(*samples[0].key), samples[0].entry);
    sampled.insert(*samples[0].key);
  }
  EXPECT_EQ(sampled.size(), 300u);
}

// Erasing keeps a table's bucket array, so a slot that held many keys and
// now holds few is mostly empty buckets; a draw still returns a live key.
TEST(KeyspaceModelTest, SampleEntriesFindsAKeyInADrainedSlot) {
  Keyspace ks;
  for (int i = 0; i < 4000; ++i) {
    ks.Put("{tag}:" + std::to_string(i), ds::Value(std::string("v")));
  }
  for (int i = 40; i < 4000; ++i) ks.Erase("{tag}:" + std::to_string(i));
  ASSERT_EQ(ks.Size(), 40u);
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const auto samples = ks.SampleEntries(rng, 5);
    ASSERT_EQ(samples.size(), 5u);
    for (const Keyspace::Sampled& s : samples) {
      ASSERT_EQ(ks.FindRaw(*s.key), s.entry);
    }
  }
}

TEST_F(EngineTest, RandomKeyReachesEveryKeyOfOneSlot) {
  std::set<std::string> keys;
  for (int i = 0; i < 100; ++i) {
    keys.insert("{tag}:" + std::to_string(i));
    Run({"SET", "{tag}:" + std::to_string(i), "v"});
  }
  std::set<std::string> drawn;
  for (int i = 0; i < 20000 && drawn.size() < keys.size(); ++i) {
    const Value v = Run({"RANDOMKEY"});
    ASSERT_EQ(v.type, resp::Type::kBulkString);
    drawn.insert(v.str);
  }
  EXPECT_EQ(drawn, keys);
}

TEST_F(EngineTest, RandomKeyReachesEveryKey) {
  for (const char* k : {"a", "b", "c"}) Run({"SET", k, "v"});
  std::set<std::string> drawn;
  for (int i = 0; i < 200 && drawn.size() < 3; ++i) {
    const Value v = Run({"RANDOMKEY"});
    ASSERT_EQ(v.type, resp::Type::kBulkString);
    drawn.insert(v.str);
  }
  EXPECT_EQ(drawn, (std::set<std::string>{"a", "b", "c"}));
}

// ---------------------------------------------------------------- snapshot

TEST_F(EngineTest, SnapshotRoundTrip) {
  Run({"SET", "s", "hello", "EX", "100"}, 1000);
  Run({"RPUSH", "l", "a", "b"});
  Run({"HSET", "h", "f", "v"});
  Run({"SADD", "set", "1", "2", "x"});
  Run({"ZADD", "z", "1.5", "m"});

  SnapshotMeta meta;
  meta.log_position = 42;
  meta.log_running_checksum = 0xDEADBEEF;
  meta.created_at_ms = 777;
  const std::string blob = SerializeSnapshot(engine_.keyspace(), meta);

  SnapshotMeta header_only;
  ASSERT_TRUE(ReadSnapshotMeta(blob, &header_only).ok());
  EXPECT_EQ(header_only.log_position, 42u);
  EXPECT_EQ(header_only.log_running_checksum, 0xDEADBEEFu);

  Engine restored;
  SnapshotMeta restored_meta;
  ASSERT_TRUE(
      DeserializeSnapshot(blob, &restored.keyspace(), &restored_meta).ok());
  EXPECT_EQ(restored_meta.created_at_ms, 777u);
  EXPECT_EQ(restored.keyspace().Size(), 5u);

  ExecContext ctx;
  ctx.now_ms = 1000;
  ctx.rng = &restored.rng();
  EXPECT_EQ(restored.Execute({"GET", "s"}, &ctx), Value::Bulk("hello"));
  EXPECT_EQ(restored.Execute({"TTL", "s"}, &ctx), Value::Integer(100));
  EXPECT_EQ(restored.Execute({"LRANGE", "l", "0", "-1"}, &ctx),
            Value::Array({Value::Bulk("a"), Value::Bulk("b")}));
  EXPECT_EQ(restored.Execute({"ZSCORE", "z", "m"}, &ctx), Value::Bulk("1.5"));

  // Deterministic serialization: re-snapshot is byte-identical.
  EXPECT_EQ(SerializeSnapshot(restored.keyspace(), meta), blob);
}

TEST_F(EngineTest, SnapshotDetectsCorruption) {
  Run({"SET", "k", "v"});
  SnapshotMeta meta;
  std::string blob = SerializeSnapshot(engine_.keyspace(), meta);
  blob[blob.size() / 2] ^= 0x01;
  Engine restored;
  SnapshotMeta m2;
  Status s = DeserializeSnapshot(blob, &restored.keyspace(), &m2);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(EngineTest, SnapshotRejectsTruncation) {
  Run({"SET", "k", "v"});
  SnapshotMeta meta;
  std::string blob = SerializeSnapshot(engine_.keyspace(), meta);
  Engine restored;
  SnapshotMeta m2;
  EXPECT_TRUE(DeserializeSnapshot(Slice(blob.data(), blob.size() - 3),
                                  &restored.keyspace(), &m2)
                  .IsCorruption());
}

}  // namespace
}  // namespace memdb::engine
