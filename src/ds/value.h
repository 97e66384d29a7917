// Value: the engine's per-key object — one of the five supported data
// structures. Equivalent to Redis' robj, minus reference counting (keys own
// their values exclusively).

#ifndef MEMDB_DS_VALUE_H_
#define MEMDB_DS_VALUE_H_

#include <cassert>
#include <memory>
#include <string>
#include <variant>

#include "ds/hash.h"
#include "ds/quicklist.h"
#include "ds/set.h"
#include "ds/zset.h"

namespace memdb::ds {

enum class ValueType : uint8_t {
  kString = 0,
  kList = 1,
  kHash = 2,
  kSet = 3,
  kZSet = 4,
};

const char* ValueTypeName(ValueType t);

// Bytes a glibc malloc chunk takes for an `n`-byte request on a 64-bit
// host: the request plus the 8-byte size header, rounded up to 16, and
// never less than 32.
constexpr size_t MallocChunk(size_t n) {
  const size_t chunk = (n + 8 + 15) & ~size_t{15};
  return chunk < 32 ? 32 : chunk;
}

// Heap bytes `s` owns: none while it fits the string's inline buffer.
size_t StringHeapBytes(const std::string& s);

class Value {
 public:
  // Strings live inline; the aggregates are boxed, so a string key does
  // not pay for the largest aggregate's footprint.
  explicit Value(std::string s) : v_(std::move(s)) {}
  explicit Value(QuickList l) : v_(std::make_unique<QuickList>(std::move(l))) {}
  explicit Value(Hash h) : v_(std::make_unique<Hash>(std::move(h))) {}
  explicit Value(Set s) : v_(std::make_unique<Set>(std::move(s))) {}
  explicit Value(ZSet z) : v_(std::make_unique<ZSet>(std::move(z))) {}

  Value(Value&&) noexcept = default;
  Value& operator=(Value&&) noexcept = default;
  Value(const Value&) = delete;
  Value& operator=(const Value&) = delete;

  ValueType type() const { return static_cast<ValueType>(v_.index()); }
  bool IsString() const { return type() == ValueType::kString; }

  std::string& str() { return std::get<std::string>(v_); }
  const std::string& str() const { return std::get<std::string>(v_); }
  QuickList& list() { return *std::get<std::unique_ptr<QuickList>>(v_); }
  const QuickList& list() const {
    return *std::get<std::unique_ptr<QuickList>>(v_);
  }
  Hash& hash() { return *std::get<std::unique_ptr<Hash>>(v_); }
  const Hash& hash() const { return *std::get<std::unique_ptr<Hash>>(v_); }
  Set& set() { return *std::get<std::unique_ptr<Set>>(v_); }
  const Set& set() const { return *std::get<std::unique_ptr<Set>>(v_); }
  ZSet& zset() { return *std::get<std::unique_ptr<ZSet>>(v_); }
  const ZSet& zset() const { return *std::get<std::unique_ptr<ZSet>>(v_); }

  // Heap bytes the value owns beyond the Value object itself: a string's
  // block, or an aggregate's estimate. Used for maxmemory accounting and
  // the fork/COW model in the snapshotting experiments.
  size_t ApproxMemory() const;

 private:
  std::variant<std::string, std::unique_ptr<QuickList>, std::unique_ptr<Hash>,
               std::unique_ptr<Set>, std::unique_ptr<ZSet>>
      v_;
};

// A string plus the variant's index. Keyspace::Entry embeds a Value, and a
// table node must fit glibc's 128-byte chunk (engine/keyspace.h).
static_assert(sizeof(Value) == 40);

}  // namespace memdb::ds

#endif  // MEMDB_DS_VALUE_H_
