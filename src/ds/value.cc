#include "ds/value.h"

namespace memdb::ds {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kString:
      return "string";
    case ValueType::kList:
      return "list";
    case ValueType::kHash:
      return "hash";
    case ValueType::kSet:
      return "set";
    case ValueType::kZSet:
      return "zset";
  }
  return "unknown";
}

size_t StringHeapBytes(const std::string& s) {
  static const size_t kInlineCapacity = std::string().capacity();
  return s.capacity() > kInlineCapacity ? MallocChunk(s.capacity() + 1) : 0;
}

size_t Value::ApproxMemory() const {
  switch (type()) {
    case ValueType::kString:
      return StringHeapBytes(str());
    case ValueType::kList:
      return list().ApproxMemory();
    case ValueType::kHash:
      return hash().ApproxMemory();
    case ValueType::kSet:
      return set().ApproxMemory();
    case ValueType::kZSet:
      return zset().ApproxMemory();
  }
  return 0;
}

}  // namespace memdb::ds
