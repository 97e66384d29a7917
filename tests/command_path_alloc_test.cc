// Heap allocations on the server's per-GET steps (decode into reused argv
// slots, one FindCommand, Execute(spec, ...), encode into a reused output
// buffer), counted by the replacement operator new of memdb_alloc_counter.
// The one allocation a GET needs is its reply's copy of the value.

#include <gtest/gtest.h>

#include "bench_support/alloc_counter.h"
#include "bench_support/command_path.h"

namespace memdb::bench {
namespace {

TEST(CommandPathAllocTest, AGetAllocatesOnlyItsReplyValue) {
  // read_mostly's shape: 70K keys, batches of 32 GETs.
  GetBatchPath path(70000, 32, /*seed=*/5);
  // The first batch sizes the reused buffers.
  ASSERT_EQ(path.RunBatch(), path.batch());
  for (int b = 0; b < 200; ++b) {
    const uint64_t before = ThreadAllocations();
    ASSERT_EQ(path.RunBatch(), path.batch());
    EXPECT_LE(ThreadAllocations() - before, path.batch()) << "batch " << b;
  }
}

TEST(CommandPathAllocTest, CounterSeesAllocations) {
  // Control: the counter is live in this binary.
  const uint64_t before = ThreadAllocations();
  void* p = ::operator new(64);  // a direct call is never elided
  ::operator delete(p);
  EXPECT_EQ(ThreadAllocations() - before, 1u);
}

}  // namespace
}  // namespace memdb::bench
