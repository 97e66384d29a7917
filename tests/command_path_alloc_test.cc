// Heap allocations on the server's per-GET steps (decode into reused argv
// slots, one FindCommand, Execute(spec, ...), encode into a reused output
// buffer), counted by the replacement operator new of memdb_alloc_counter.
// The one allocation a GET needs is its reply's copy of the value; a
// connection's read and decode of a batch need none.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>

#include "bench_support/alloc_counter.h"
#include "bench_support/command_path.h"
#include "net/connection.h"
#include "resp/resp.h"

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

TEST(CommandPathAllocTest, ABatchAtTheKeptSlotCapReusesItsSlots) {
  // read_mostly's readers pipeline 32 GETs, net::Connection's kept-slot
  // cap; its decode runs to kNeedMore, which takes one slot more.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  net::Connection conn(fds[0], 1, resp::DecodeLimits{});
  std::string wire;
  for (int i = 0; i < 32; ++i) {
    wire += resp::EncodeCommand({"GET", "k0123456789abcdef"});
  }
  for (int b = 0; b < 20; ++b) {
    ASSERT_EQ(::write(fds[1], wire.data(), wire.size()),
              static_cast<ssize_t>(wire.size()));
    const uint64_t before = ThreadAllocations();
    conn.ReadAndParse();
    const size_t decoded = conn.pending().size();
    conn.ClearPending();
    const uint64_t allocations = ThreadAllocations() - before;
    ASSERT_EQ(decoded, 32u);
    // The first batch sizes the slots and the decoder's buffer.
    if (b > 0) {
      EXPECT_EQ(allocations, 0u) << "batch " << b;
    }
  }
  ::close(fds[1]);  // the connection closes fds[0]
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
