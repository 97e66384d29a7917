// Seeded violations for the analyzer's file-level rules: a raw std::
// mutex (two findings: the include and the type) and an atomic access
// with the silent seq_cst default.
// Expected: two [raw-sync] findings and one [memory-order] finding.
#include <atomic>
#include <mutex>

namespace memdb {

std::mutex g_raw_mutex;

int ReadCount(std::atomic<int>& c) {
  return c.load();
}

}  // namespace memdb
