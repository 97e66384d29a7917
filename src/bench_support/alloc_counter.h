// Heap-allocation counting for tests and benchmarks. A binary that links
// memdb_alloc_counter gets a global operator new that counts, per thread,
// every allocation made through it (malloc underneath, so sanitizers still
// see each block).

#ifndef MEMDB_BENCH_SUPPORT_ALLOC_COUNTER_H_
#define MEMDB_BENCH_SUPPORT_ALLOC_COUNTER_H_

#include <cstdint>

namespace memdb::bench {

// operator new calls made by the calling thread so far.
uint64_t ThreadAllocations();

}  // namespace memdb::bench

#endif  // MEMDB_BENCH_SUPPORT_ALLOC_COUNTER_H_
