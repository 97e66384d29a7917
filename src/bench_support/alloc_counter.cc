#include "bench_support/alloc_counter.h"

#include <cstdlib>
#include <new>

namespace {
thread_local uint64_t t_allocations = 0;
}  // namespace

namespace memdb::bench {
uint64_t ThreadAllocations() { return t_allocations; }
}  // namespace memdb::bench

// The replaceable global forms; the nothrow and array forms of the standard
// library call these.
void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
