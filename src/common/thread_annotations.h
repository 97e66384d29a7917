// Clang thread-safety-analysis attribute macros (no-ops on other
// compilers). Annotating a field with GUARDED_BY(mu_) or a method with
// REQUIRES(mu_) turns the repo's prose locking conventions into
// compile-time checks: building with clang and
// -DMEMDB_THREAD_SAFETY_ANALYSIS=ON promotes every violation to an error
// (-Werror=thread-safety). See https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
// and DESIGN.md §8 for the conventions used across this codebase.
//
// Only memdb::Mutex / memdb::MutexLock / memdb::CondVar (common/sync.h)
// carry the capability attributes; raw std::mutex is banned outside
// common/sync.h (enforced by memdb-analyzer), so every lock in the tree is
// visible to the analysis.

#ifndef MEMDB_COMMON_THREAD_ANNOTATIONS_H_
#define MEMDB_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define MEMDB_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define MEMDB_THREAD_ANNOTATION__(x)  // no-op on GCC / MSVC
#endif

// A type that models a lock ("capability" in clang's terminology).
#ifndef CAPABILITY
#define CAPABILITY(x) MEMDB_THREAD_ANNOTATION__(capability(x))
#endif

// An RAII type that acquires a capability in its constructor and releases
// it in its destructor (MutexLock).
#ifndef SCOPED_CAPABILITY
#define SCOPED_CAPABILITY MEMDB_THREAD_ANNOTATION__(scoped_lockable)
#endif

// Data members: may only be read/written while holding the given mutex.
#ifndef GUARDED_BY
#define GUARDED_BY(x) MEMDB_THREAD_ANNOTATION__(guarded_by(x))
#endif

// Pointer members: the pointed-to data (not the pointer) is guarded.
#ifndef PT_GUARDED_BY
#define PT_GUARDED_BY(x) MEMDB_THREAD_ANNOTATION__(pt_guarded_by(x))
#endif

// Declared lock ordering: this mutex must be acquired before/after the
// named ones. Feeds clang's -Wthread-safety and memdb-analyzer's
// lock-order cycle check (tools/memdb_analyzer.py).
#ifndef ACQUIRED_BEFORE
#define ACQUIRED_BEFORE(...) \
  MEMDB_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#endif

#ifndef ACQUIRED_AFTER
#define ACQUIRED_AFTER(...) \
  MEMDB_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))
#endif

// Functions: caller must hold the given mutex(es) on entry (and still
// holds them on exit). The annotation for `private helpers that assume the
// lock`.
#ifndef REQUIRES
#define REQUIRES(...) \
  MEMDB_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#endif

#ifndef REQUIRES_SHARED
#define REQUIRES_SHARED(...) \
  MEMDB_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))
#endif

// Functions: acquire the mutex on entry, caller must not already hold it.
#ifndef ACQUIRE
#define ACQUIRE(...) \
  MEMDB_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#endif

// Functions: release the mutex held on entry.
#ifndef RELEASE
#define RELEASE(...) \
  MEMDB_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#endif

// Functions: acquire the mutex only when returning `ret` (TryLock).
#ifndef TRY_ACQUIRE
#define TRY_ACQUIRE(ret, ...) \
  MEMDB_THREAD_ANNOTATION__(try_acquire_capability(ret, __VA_ARGS__))
#endif

// Functions: caller must NOT hold the given mutex (deadlock prevention for
// public entry points that lock internally).
#ifndef EXCLUDES
#define EXCLUDES(...) MEMDB_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
#endif

// Runtime assertion that the capability is held (Mutex::AssertHeld);
// informs the analysis without acquiring.
#ifndef ASSERT_CAPABILITY
#define ASSERT_CAPABILITY(x) \
  MEMDB_THREAD_ANNOTATION__(assert_capability(x))
#endif

// Functions returning a reference to a capability (accessors).
#ifndef RETURN_CAPABILITY
#define RETURN_CAPABILITY(x) MEMDB_THREAD_ANNOTATION__(lock_returned(x))
#endif

// Escape hatch: the function is deliberately outside the analysis (e.g.
// constructors/destructors that are single-threaded by contract).
#ifndef NO_THREAD_SAFETY_ANALYSIS
#define NO_THREAD_SAFETY_ANALYSIS \
  MEMDB_THREAD_ANNOTATION__(no_thread_safety_analysis)
#endif

#endif  // MEMDB_COMMON_THREAD_ANNOTATIONS_H_
