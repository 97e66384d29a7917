// What a drained I/O buffer keeps: the RESP decoder's input, a RESP
// connection's output and the rpc channels' and connections' in/out buffers
// all grow to the largest burst they carried (std::string never shrinks on
// clear or erase). Each gives back what a large burst left once it drains
// after a small one, so a connection that once carried a large value or a
// restore's multi-MiB ReadStream answers holds no more than
// kMaxIdleBufferBytes from then on, while a stream of large frames (a
// restore's back-to-back 4 MiB answers) reuses its buffer instead of
// reallocating and faulting it in for every frame. The size sits well above
// the steady frames the write path carries (the ~66 KB prefill MSETs,
// group-commit records of at most 256 KiB), so those never reallocate.

#ifndef MEMDB_COMMON_BUFFER_H_
#define MEMDB_COMMON_BUFFER_H_

#include <cstddef>
#include <string>

namespace memdb {

inline constexpr size_t kMaxIdleBufferBytes = size_t{1} << 20;

// Empties `buf`, every byte of which was consumed. When it held at most
// kMaxIdleBufferBytes, a capacity past that (an earlier burst's) is freed.
inline void ClearDrained(std::string* buf) {
  const bool small = buf->size() <= kMaxIdleBufferBytes;
  buf->clear();
  if (small && buf->capacity() > kMaxIdleBufferBytes) {
    std::string().swap(*buf);
  }
}

}  // namespace memdb

#endif  // MEMDB_COMMON_BUFFER_H_
