// FsObjectStore: a local-directory stand-in for S3, shared by every real
// daemon (memorydb-server --restore, memorydb-snapshotd). Where
// storage::ObjectStore is a simulation actor, FsObjectStore is a plain
// synchronous blob store over a directory tree:
//
//   * Put is crash-atomic and durable once OK: the blob is written to a
//     unique ".tmp-" sibling, fsynced, renamed into place, its directories
//     fsynced; a crash mid-upload leaves only a tmp file Get/List ignore.
//   * Every blob carries a CRC64 + magic trailer appended on Put and
//     verified (then stripped) on Get, so torn or corrupted files surface
//     as Corruption instead of silently feeding a restore.
//   * List returns keys under a prefix in lexicographic order — with the
//     zero-padded snapshot key naming, "last key" == "latest snapshot".
//
// Keys look like S3 object keys ("snap/shard-0/000...42"): '/'-separated
// components mapped onto subdirectories. Keys with empty, "." or ".."
// components are rejected, so a key can never escape the root.
//
// Thread-safety: calls are independent syscall sequences with no shared
// mutable state; concurrent use from multiple threads or processes is safe
// (atomicity comes from rename, uniqueness from pid+counter tmp names).

#ifndef MEMDB_STORAGE_FS_OBJECT_STORE_H_
#define MEMDB_STORAGE_FS_OBJECT_STORE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace memdb::storage {

class FsObjectStore {
 public:
  struct Options {
    // fsync files and directories on Put and Open. Tests turn this off;
    // every production daemon keeps it on — a snapshot that vanishes in a
    // power loss defeats the point of off-box durability.
    bool fsync = true;
  };

  explicit FsObjectStore(std::string root) : FsObjectStore(root, Options()) {}
  FsObjectStore(std::string root, Options options);

  // Creates the root directory (and parents). Idempotent.
  Status Open();

  // Atomically creates/replaces `key` with `data` + integrity trailer.
  Status Put(const std::string& key, Slice data);

  // Reads `key`, verifies the trailer, returns the payload without it.
  // NotFound if absent, Corruption on checksum/trailer mismatch.
  Status Get(const std::string& key, std::string* data);

  // All keys with the given prefix, lexicographically sorted. In-progress
  // uploads (tmp files) are excluded. An empty result is OK, not an error.
  Status List(const std::string& prefix, std::vector<std::string>* keys);

  Status Delete(const std::string& key);

  const std::string& root() const { return root_; }

 private:
  std::string PathFor(const std::string& key) const;

  std::string root_;
  Options options_;
  std::atomic<uint64_t> tmp_counter_{0};
};

}  // namespace memdb::storage

#endif  // MEMDB_STORAGE_FS_OBJECT_STORE_H_
