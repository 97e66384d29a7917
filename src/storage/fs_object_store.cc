#include "storage/fs_object_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/coding.h"
#include "common/crc.h"

namespace memdb::storage {

namespace {

// Trailer appended to every stored blob: CRC64 of the payload + magic.
constexpr uint32_t kTrailerMagic = 0x4d444253;  // "MDBS" (store)
constexpr size_t kTrailerSize = 8 + 4;
constexpr char kTmpPrefix[] = ".tmp-";

bool ValidKey(const std::string& key) {
  if (key.empty() || key.front() == '/' || key.back() == '/') return false;
  size_t start = 0;
  while (start <= key.size()) {
    const size_t slash = key.find('/', start);
    const size_t end = slash == std::string::npos ? key.size() : slash;
    const std::string comp = key.substr(start, end - start);
    if (comp.empty() || comp == "." || comp == "..") return false;
    if (comp.compare(0, sizeof(kTmpPrefix) - 1, kTmpPrefix) == 0) return false;
    if (slash == std::string::npos) break;
    start = slash + 1;
  }
  return true;
}

// Fsyncs the directory containing `path`, making an entry created or
// renamed in it durable.
Status SyncParentDir(const std::string& path) {
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos
                              ? "."
                              : path.substr(0, std::max<size_t>(slash, 1));
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  // lint:allow-blocking -- directory fsync makes the snapshot rename durable
  const bool synced = fd >= 0 && ::fsync(fd) == 0;
  const int err = errno;
  if (fd >= 0) ::close(fd);
  if (synced) return Status::OK();
  return Status::Internal("sync " + dir + ": " + std::strerror(err));
}

// mkdir -p for every directory component of `path` (not the final entry).
// With `sync`, each directory it creates is made durable in its parent, or
// removed again, so that a retry creates and syncs it anew.
Status MakeParents(const std::string& path, bool sync) {
  size_t slash = path.find('/', 1);
  while (slash != std::string::npos) {
    const std::string dir = path.substr(0, slash);
    if (::mkdir(dir.c_str(), 0755) == 0) {
      const Status s = sync ? SyncParentDir(dir) : Status::OK();
      if (!s.ok()) {
        ::rmdir(dir.c_str());
        return s;
      }
    } else if (errno != EEXIST) {
      return Status::Internal("mkdir " + dir + ": " +
                              std::string(std::strerror(errno)));
    }
    slash = path.find('/', slash + 1);
  }
  return Status::OK();
}

Status WriteAll(int fd, Slice data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::Internal("write: " + std::string(std::strerror(errno)));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

FsObjectStore::FsObjectStore(std::string root, Options options)
    : root_(std::move(root)), options_(options) {
  while (root_.size() > 1 && root_.back() == '/') root_.pop_back();
}

std::string FsObjectStore::PathFor(const std::string& key) const {
  return root_ + "/" + key;
}

Status FsObjectStore::Open() {
  // Every component before "/x" is created, the root among them.
  return MakeParents(root_ + "/x", options_.fsync);
}

Status FsObjectStore::Put(const std::string& key, Slice data) {
  if (!ValidKey(key)) return Status::InvalidArgument("bad object key: " + key);
  const std::string path = PathFor(key);
  MEMDB_RETURN_IF_ERROR(MakeParents(path, options_.fsync));

  // Unique sibling: concurrent writers (even across processes) never
  // collide, and a crash leaves a distinguishable ".tmp-" orphan.
  const uint64_t n = tmp_counter_.fetch_add(1, std::memory_order_relaxed);
  const size_t slash = path.rfind('/');
  const std::string tmp = path.substr(0, slash + 1) + kTmpPrefix +
                          std::to_string(static_cast<uint64_t>(::getpid())) +
                          "-" + std::to_string(n);

  int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Internal("open " + tmp + ": " +
                            std::string(std::strerror(errno)));
  }
  std::string trailer;
  PutFixed64(&trailer, Crc64(0, data));
  PutFixed32(&trailer, kTrailerMagic);
  Status s = WriteAll(fd, data);
  if (s.ok()) s = WriteAll(fd, Slice(trailer));
  if (s.ok() && options_.fsync) {
    // lint:allow-blocking -- snapshot durability: fsync before publish
    if (::fsync(fd) != 0) {
      s = Status::Internal("fsync: " + std::string(std::strerror(errno)));
    }
  }
  ::close(fd);
  if (!s.ok()) {
    ::unlink(tmp.c_str());
    return s;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status rs = Status::Internal("rename " + tmp + ": " +
                                       std::string(std::strerror(errno)));
    ::unlink(tmp.c_str());
    return rs;
  }
  // The rename is visible but not yet durable: an upload whose directory
  // sync failed is not reported done (snapshotd trims the log behind it).
  if (options_.fsync) return SyncParentDir(path);
  return Status::OK();
}

Status FsObjectStore::Get(const std::string& key, std::string* data) {
  if (!ValidKey(key)) return Status::InvalidArgument("bad object key: " + key);
  data->clear();
  const int fd = ::open(PathFor(key).c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return errno == ENOENT
               ? Status::NotFound("no object: " + key)
               : Status::Internal("open " + key + ": " +
                                  std::string(std::strerror(errno)));
  }
  std::string raw;
  char chunk[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    raw.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);

  if (raw.size() < kTrailerSize) {
    return Status::Corruption("object too short: " + key);
  }
  Decoder dec(Slice(raw.data() + raw.size() - kTrailerSize, kTrailerSize));
  uint64_t crc = 0;
  uint32_t magic = 0;
  dec.GetFixed64(&crc);
  dec.GetFixed32(&magic);
  const Slice payload(raw.data(), raw.size() - kTrailerSize);
  if (magic != kTrailerMagic || crc != Crc64(0, payload)) {
    return Status::Corruption("object checksum mismatch: " + key);
  }
  data->assign(payload.data(), payload.size());
  return Status::OK();
}

Status FsObjectStore::List(const std::string& prefix,
                           std::vector<std::string>* keys) {
  keys->clear();
  // Walk the whole tree; stores here hold tens of snapshots, not millions
  // of objects, so a full walk beats prefix-directory bookkeeping.
  std::vector<std::string> pending;
  pending.push_back("");
  while (!pending.empty()) {
    const std::string rel = std::move(pending.back());
    pending.pop_back();
    const std::string dir = rel.empty() ? root_ : root_ + "/" + rel;
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) {
      if (rel.empty() && errno == ENOENT) return Status::OK();
      continue;
    }
    while (struct dirent* ent = ::readdir(d)) {
      const std::string name = ent->d_name;
      if (name == "." || name == "..") continue;
      if (name.compare(0, sizeof(kTmpPrefix) - 1, kTmpPrefix) == 0) {
        continue;  // in-progress or orphaned upload
      }
      const std::string child = rel.empty() ? name : rel + "/" + name;
      struct stat st{};
      if (::stat((root_ + "/" + child).c_str(), &st) != 0) continue;
      if (S_ISDIR(st.st_mode)) {
        pending.push_back(child);
      } else if (child.compare(0, prefix.size(), prefix) == 0) {
        keys->push_back(child);
      }
    }
    ::closedir(d);
  }
  std::sort(keys->begin(), keys->end());
  return Status::OK();
}

Status FsObjectStore::Delete(const std::string& key) {
  if (!ValidKey(key)) return Status::InvalidArgument("bad object key: " + key);
  if (::unlink(PathFor(key).c_str()) != 0) {
    return errno == ENOENT
               ? Status::NotFound("no object: " + key)
               : Status::Internal("unlink " + key + ": " +
                                  std::string(std::strerror(errno)));
  }
  return Status::OK();
}

}  // namespace memdb::storage
