// The process, port and temp-dir kit of every harness that runs the real
// binaries (the chaos, shard and cluster e2e tests) or needs scratch
// storage (replication and txlog tests, the off-box bench).
//
// ChildProcess: fork/exec wrapper — spawns the real memorydb binaries
// (txlogd, server, snapshotd) and injects the faults the failover
// machinery must survive: SIGKILL (crash), SIGSTOP/SIGCONT (a zombie
// primary that comes back believing it still holds the lease), and plain
// termination.
//
// Threading: each ChildProcess is owned by one driver thread; the class is
// not internally synchronized.

#ifndef MEMDB_CHAOS_PROCESS_H_
#define MEMDB_CHAOS_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace memdb::chaos {

class ChildProcess {
 public:
  ChildProcess() = default;
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;
  ChildProcess(ChildProcess&& other) noexcept;
  ChildProcess& operator=(ChildProcess&& other) noexcept;

  // argv[0] is the binary path. The child's stdout/stderr pass through
  // (interleaved test output is part of the chaos aesthetic).
  Status Spawn(std::vector<std::string> argv);

  // True while the child exists and has not been reaped.
  bool running();

  // Deliver `sig` without reaping (the process keeps existing — SIGSTOP /
  // SIGCONT zombie rounds).
  void Signal(int sig);
  void Pause() { Signal(/*SIGSTOP=*/19); }
  void Resume() { Signal(/*SIGCONT=*/18); }

  // Deliver `sig` (default SIGKILL) and reap the child. Safe to call when
  // not running (no-op). A paused child is resumed first so the kill lands.
  void Kill(int sig = 9);

  // Wait up to timeout_ms for the child to exit on its own and reap it.
  // Returns its exit code (-1 when a signal ended it, or when it was not
  // running); on timeout kills it and returns -1.
  int WaitExit(uint64_t timeout_ms);

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

// Binds port 0 on 127.0.0.1, reads the kernel's pick, and releases it.
// Rebinding races are possible but harmless at test scale.
uint16_t PickFreePort();

// True once a TCP connect to 127.0.0.1:port succeeds within timeout_ms.
bool WaitForPort(uint16_t port, uint64_t timeout_ms);

// A fresh directory under /tmp, removed with everything in it on
// destruction. `path` is empty when it could not be made.
struct TempDir {
  TempDir();
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  std::string path;
};

// The environment variable's value, or "" when it is unset.
std::string EnvOr(const char* name);

}  // namespace memdb::chaos

#endif  // MEMDB_CHAOS_PROCESS_H_
