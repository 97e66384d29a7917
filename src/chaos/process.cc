#include "chaos/process.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "client/resp_conn.h"

namespace memdb::chaos {

ChildProcess::~ChildProcess() { Kill(); }

ChildProcess::ChildProcess(ChildProcess&& other) noexcept : pid_(other.pid_) {
  other.pid_ = -1;
}

ChildProcess& ChildProcess::operator=(ChildProcess&& other) noexcept {
  if (this != &other) {
    Kill();
    pid_ = other.pid_;
    other.pid_ = -1;
  }
  return *this;
}

Status ChildProcess::Spawn(std::vector<std::string> argv) {
  if (pid_ >= 0) return Status::InvalidArgument("child already spawned");
  if (argv.empty()) return Status::InvalidArgument("empty argv");
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (std::string& a : argv) cargv.push_back(a.data());
  cargv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    return Status::Internal(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::execv(cargv[0], cargv.data());
    // exec failed; die loudly without running the parent's atexit chain.
    std::perror("chaos: execv");
    ::_exit(127);
  }
  pid_ = pid;
  return Status::OK();
}

bool ChildProcess::running() {
  if (pid_ < 0) return false;
  int status = 0;
  const pid_t r = ::waitpid(pid_, &status, WNOHANG);
  if (r == pid_) {
    pid_ = -1;  // exited and reaped
    return false;
  }
  return r == 0;  // still alive (or stopped)
}

void ChildProcess::Signal(int sig) {
  if (pid_ >= 0) ::kill(pid_, sig);
}

void ChildProcess::Kill(int sig) {
  if (pid_ < 0) return;
  // A SIGSTOPped child does not die from a pending SIGKILL until resumed.
  ::kill(pid_, SIGCONT);
  ::kill(pid_, sig);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

int ChildProcess::WaitExit(uint64_t timeout_ms) {
  if (pid_ < 0) return -1;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      Kill();
      return -1;
    }
    // lint:allow-blocking — chaos driver thread, never an event loop.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

uint16_t PickFreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  struct sockaddr_in sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sin_family = AF_INET;
  sa.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  uint16_t port = 0;
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&sa), sizeof(sa)) == 0) {
    socklen_t len = sizeof(sa);
    if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&sa), &len) ==
        0) {
      port = ntohs(sa.sin_port);
    }
  }
  ::close(fd);
  return port;
}

// lint:off-loop -- test and bench driver threads, never an event loop.
bool WaitForPort(uint16_t port, uint64_t timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (client::RespConn(port, timeout_ms).connected()) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    // lint:allow-blocking — chaos driver thread, never an event loop.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

TempDir::TempDir() {
  char tmpl[] = "/tmp/memdb_XXXXXX";
  const char* p = ::mkdtemp(tmpl);
  if (p != nullptr) path = p;
}

TempDir::~TempDir() {
  std::error_code ec;  // best effort: a leftover directory fails nothing
  if (!path.empty()) std::filesystem::remove_all(path, ec);
}

std::string EnvOr(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : "";
}

}  // namespace memdb::chaos
