#include "util/subprocess.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/logging.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define QHDL_HAVE_SUBPROCESS 1
#include <csignal>
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>
extern char** environ;
#endif

namespace qhdl::util {

std::string ExitStatus::to_string() const {
  if (signaled) return "killed by signal " + std::to_string(term_signal);
  if (exited) return "exit " + std::to_string(exit_code);
  return "unknown status";
}

#ifdef QHDL_HAVE_SUBPROCESS

namespace {

[[noreturn]] void spawn_fail(const std::string& stage, int saved_errno) {
  throw std::runtime_error("Subprocess::spawn: " + stage + " failed: " +
                           std::strerror(saved_errno));
}

ExitStatus decode_status(int raw) {
  ExitStatus status;
  if (WIFEXITED(raw)) {
    status.exited = true;
    status.exit_code = WEXITSTATUS(raw);
  } else if (WIFSIGNALED(raw)) {
    status.signaled = true;
    status.term_signal = WTERMSIG(raw);
  }
  return status;
}

/// Inherited environment with `extra_env` ("KEY=value") overriding matching
/// keys. Built pre-fork: between fork and exec only async-signal-safe calls
/// are allowed, so all allocation happens here.
std::vector<std::string> merged_environment(
    const std::vector<std::string>& extra_env) {
  std::vector<std::string> merged;
  for (char** entry = environ; entry != nullptr && *entry != nullptr;
       ++entry) {
    const std::string current{*entry};
    const std::size_t eq = current.find('=');
    const std::string key = current.substr(0, eq);
    bool overridden = false;
    for (const std::string& extra : extra_env) {
      if (extra.compare(0, key.size(), key) == 0 &&
          extra.size() > key.size() && extra[key.size()] == '=') {
        overridden = true;
        break;
      }
    }
    if (!overridden) merged.push_back(current);
  }
  merged.insert(merged.end(), extra_env.begin(), extra_env.end());
  return merged;
}

}  // namespace

bool subprocess_supported() { return true; }

void install_sigpipe_guard() {
  // A peer that died mid-write must surface as EPIPE from write(), not as a
  // process-killing signal; guarded so repeated init paths install it once.
  static const bool done = [] {
    std::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)done;
}

std::string current_executable_path() {
#if defined(__linux__)
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n <= 0) return "";
  buffer[n] = '\0';
  return buffer;
#else
  return "";
#endif
}

Subprocess Subprocess::spawn(const std::vector<std::string>& argv,
                             const std::vector<std::string>& extra_env) {
  if (argv.empty() || argv[0].empty()) {
    throw std::runtime_error("Subprocess::spawn: empty command");
  }
  install_sigpipe_guard();

  // [0] = read end, [1] = write end. Every end is close-on-exec from the
  // moment it exists: another thread's concurrent spawn must not leak these
  // into its child (an inherited status_pipe[1] would block our read below
  // until that unrelated child exits). The child's dup2 onto stdin/stdout
  // yields descriptors without the flag, which are the only ones it keeps.
  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  int status_pipe[2] = {-1, -1};  // closes on successful exec
  if (::pipe2(to_child, O_CLOEXEC) != 0) spawn_fail("pipe", errno);
  if (::pipe2(from_child, O_CLOEXEC) != 0) {
    const int saved = errno;
    ::close(to_child[0]);
    ::close(to_child[1]);
    spawn_fail("pipe", saved);
  }
  if (::pipe2(status_pipe, O_CLOEXEC) != 0) {
    const int saved = errno;
    for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
      ::close(fd);
    }
    spawn_fail("pipe", saved);
  }

  // Pre-build exec arguments: no allocation is allowed after fork().
  std::vector<std::string> env = merged_environment(extra_env);
  std::vector<char*> argv_ptrs;
  argv_ptrs.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    argv_ptrs.push_back(const_cast<char*>(arg.c_str()));
  }
  argv_ptrs.push_back(nullptr);
  std::vector<char*> env_ptrs;
  env_ptrs.reserve(env.size() + 1);
  for (const std::string& entry : env) {
    env_ptrs.push_back(const_cast<char*>(entry.c_str()));
  }
  env_ptrs.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    const int saved = errno;
    for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1],
                   status_pipe[0], status_pipe[1]}) {
      ::close(fd);
    }
    spawn_fail("fork", saved);
  }

  if (pid == 0) {
    // Child: wire pipes to stdin/stdout, restore default SIGPIPE, exec.
    // exec closes every other pipe end.
    ::signal(SIGPIPE, SIG_DFL);
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::execve(argv_ptrs[0], argv_ptrs.data(), env_ptrs.data());
    // exec failed: report errno through the CLOEXEC pipe and vanish.
    const int exec_errno = errno;
    ssize_t ignored =
        ::write(status_pipe[1], &exec_errno, sizeof(exec_errno));
    (void)ignored;
    ::_exit(127);
  }

  // Parent.
  ::close(to_child[0]);
  ::close(from_child[1]);
  ::close(status_pipe[1]);

  int exec_errno = 0;
  const ssize_t n =
      ::read(status_pipe[0], &exec_errno, sizeof(exec_errno));
  ::close(status_pipe[0]);
  if (n > 0) {
    // exec failed; reap the stillborn child and report why.
    int raw = 0;
    ::waitpid(pid, &raw, 0);
    ::close(to_child[1]);
    ::close(from_child[0]);
    throw std::runtime_error("Subprocess::spawn: cannot execute " + argv[0] +
                             ": " + std::strerror(exec_errno));
  }

  ::fcntl(from_child[0], F_SETFL,
          ::fcntl(from_child[0], F_GETFL) | O_NONBLOCK);

  Subprocess child;
  child.pid_ = pid;
  child.stdin_fd_ = to_child[1];
  child.stdout_fd_ = from_child[0];
  return child;
}

bool Subprocess::write_all(const char* data, std::size_t size) {
  if (stdin_fd_ < 0) return false;
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(stdin_fd_, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE) {
        // Clean peer disconnect: the child closed its stdin end (most
        // likely it died). The supervisor's reap/respawn path owns the
        // recovery, so this is expected traffic, not an anomaly.
        log_debug("Subprocess::write_all: EPIPE (child closed its stdin)");
      } else {
        log_warn(std::string{"Subprocess::write_all: write failed: "} +
                 std::strerror(errno));
      }
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

void Subprocess::close_stdin() {
  if (stdin_fd_ >= 0) {
    ::close(stdin_fd_);
    stdin_fd_ = -1;
  }
}

void Subprocess::terminate() {
  if (pid_ > 0 && !status_.has_value()) ::kill(static_cast<pid_t>(pid_),
                                               SIGTERM);
}

void Subprocess::kill_hard() {
  if (pid_ > 0 && !status_.has_value()) ::kill(static_cast<pid_t>(pid_),
                                               SIGKILL);
}

std::optional<ExitStatus> Subprocess::try_wait() {
  if (status_.has_value()) return status_;
  if (pid_ <= 0) return std::nullopt;
  int raw = 0;
  const pid_t reaped = ::waitpid(static_cast<pid_t>(pid_), &raw, WNOHANG);
  if (reaped == static_cast<pid_t>(pid_)) status_ = decode_status(raw);
  return status_;
}

ExitStatus Subprocess::wait() {
  if (status_.has_value()) return *status_;
  int raw = 0;
  pid_t reaped = -1;
  do {
    reaped = ::waitpid(static_cast<pid_t>(pid_), &raw, 0);
  } while (reaped < 0 && errno == EINTR);
  status_ = decode_status(raw);
  return *status_;
}

void Subprocess::close_fds() {
  close_stdin();
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

Subprocess::Subprocess(Subprocess&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)),
      stdin_fd_(std::exchange(other.stdin_fd_, -1)),
      stdout_fd_(std::exchange(other.stdout_fd_, -1)),
      status_(std::move(other.status_)) {
  other.status_.reset();
}

Subprocess& Subprocess::operator=(Subprocess&& other) noexcept {
  if (this != &other) {
    if (pid_ > 0 && !status_.has_value()) {
      kill_hard();
      wait();
    }
    close_fds();
    pid_ = std::exchange(other.pid_, -1);
    stdin_fd_ = std::exchange(other.stdin_fd_, -1);
    stdout_fd_ = std::exchange(other.stdout_fd_, -1);
    status_ = std::move(other.status_);
    other.status_.reset();
  }
  return *this;
}

Subprocess::~Subprocess() {
  if (pid_ > 0 && !status_.has_value()) {
    kill_hard();
    wait();
  }
  close_fds();
}

#else  // !QHDL_HAVE_SUBPROCESS

bool subprocess_supported() { return false; }

void install_sigpipe_guard() {}

std::string current_executable_path() { return ""; }

Subprocess Subprocess::spawn(const std::vector<std::string>&,
                             const std::vector<std::string>&) {
  throw std::runtime_error(
      "Subprocess::spawn: process supervision is not supported on this "
      "platform");
}

bool Subprocess::write_all(const char*, std::size_t) { return false; }
void Subprocess::close_stdin() {}
void Subprocess::terminate() {}
void Subprocess::kill_hard() {}
std::optional<ExitStatus> Subprocess::try_wait() { return status_; }
ExitStatus Subprocess::wait() { return ExitStatus{}; }
void Subprocess::close_fds() {}
Subprocess::Subprocess(Subprocess&&) noexcept {}
Subprocess& Subprocess::operator=(Subprocess&&) noexcept { return *this; }
Subprocess::~Subprocess() {}

#endif  // QHDL_HAVE_SUBPROCESS

}  // namespace qhdl::util
