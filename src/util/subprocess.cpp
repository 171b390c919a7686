#include "util/subprocess.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define QHDL_HAVE_SUBPROCESS 1
#include <csignal>
#include <fcntl.h>
#include <sys/socket.h>
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

  // Every descriptor is close-on-exec from the moment it exists: another
  // thread's concurrent spawn must not leak these into its child (an
  // inherited status_pipe[1] would block our read below until that
  // unrelated child exits). The child's dup2 onto stdin/stdout yields
  // descriptors without the flag, which are the only ones it keeps.
  int channel[2] = {-1, -1};      // [0] parent's end, [1] child's end
  int status_pipe[2] = {-1, -1};  // closes on successful exec
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, channel) != 0) {
    spawn_fail("socketpair", errno);
  }
  if (::pipe2(status_pipe, O_CLOEXEC) != 0) {
    const int saved = errno;
    ::close(channel[0]);
    ::close(channel[1]);
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
    for (int fd : {channel[0], channel[1], status_pipe[0], status_pipe[1]}) {
      ::close(fd);
    }
    spawn_fail("fork", saved);
  }

  if (pid == 0) {
    // Child: wire its socket end to stdin and stdout, restore default
    // SIGPIPE, exec. exec closes every other descriptor the library opened.
    ::signal(SIGPIPE, SIG_DFL);
    ::dup2(channel[1], STDIN_FILENO);
    ::dup2(channel[1], STDOUT_FILENO);
    ::execve(argv_ptrs[0], argv_ptrs.data(), env_ptrs.data());
    // exec failed: report errno through the CLOEXEC pipe and vanish.
    const int exec_errno = errno;
    ssize_t ignored =
        ::write(status_pipe[1], &exec_errno, sizeof(exec_errno));
    (void)ignored;
    ::_exit(127);
  }

  // Parent.
  ::close(channel[1]);
  ::close(status_pipe[1]);

  int exec_errno = 0;
  const ssize_t n =
      ::read(status_pipe[0], &exec_errno, sizeof(exec_errno));
  ::close(status_pipe[0]);
  if (n > 0) {
    // exec failed; reap the stillborn child and report why.
    int raw = 0;
    ::waitpid(pid, &raw, 0);
    ::close(channel[0]);
    throw std::runtime_error("Subprocess::spawn: cannot execute " + argv[0] +
                             ": " + std::strerror(exec_errno));
  }

  Subprocess child;
  child.pid_ = pid;
  child.socket_ = Socket{channel[0]};
  return child;
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
  if (pid_ <= 0) return ExitStatus{};
  int raw = 0;
  pid_t reaped = -1;
  do {
    reaped = ::waitpid(static_cast<pid_t>(pid_), &raw, 0);
  } while (reaped < 0 && errno == EINTR);
  status_ = decode_status(raw);
  return *status_;
}

Subprocess::Subprocess(Subprocess&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)),
      socket_(std::move(other.socket_)),
      status_(std::move(other.status_)) {
  other.status_.reset();
}

Subprocess& Subprocess::operator=(Subprocess&& other) noexcept {
  if (this != &other) {
    if (pid_ > 0 && !status_.has_value()) {
      kill_hard();
      wait();
    }
    pid_ = std::exchange(other.pid_, -1);
    socket_ = std::move(other.socket_);
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

void Subprocess::kill_hard() {}
std::optional<ExitStatus> Subprocess::try_wait() { return status_; }
ExitStatus Subprocess::wait() { return ExitStatus{}; }
Subprocess::Subprocess(Subprocess&&) noexcept {}
Subprocess& Subprocess::operator=(Subprocess&&) noexcept { return *this; }
Subprocess::~Subprocess() {}

#endif  // QHDL_HAVE_SUBPROCESS

}  // namespace qhdl::util
