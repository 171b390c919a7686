// Minimal POSIX subprocess wrapper for the supervised worker pool
// (search/worker_pool.hpp): spawn a child with piped stdin/stdout (stderr
// inherited, so worker logs interleave with the supervisor's), write to it,
// poll/read its output fd, and kill/reap it.
//
// Spawn failures are detected synchronously via the classic CLOEXEC
// status-pipe trick, so "the binary does not exist" surfaces as an exception
// from spawn(), not as an instantly-dead child. On platforms without
// fork/exec the API compiles but subprocess_supported() is false and
// spawn() throws — callers degrade to in-process execution.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace qhdl::util {

/// True when this build can spawn supervised child processes.
bool subprocess_supported();

/// Ignores SIGPIPE process-wide (idempotent; no-op on platforms without
/// it). A peer — worker child, serve client — that dies mid-write must
/// surface as an EPIPE error code from write(), never as a process-killing
/// signal. Installed automatically by Subprocess::spawn, the worker-pool
/// supervisor, and the serve layer; long-running entry points that write to
/// pipes or sockets should call it once during init.
void install_sigpipe_guard();

/// Absolute path of the currently running executable, for self-re-exec
/// ("" when it cannot be determined on this platform).
std::string current_executable_path();

/// How a child ended: normal exit (exit_code) or signal (term_signal).
struct ExitStatus {
  bool exited = false;
  int exit_code = 0;
  bool signaled = false;
  int term_signal = 0;

  /// "exit 0" / "killed by signal 9".
  std::string to_string() const;
};

/// A spawned child with piped stdin/stdout. Move-only; the destructor
/// SIGKILLs and reaps a child that is still running (no zombies, ever).
class Subprocess {
 public:
  /// Spawns argv (argv[0] must be an absolute or cwd-relative path; PATH is
  /// not searched). `extra_env` entries of the form "KEY=value" override or
  /// extend the inherited environment. The child's stdout read fd is set
  /// non-blocking for poll()-based multiplexing. The child inherits only
  /// its stdin/stdout pipes and the caller's stderr: every pipe and socket
  /// the library opens is close-on-exec. Throws std::runtime_error
  /// when the process cannot be created or the binary cannot be executed.
  static Subprocess spawn(const std::vector<std::string>& argv,
                          const std::vector<std::string>& extra_env = {});

  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;
  ~Subprocess();

  long pid() const { return pid_; }
  /// Write end of the child's stdin (-1 after close_stdin()).
  int stdin_fd() const { return stdin_fd_; }
  /// Read end of the child's stdout (non-blocking).
  int stdout_fd() const { return stdout_fd_; }

  /// Writes the whole buffer to the child's stdin. Returns false when the
  /// pipe is broken (child died) — never raises SIGPIPE.
  bool write_all(const char* data, std::size_t size);

  /// Closes the child's stdin (EOF is the cooperative shutdown signal).
  void close_stdin();

  /// SIGTERM (cooperative) / SIGKILL (hard). Both are no-ops once reaped.
  void terminate();
  void kill_hard();

  /// Non-blocking reap: the exit status once the child has ended, nullopt
  /// while it is still running. Idempotent after the child is reaped.
  std::optional<ExitStatus> try_wait();

  /// Blocking reap.
  ExitStatus wait();

 private:
  Subprocess() = default;
  void close_fds();

  long pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  std::optional<ExitStatus> status_;
};

}  // namespace qhdl::util
