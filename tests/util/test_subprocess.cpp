#include "util/subprocess.hpp"

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)
#include <poll.h>
#include <unistd.h>
#endif

#include <filesystem>
#include <string>

#include "util/socket.hpp"
#include "util/wake_pipe.hpp"

namespace qhdl::util {
namespace {

#if defined(__unix__) || defined(__APPLE__)

/// Drains the child's (non-blocking) stdout until EOF, polling in between.
std::string read_all(Subprocess& child) {
  std::string out;
  char buffer[1024];
  while (true) {
    const ssize_t n = ::read(child.stdout_fd(), buffer, sizeof(buffer));
    if (n > 0) {
      out.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) break;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      pollfd fd{child.stdout_fd(), POLLIN, 0};
      ::poll(&fd, 1, 1000);
      continue;
    }
    if (errno == EINTR) continue;
    break;
  }
  return out;
}

TEST(Subprocess, EchoesThroughPipes) {
  ASSERT_TRUE(subprocess_supported());
  Subprocess child = Subprocess::spawn({"/bin/cat"});
  EXPECT_GT(child.pid(), 0);
  const std::string message = "hello across the pipe\n";
  EXPECT_TRUE(child.write_all(message.data(), message.size()));
  child.close_stdin();
  EXPECT_EQ(read_all(child), message);
  const ExitStatus status = child.wait();
  EXPECT_TRUE(status.exited);
  EXPECT_EQ(status.exit_code, 0);
  EXPECT_EQ(status.to_string(), "exit 0");
}

TEST(Subprocess, KillHardReportsSignal) {
  Subprocess child = Subprocess::spawn({"/bin/cat"});
  ASSERT_FALSE(child.try_wait().has_value());  // still running
  child.kill_hard();
  const ExitStatus status = child.wait();
  EXPECT_TRUE(status.signaled);
  EXPECT_EQ(status.term_signal, 9);
  EXPECT_EQ(status.to_string(), "killed by signal 9");
}

TEST(Subprocess, SpawnOfMissingBinaryThrows) {
  // The CLOEXEC status pipe makes exec failure synchronous: spawn() itself
  // throws instead of handing back an instantly-dead child.
  EXPECT_THROW(Subprocess::spawn({"/nonexistent/qhdl-no-such-binary"}),
               std::runtime_error);
}

TEST(Subprocess, ExtraEnvOverridesInherited) {
  Subprocess child = Subprocess::spawn(
      {"/bin/sh", "-c", "printf '%s' \"$QHDL_SUBPROCESS_TEST\""},
      {"QHDL_SUBPROCESS_TEST=overridden"});
  child.close_stdin();
  EXPECT_EQ(read_all(child), "overridden");
  EXPECT_TRUE(child.wait().exited);
}

// Two pools spawning concurrently (one per serve executor) must not leak
// each other's pipe ends, the server's sockets or wake pipes into their
// children: every pipe and socket the library opens is close-on-exec.
TEST(Subprocess, ChildInheritsOnlyStdio) {
  if (!sockets_supported()) GTEST_SKIP() << "no socket support";
  if (!std::filesystem::exists("/proc/self/fd")) {
    GTEST_SKIP() << "no /proc/self/fd to inspect";
  }
  ListenSocket listener = ListenSocket::listen_tcp("127.0.0.1", 0);
  Socket client = connect_tcp("127.0.0.1", listener.port(), 5000);
  std::optional<Socket> accepted =
      listener.accept(Deadline::after_ms(5000));
  ASSERT_TRUE(accepted.has_value());
  Subprocess sibling = Subprocess::spawn({"/bin/cat"});
  WakePipe wake;

  for (const int fd : {listener.fd(), client.fd(), accepted->fd(),
                       sibling.stdin_fd(), sibling.stdout_fd(),
                       wake.read_fd()}) {
    const std::string path = "/proc/self/fd/" + std::to_string(fd);
    Subprocess probe =
        Subprocess::spawn({"/bin/sh", "-c", "[ ! -e " + path + " ]"});
    probe.close_stdin();
    const ExitStatus status = probe.wait();
    EXPECT_TRUE(status.exited && status.exit_code == 0)
        << "child inherited fd " << fd << " (" << status.to_string() << ")";
  }
}

TEST(Subprocess, CurrentExecutablePathIsAbsolute) {
  const std::string self = current_executable_path();
  ASSERT_FALSE(self.empty());
  EXPECT_EQ(self[0], '/');
}

#else

TEST(Subprocess, UnsupportedPlatformReportsSo) {
  EXPECT_FALSE(subprocess_supported());
}

#endif

}  // namespace
}  // namespace qhdl::util
