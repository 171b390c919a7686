#include "util/wake_pipe.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#define QHDL_HAVE_WAKE_PIPE 1
#include <fcntl.h>
#include <unistd.h>
#endif

namespace qhdl::util {

#ifdef QHDL_HAVE_WAKE_PIPE

WakePipe::WakePipe() {
  int fds[2] = {-1, -1};
  if (::pipe2(fds, O_CLOEXEC | O_NONBLOCK) != 0) {
    throw std::runtime_error(std::string{"WakePipe: pipe2 failed: "} +
                             std::strerror(errno));
  }
  read_fd_ = fds[0];
  write_fd_ = fds[1];
}

WakePipe::~WakePipe() {
  ::close(read_fd_);
  ::close(write_fd_);
}

void WakePipe::notify() {
  const char byte = 1;
  ssize_t n = 0;
  do {
    n = ::write(write_fd_, &byte, 1);
  } while (n < 0 && errno == EINTR);
  // EAGAIN: the pipe is full of unread wakeups, which wake the poller just
  // as well.
}

void WakePipe::drain() {
  char buffer[64];
  while (true) {
    const ssize_t n = ::read(read_fd_, buffer, sizeof(buffer));
    if (n > 0 || (n < 0 && errno == EINTR)) continue;
    return;  // EAGAIN: empty
  }
}

#else  // !QHDL_HAVE_WAKE_PIPE

WakePipe::WakePipe() = default;
WakePipe::~WakePipe() = default;
void WakePipe::notify() {}
void WakePipe::drain() {}

#endif  // QHDL_HAVE_WAKE_PIPE

}  // namespace qhdl::util
