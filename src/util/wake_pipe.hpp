// Self-pipe wakeups for poll() loops (DESIGN.md §11, §15).
//
// A thread that waits in poll() on sockets or pipes also has to learn about
// state changes that are not fd events — a unit queued, a reply resolved, a
// stop requested. Instead of polling with a short timeout and re-checking
// that state on every tick, the waiter adds read_fd() to its poll set and
// the thread that changes the state calls notify().
//
// Ordering contract: the notifier changes the state first, then notifies;
// the waiter drains after poll() returns and only then re-reads the state.
// A notify() that lands between the drain and the re-read leaves a byte in
// the pipe, so the next poll() returns at once — no wakeup is ever lost.
//
// On platforms without POSIX pipes the class compiles to no-ops with
// read_fd() == -1; callers keep their own non-unix wait paths.
#pragma once

namespace qhdl::util {

/// A non-blocking, close-on-exec pipe used only as a wakeup signal. A
/// notify() on a full pipe is dropped: the unread bytes already guarantee
/// the wakeup. Neither end is inherited by spawned children. Not copyable
/// or movable, since other threads hold its fds while it lives.
class WakePipe {
 public:
  /// Throws std::runtime_error when the pipe cannot be created.
  WakePipe();
  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;
  ~WakePipe();

  /// The end to poll for POLLIN.
  int read_fd() const { return read_fd_; }

  /// Wakes the poller. Safe from any thread, never blocks.
  void notify();

  /// Consumes every pending wakeup byte. Call after poll() returns and
  /// before re-reading the state the wakeups announce.
  void drain();

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;
};

}  // namespace qhdl::util
