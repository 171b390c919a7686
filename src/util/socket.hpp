// Minimal POSIX TCP sockets for the serving layer (serve/server.hpp).
//
// The serve protocol reuses the worker-pool's length-prefixed JSON framing,
// which operates on plain file descriptors — this header only has to supply
// the descriptors: a listener with deadline-aware accept and a connected
// stream socket with an EPIPE-safe bulk writer. Reads go through
// search::read_frame (worker_protocol.hpp), which polls with a
// util::Deadline so a hung peer cannot wedge the server.
// Every descriptor is created close-on-exec, so worker processes spawned
// while a server runs never inherit its listener or client connections.
//
// Fault injection: accept() observes the `accept` site (an `accept=fail`
// trigger closes the freshly accepted connection, emulating a transient
// accept-path failure). Read-side faults (`sock=short/drop/slow`) live in
// the frame-read loop, not here.
//
// On platforms without BSD sockets the API compiles but
// sockets_supported() is false and listen/connect throw — callers degrade
// the same way Subprocess does.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "util/deadline.hpp"

namespace qhdl::util {

/// True when this build can open TCP sockets.
bool sockets_supported();

/// A connected TCP stream. Move-only; the destructor closes the fd.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket();

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Writes the whole buffer. Returns false when the peer is gone
  /// (EPIPE/ECONNRESET — a clean disconnect, logged at debug) or on any
  /// other error (logged at warn); never raises SIGPIPE.
  bool write_all(const char* data, std::size_t size);
  bool write_all(const std::string& data) {
    return write_all(data.data(), data.size());
  }

  /// Half-close: signals EOF to the peer while reads stay open.
  void shutdown_write();

  void close();

 private:
  int fd_ = -1;
};

/// Connects to host:port (numeric IPv4 such as "127.0.0.1"). Throws
/// std::runtime_error when the connection cannot be established. With
/// timeout_ms == 0 the connect blocks on the OS default (minutes against a
/// black-holed host); a positive timeout runs the connect non-blocking and
/// bounds the wait. Either way the returned socket is blocking again, with
/// TCP_NODELAY (framed request/reply traffic) and SO_KEEPALIVE (long-lived
/// worker connections must eventually notice a silently dead peer) set.
/// Observes the `conn=refuse` fault site before dialing.
Socket connect_tcp(const std::string& host, std::uint16_t port,
                   std::uint64_t timeout_ms = 0);

/// A bound, listening TCP socket. Move-only.
class ListenSocket {
 public:
  /// Binds and listens on host:port; port 0 picks an ephemeral port (read
  /// it back with port()). Throws std::runtime_error on failure.
  static ListenSocket listen_tcp(const std::string& host, std::uint16_t port,
                                 int backlog = 64);

  ListenSocket() = default;
  ListenSocket(ListenSocket&& other) noexcept;
  ListenSocket& operator=(ListenSocket&& other) noexcept;
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;
  ~ListenSocket();

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  std::uint16_t port() const { return port_; }

  /// Waits up to `deadline` for one connection. Returns nullopt on timeout,
  /// on a transient accept error, or when an injected `accept=fail` fires
  /// (sets *injected_failure so the server can count it). Polls in short
  /// slices, so close() from another thread unblocks it promptly.
  std::optional<Socket> accept(const Deadline& deadline,
                               bool* injected_failure = nullptr);

  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace qhdl::util
