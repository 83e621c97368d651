#ifndef XORATOR_SERVER_NET_H_
#define XORATOR_SERVER_NET_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "common/result.h"

namespace xorator::server {

/// Thin POSIX socket layer for the xorator server and client (DESIGN.md
/// section 17). Loopback TCP only; every blocking operation takes a
/// Deadline and fails closed with kDeadlineExceeded instead of hanging, so
/// a stalled peer can never wedge a server thread. All syscalls loop on
/// EINTR; writes use MSG_NOSIGNAL so a dead peer yields a Status, not a
/// SIGPIPE.

/// A wall-deadline measured on the steady clock. Cheap to copy; Infinite()
/// never expires.
class Deadline {
 public:
  /// A deadline `millis` from now (negative clamps to "already expired").
  static Deadline After(int64_t millis);

  /// A deadline that never expires.
  static Deadline Infinite();

  /// Milliseconds until expiry, clamped to >= 0; a large sentinel when
  /// infinite (callers feed this to poll(), which takes an int).
  [[nodiscard]] int64_t RemainingMillis() const;

  /// True once RemainingMillis() has hit zero (never for Infinite()).
  [[nodiscard]] bool Expired() const;

 private:
  bool infinite_ = false;
  std::chrono::steady_clock::time_point at_{};
};

/// An owned socket file descriptor, closed on destruction. Move-only.
class Socket {
 public:
  Socket() = default;
  /// Takes ownership of `fd` (-1 = invalid).
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  /// The raw descriptor (-1 when invalid).
  [[nodiscard]] int fd() const { return fd_; }

  /// True when this owns a live descriptor.
  [[nodiscard]] bool valid() const { return fd_ >= 0; }

  /// Closes the descriptor now (idempotent).
  void Close();

  /// shutdown(SHUT_RD): wakes a blocked read with EOF while leaving the
  /// write half open, so a response already in flight still goes out (the
  /// server's drain path uses this to end idle connections without
  /// clipping the last frame).
  void ShutdownRead();

 private:
  int fd_ = -1;
};

/// Opens a non-blocking loopback listener on `port` (0 = ephemeral) with
/// SO_REUSEADDR and the given accept backlog.
[[nodiscard]] Result<Socket> Listen(uint16_t port, int backlog);

/// The port a listener actually bound (the answer when Listen got 0).
[[nodiscard]] Result<uint16_t> BoundPort(const Socket& listener);

/// Waits up to the deadline for a connection and accepts it (the accepted
/// socket is non-blocking). kDeadlineExceeded on timeout — acceptor loops
/// poll with short deadlines so they can observe shutdown.
[[nodiscard]] Result<Socket> Accept(const Socket& listener,
                                    const Deadline& deadline);

/// Connects to host:port (numeric IPv4 only, e.g. "127.0.0.1") within the
/// deadline; the socket comes back non-blocking with TCP_NODELAY set.
[[nodiscard]] Result<Socket> Connect(const std::string& host, uint16_t port,
                                     const Deadline& deadline);

/// Reads exactly `n` bytes into `*buf` (resized to `n`). kUnavailable when
/// the peer closed cleanly before the first byte; kCorruption when it
/// closed mid-read (a truncated frame); kDeadlineExceeded on timeout.
[[nodiscard]] Status ReadFull(const Socket& socket, std::string* buf, size_t n,
                              const Deadline& deadline);

/// Writes all of `data`. kUnavailable when the peer is gone;
/// kDeadlineExceeded on timeout.
[[nodiscard]] Status WriteFull(const Socket& socket, std::string_view data,
                               const Deadline& deadline);

/// Non-blocking probe: true once the peer has closed or reset the
/// connection (the disconnect-cancel path polls this while a statement of
/// the connection is in flight).
[[nodiscard]] bool PeerDisconnected(const Socket& socket);

}  // namespace xorator::server

#endif  // XORATOR_SERVER_NET_H_
