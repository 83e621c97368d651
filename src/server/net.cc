#include "server/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <system_error>

namespace xorator::server {

namespace {

/// Largest value we hand poll() as a timeout; also the RemainingMillis()
/// sentinel for infinite deadlines. One hour — far beyond any deadline a
/// caller would legitimately wait out in a single poll.
constexpr int64_t kPollCapMillis = 60 * 60 * 1000;

std::string ErrnoMessage(int err) {
  return std::system_category().message(err);
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError("fcntl(O_NONBLOCK): " + ErrnoMessage(errno));
  }
  return Status::OK();
}

/// Polls `fd` for `events` until the deadline. OK when an event (or any
/// error/hangup revent) is pending; kDeadlineExceeded on timeout.
Status PollFor(int fd, short events, const Deadline& deadline) {
  for (;;) {
    const int64_t remaining = deadline.RemainingMillis();
    if (remaining <= 0) {
      return Status::DeadlineExceeded("socket wait timed out");
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int timeout =
        static_cast<int>(std::min<int64_t>(remaining, kPollCapMillis));
    const int rc = ::poll(&pfd, 1, timeout);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("poll: " + ErrnoMessage(errno));
    }
    if (rc > 0) return Status::OK();
    // rc == 0: poll timed out; loop to re-check the real deadline (it may
    // have been capped).
  }
}

}  // namespace

Deadline Deadline::After(int64_t millis) {
  Deadline d;
  d.infinite_ = false;
  d.at_ = std::chrono::steady_clock::now() +
          std::chrono::milliseconds(std::max<int64_t>(millis, 0));
  return d;
}

Deadline Deadline::Infinite() {
  Deadline d;
  d.infinite_ = true;
  return d;
}

int64_t Deadline::RemainingMillis() const {
  if (infinite_) return kPollCapMillis;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        at_ - std::chrono::steady_clock::now())
                        .count();
  return std::max<int64_t>(left, 0);
}

bool Deadline::Expired() const {
  return !infinite_ && RemainingMillis() == 0;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::ShutdownRead() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RD);
  }
}

Result<Socket> Listen(uint16_t port, int backlog) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) {
    return Status::IOError("socket: " + ErrnoMessage(errno));
  }
  const int one = 1;
  if (::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) <
      0) {
    return Status::IOError("setsockopt(SO_REUSEADDR): " + ErrnoMessage(errno));
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(sock.fd(), reinterpret_cast<const struct sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return Status::IOError("bind(127.0.0.1:" + std::to_string(port) +
                           "): " + ErrnoMessage(errno));
  }
  if (::listen(sock.fd(), backlog) < 0) {
    return Status::IOError("listen: " + ErrnoMessage(errno));
  }
  RETURN_IF_ERROR(SetNonBlocking(sock.fd()));
  return sock;
}

Result<uint16_t> BoundPort(const Socket& listener) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  socklen_t len = sizeof(addr);
  if (::getsockname(listener.fd(),
                    reinterpret_cast<struct sockaddr*>(&addr), &len) < 0) {
    return Status::IOError("getsockname: " + ErrnoMessage(errno));
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

Result<Socket> Accept(const Socket& listener, const Deadline& deadline) {
  for (;;) {
    RETURN_IF_ERROR(PollFor(listener.fd(), POLLIN, deadline));
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) {
      Socket sock(fd);
      RETURN_IF_ERROR(SetNonBlocking(sock.fd()));
      const int one = 1;
      // Best effort: latency tuning, not correctness.
      ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return sock;
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED) {
      // The pending connection vanished between poll and accept; wait for
      // the next one.
      continue;
    }
    return Status::IOError("accept: " + ErrnoMessage(errno));
  }
}

Result<Socket> Connect(const std::string& host, uint16_t port,
                       const Deadline& deadline) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) {
    return Status::IOError("socket: " + ErrnoMessage(errno));
  }
  RETURN_IF_ERROR(SetNonBlocking(sock.fd()));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: '" + host +
                                   "'");
  }
  int rc;
  do {
    rc = ::connect(sock.fd(), reinterpret_cast<const struct sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    if (errno != EINPROGRESS) {
      return Status::Unavailable("connect(" + host + ":" +
                                 std::to_string(port) +
                                 "): " + ErrnoMessage(errno));
    }
    RETURN_IF_ERROR(PollFor(sock.fd(), POLLOUT, deadline));
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
      return Status::IOError("getsockopt(SO_ERROR): " + ErrnoMessage(errno));
    }
    if (err != 0) {
      return Status::Unavailable("connect(" + host + ":" +
                                 std::to_string(port) +
                                 "): " + ErrnoMessage(err));
    }
  }
  const int one = 1;
  // Best effort: latency tuning, not correctness.
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

Status ReadFull(const Socket& socket, std::string* buf, size_t n,
                const Deadline& deadline) {
  buf->resize(n);
  size_t got = 0;
  while (got < n) {
    RETURN_IF_ERROR(PollFor(socket.fd(), POLLIN, deadline));
    const ssize_t rc = ::recv(socket.fd(), &(*buf)[got], n - got, 0);
    if (rc > 0) {
      got += static_cast<size_t>(rc);
      continue;
    }
    if (rc == 0) {
      if (got == 0) {
        return Status::Unavailable("peer closed the connection");
      }
      return Status::Corruption("peer closed the connection mid-frame (" +
                                std::to_string(got) + " of " +
                                std::to_string(n) + " bytes)");
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    if (errno == ECONNRESET) {
      return got == 0 ? Status::Unavailable("connection reset by peer")
                      : Status::Corruption("connection reset mid-frame");
    }
    return Status::IOError("recv: " + ErrnoMessage(errno));
  }
  return Status::OK();
}

Status WriteFull(const Socket& socket, std::string_view data,
                 const Deadline& deadline) {
  size_t sent = 0;
  while (sent < data.size()) {
    RETURN_IF_ERROR(PollFor(socket.fd(), POLLOUT, deadline));
    const ssize_t rc = ::send(socket.fd(), data.data() + sent,
                              data.size() - sent, MSG_NOSIGNAL);
    if (rc > 0) {
      sent += static_cast<size_t>(rc);
      continue;
    }
    if (rc < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::Unavailable("peer closed the connection");
      }
      return Status::IOError("send: " + ErrnoMessage(errno));
    }
  }
  return Status::OK();
}

bool PeerDisconnected(const Socket& socket) {
  struct pollfd pfd;
  pfd.fd = socket.fd();
  // POLLIN alone suffices: a closed peer makes the socket readable (EOF).
  // We only peek, so pipelined request bytes (which the protocol forbids
  // anyway) would not be consumed.
  pfd.events = POLLIN;
  pfd.revents = 0;
  int rc;
  do {
    rc = ::poll(&pfd, 1, 0);
  } while (rc < 0 && errno == EINTR);
  if (rc <= 0) return false;
  if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) return true;
  if ((pfd.revents & POLLIN) != 0) {
    char probe;
    ssize_t peeked;
    do {
      peeked = ::recv(socket.fd(), &probe, 1, MSG_PEEK | MSG_DONTWAIT);
    } while (peeked < 0 && errno == EINTR);
    if (peeked == 0) return true;                      // orderly shutdown
    if (peeked < 0 && errno == ECONNRESET) return true;  // hard reset
  }
  return false;
}

}  // namespace xorator::server
