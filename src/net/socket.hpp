// RAII TCP sockets (POSIX). The whole NetSolve protocol runs over these;
// loopback deployments get WAN-like behaviour from the ShapedLink layer on
// top, not from faking the sockets themselves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/error.hpp"
#include "net/endpoint.hpp"

namespace ns::net {

/// Move-only owner of a file descriptor.
class FdHandle {
 public:
  FdHandle() = default;
  explicit FdHandle(int fd) noexcept : fd_(fd) {}
  ~FdHandle() { reset(); }

  FdHandle(FdHandle&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  FdHandle& operator=(FdHandle&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  FdHandle(const FdHandle&) = delete;
  FdHandle& operator=(const FdHandle&) = delete;

  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  void reset() noexcept;

 private:
  int fd_ = -1;
};

/// A connected TCP stream.
class TcpConnection {
 public:
  TcpConnection() = default;
  explicit TcpConnection(FdHandle fd) : fd_(std::move(fd)) {}

  /// Connect to an endpoint, retrying on ECONNREFUSED until the deadline —
  /// servers may still be binding when clients start (common in the
  /// multi-process experiments).
  static Result<TcpConnection> connect(const Endpoint& remote, double timeout_secs = 5.0);

  /// connect() without the fault-injector consult, for callers (the
  /// connection pool) that already rolled on_connect for this logical dial
  /// and must not roll it twice.
  static Result<TcpConnection> connect_raw(const Endpoint& remote, double timeout_secs = 5.0);

  bool valid() const noexcept { return fd_.valid(); }
  void close() noexcept { fd_.reset(); }

  /// Shut both directions down without freeing the fd: a blocked reader on
  /// another thread wakes with EOF, and the descriptor number cannot be
  /// recycled under it (that is why this is not close()).
  void shutdown_both() noexcept;

  /// Write the entire buffer; fails on peer reset.
  Status send_all(const void* data, std::size_t size) { return send_all(data, size, nullptr, 0); }

  /// Write two buffers back to back as one stream, gathered by sendmsg — a
  /// frame header and its payload go out without a contiguous frame copy.
  Status send_all(const void* first, std::size_t first_size, const void* second,
                  std::size_t second_size);

  /// Read exactly `size` bytes, waiting up to `timeout_secs` for each chunk.
  /// kConnectionClosed on orderly shutdown, kTimeout on inactivity.
  Status recv_all(void* data, std::size_t size, double timeout_secs);

  /// Wait until at least one byte is readable (or EOF is pending).
  Status wait_readable(double timeout_secs);

  /// Local/peer addresses for metrics and logging.
  Result<Endpoint> local_endpoint() const;
  Result<Endpoint> peer_endpoint() const;

  /// Raw fd for event-loop registration (epoll). Still owned by this object.
  int native_handle() const noexcept { return fd_.get(); }

  /// Detach ownership of the fd (the reactor adopts accepted sockets).
  FdHandle release() noexcept { return std::move(fd_); }

 private:
  FdHandle fd_;
};

/// A listening TCP socket.
class TcpListener {
 public:
  /// Bind + listen; port 0 picks an ephemeral port (query with port()).
  static Result<TcpListener> bind(const Endpoint& local, int backlog = 64);

  std::uint16_t port() const noexcept { return port_; }
  Endpoint endpoint() const { return Endpoint{host_, port_}; }

  /// Accept one connection, waiting up to timeout_secs; kTimeout if none.
  Result<TcpConnection> accept(double timeout_secs);

  /// Wake any accept() blocked in poll by closing the listening socket.
  void close() noexcept { fd_.reset(); }
  bool valid() const noexcept { return fd_.valid(); }

  /// Raw fd for event-loop registration (epoll). Still owned by this object.
  int native_handle() const noexcept { return fd_.get(); }

 private:
  FdHandle fd_;
  std::string host_;
  std::uint16_t port_ = 0;
};

}  // namespace ns::net
