#include "net/socket.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <string>

#include "common/clock.hpp"
#include "net/fault.hpp"

namespace ns::net {

namespace {

std::string errno_string() { return std::string(::strerror(errno)); }

Result<sockaddr_in> make_addr(const Endpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
    return make_error(ErrorCode::kConnectFailed, "bad IPv4 address: " + ep.host);
  }
  return addr;
}

Endpoint from_addr(const sockaddr_in& addr) {
  char buf[INET_ADDRSTRLEN] = {};
  ::inet_ntop(AF_INET, &addr.sin_addr, buf, sizeof(buf));
  return Endpoint{buf, ntohs(addr.sin_port)};
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Poll one fd for the given events; 1 = ready, 0 = timeout, -1 = error.
int poll_fd(int fd, short events, double timeout_secs) {
  pollfd pfd{fd, events, 0};
  const int ms = timeout_secs >= 1e9 ? -1 : static_cast<int>(timeout_secs * 1000.0) + 1;
  return ::poll(&pfd, 1, ms);
}

}  // namespace

void FdHandle::reset() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<TcpConnection> TcpConnection::connect(const Endpoint& remote, double timeout_secs) {
  if (FaultInjector::instance().armed()) {
    NS_RETURN_IF_ERROR(FaultInjector::instance().on_connect(remote));
  }
  return connect_raw(remote, timeout_secs);
}

Result<TcpConnection> TcpConnection::connect_raw(const Endpoint& remote, double timeout_secs) {
  auto addr = make_addr(remote);
  if (!addr.ok()) return addr.error();

  const Deadline deadline(timeout_secs);
  double backoff = 0.002;
  while (true) {
    FdHandle fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) {
      return make_error(ErrorCode::kConnectFailed, "socket(): " + errno_string());
    }
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr.value()),
                  sizeof(sockaddr_in)) == 0) {
      set_nodelay(fd.get());
      return TcpConnection(std::move(fd));
    }
    const int err = errno;
    if ((err == ECONNREFUSED || err == ETIMEDOUT || err == EAGAIN) && !deadline.expired()) {
      sleep_seconds(std::min(backoff, deadline.remaining()));
      backoff = std::min(backoff * 2, 0.1);
      continue;
    }
    return make_error(ErrorCode::kConnectFailed,
                      "connect(" + remote.to_string() + "): " + errno_string());
  }
}

void TcpConnection::shutdown_both() noexcept {
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
}

Status TcpConnection::send_all(const void* first, std::size_t first_size, const void* second,
                               std::size_t second_size) {
  iovec iov[2] = {{const_cast<void*>(first), first_size},
                  {const_cast<void*>(second), second_size}};
  std::size_t next = 0;  // first iovec with bytes left
  for (;;) {
    while (next < 2 && iov[next].iov_len == 0) ++next;
    if (next == 2) return ok_status();
    msghdr msg{};
    msg.msg_iov = iov + next;
    msg.msg_iovlen = 2 - next;
    const ssize_t n = ::sendmsg(fd_.get(), &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return make_error(ErrorCode::kConnectionClosed, "send(): " + errno_string());
    }
    for (auto left = static_cast<std::size_t>(n); left > 0; ++next) {
      const std::size_t take = std::min(left, iov[next].iov_len);
      iov[next].iov_base = static_cast<std::uint8_t*>(iov[next].iov_base) + take;
      iov[next].iov_len -= take;
      left -= take;
      if (iov[next].iov_len > 0) break;
    }
  }
}

Status TcpConnection::recv_all(void* data, std::size_t size, double timeout_secs) {
  auto* bytes = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  const Deadline deadline(timeout_secs);
  while (got < size) {
    const int ready = poll_fd(fd_.get(), POLLIN, deadline.remaining());
    if (ready < 0) {
      if (errno == EINTR) continue;
      return make_error(ErrorCode::kConnectionClosed, "poll(): " + errno_string());
    }
    if (ready == 0 || deadline.expired()) {
      return make_error(ErrorCode::kTimeout, "recv timed out");
    }
    const ssize_t n = ::recv(fd_.get(), bytes + got, size - got, 0);
    if (n == 0) {
      return make_error(ErrorCode::kConnectionClosed, "peer closed connection");
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return make_error(ErrorCode::kConnectionClosed, "recv(): " + errno_string());
    }
    got += static_cast<std::size_t>(n);
  }
  return ok_status();
}

Status TcpConnection::wait_readable(double timeout_secs) {
  const int ready = poll_fd(fd_.get(), POLLIN, timeout_secs);
  if (ready < 0) return make_error(ErrorCode::kConnectionClosed, "poll(): " + errno_string());
  if (ready == 0) return make_error(ErrorCode::kTimeout, "not readable before timeout");
  return ok_status();
}

Result<Endpoint> TcpConnection::local_endpoint() const {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return make_error(ErrorCode::kInternal, "getsockname(): " + errno_string());
  }
  return from_addr(addr);
}

Result<Endpoint> TcpConnection::peer_endpoint() const {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getpeername(fd_.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return make_error(ErrorCode::kInternal, "getpeername(): " + errno_string());
  }
  return from_addr(addr);
}

Result<TcpListener> TcpListener::bind(const Endpoint& local, int backlog) {
  auto addr = make_addr(local);
  if (!addr.ok()) return addr.error();

  FdHandle fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    return make_error(ErrorCode::kConnectFailed, "socket(): " + errno_string());
  }
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr.value()),
             sizeof(sockaddr_in)) != 0) {
    return make_error(ErrorCode::kConnectFailed,
                      "bind(" + local.to_string() + "): " + errno_string());
  }
  if (::listen(fd.get(), backlog) != 0) {
    return make_error(ErrorCode::kConnectFailed, "listen(): " + errno_string());
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return make_error(ErrorCode::kInternal, "getsockname(): " + errno_string());
  }
  TcpListener listener;
  listener.fd_ = std::move(fd);
  listener.host_ = local.host;
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

Result<TcpConnection> TcpListener::accept(double timeout_secs) {
  if (!fd_.valid()) {
    return make_error(ErrorCode::kConnectionClosed, "listener closed");
  }
  const int ready = poll_fd(fd_.get(), POLLIN, timeout_secs);
  if (ready < 0) {
    return make_error(ErrorCode::kConnectionClosed, "poll(): " + errno_string());
  }
  if (ready == 0) {
    return make_error(ErrorCode::kTimeout, "no incoming connection");
  }
  const int client = ::accept(fd_.get(), nullptr, nullptr);
  if (client < 0) {
    return make_error(ErrorCode::kConnectionClosed, "accept(): " + errno_string());
  }
  set_nodelay(client);
  return TcpConnection(FdHandle(client));
}

}  // namespace ns::net
