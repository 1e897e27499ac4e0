#include "src/serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string_view>

#include "src/obs/metrics.hpp"
#include "src/util/error.hpp"

namespace hipo::serve {
namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw ConfigError(std::string(what) + ": " + std::strerror(errno));
}

void close_quiet(int fd) {
  if (fd >= 0) ::close(fd);
}

/// Writes one reply frame; false (counted in `serve.client_resets`) when the
/// peer has reset or vanished, which only ends that connection.
bool send_reply(int fd, std::string_view payload) {
  try {
    write_frame_fd(fd, payload);
    return true;
  } catch (const ConfigError&) {
    obs::counter("serve.client_resets").add();
    return false;
  }
}

}  // namespace

Server::Server(Service& service, ServerOptions options)
    : service_(service), options_(options) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int saved = errno;
    close_quiet(fd);
    errno = saved;
    throw_errno("bind 127.0.0.1");
  }
  if (::listen(fd, 64) < 0) {
    const int saved = errno;
    close_quiet(fd);
    errno = saved;
    throw_errno("listen");
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    const int saved = errno;
    close_quiet(fd);
    errno = saved;
    throw_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_.store(fd, std::memory_order_release);
}

Server::~Server() { stop(); }

void Server::run() {
  ran_.store(true, std::memory_order_release);
  while (!stopping_.load(std::memory_order_acquire)) {
    // close_listener() may swap in -1 (and close the socket) between this
    // load and the accept; accept on -1 or a closed fd fails with
    // EBADF/EINVAL, which is the break-below shutdown path.
    const int fd =
        ::accept(listen_fd_.load(std::memory_order_acquire), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Listener closed by stop(): EBADF/EINVAL here is the shutdown path.
      break;
    }
    if (service_.shutdown_requested()) {
      close_quiet(fd);
      break;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    std::lock_guard lock(mutex_);
    reap_finished_locked();
    if (stopping_.load(std::memory_order_acquire)) {
      close_quiet(fd);
      break;
    }
    if (connections_.size() >= options_.max_connections) {
      obs::counter("serve.rejected").add();
      send_reply(fd, error_response("overloaded",
                                    "connection limit reached; retry later")
                         .dump());
      close_quiet(fd);
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection& ref = *conn;
    conn->thread = std::thread([this, &ref] { serve_connection(ref); });
    connections_.push_back(std::move(conn));
  }
  stop();
}

void Server::start() {
  accept_thread_ = std::thread([this] { run(); });
  // run() flips ran_ before accepting; nothing to wait on — the listener has
  // been bound since the constructor, so clients can already connect.
}

void Server::stop() {
  const bool was_stopping = stopping_.exchange(true);
  close_listener();
  std::vector<std::unique_ptr<Connection>> live;
  {
    std::lock_guard lock(mutex_);
    live.swap(connections_);
  }
  for (auto& conn : live) {
    // EOF the read side; an in-flight response still flushes out the write
    // side before serve_connection closes the fd.
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RD);
  }
  for (auto& conn : live) {
    if (conn->thread.joinable()) conn->thread.join();
    close_quiet(conn->fd);
  }
  if (accept_thread_.joinable() &&
      accept_thread_.get_id() != std::this_thread::get_id()) {
    accept_thread_.join();
  }
  (void)was_stopping;
}

void Server::serve_connection(Connection& conn) {
  std::string request;
  try {
    while (read_frame_fd(conn.fd, options_.max_frame_bytes, request)) {
      if (!send_reply(conn.fd, service_.handle(request))) break;
      if (service_.shutdown_requested()) {
        // This connection delivered (or raced with) the shutdown request;
        // stop reading and let the acceptor drain.
        stopping_.store(true, std::memory_order_release);
        close_listener();
        break;
      }
    }
  } catch (const ConfigError& e) {
    // Oversized/garbled frame or peer reset: answer if the socket still
    // writes, then drop the connection.
    send_reply(conn.fd, error_response("bad_frame", e.what()).dump());
  }
  // FIN the peer now, but leave the close (and fd-number reuse) to whoever
  // joins this thread — stop() may still hold conn.fd for its SHUT_RD.
  ::shutdown(conn.fd, SHUT_RDWR);
  conn.done.store(true, std::memory_order_release);
}

void Server::reap_finished_locked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      close_quiet((*it)->fd);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::close_listener() {
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    // shutdown() unblocks a concurrent accept() portably; close() alone may
    // leave the acceptor parked.
    ::shutdown(fd, SHUT_RDWR);
    close_quiet(fd);
  }
}

Client::Client(std::uint16_t port, std::size_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int saved = errno;
    close_quiet(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("connect 127.0.0.1");
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Client::~Client() { close_quiet(fd_); }

std::string Client::call(std::string_view request_json) {
  write_frame_fd(fd_, request_json);
  std::string response;
  if (!read_frame_fd(fd_, max_frame_bytes_, response)) {
    throw ConfigError("server closed the connection before responding");
  }
  return response;
}

}  // namespace hipo::serve
