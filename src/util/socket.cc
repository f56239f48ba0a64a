#include "util/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

namespace topkmon {
namespace socket {
namespace {

std::atomic<const Hook*> g_hook{nullptr};

/// The hook's verdict on a call: 0 to make it, moving at most *bytes
/// (which the hook may have lowered), else the errno to fail it with.
int Allow(Op op, int fd, std::size_t* bytes) {
  const Hook* hook = g_hook.load(std::memory_order_acquire);
  if (hook == nullptr) return 0;
  const std::size_t asked = *bytes;
  const int err = (*hook)(op, fd, bytes);
  if (*bytes == 0 || *bytes > asked) *bytes = asked;
  return err;
}

Status Errno(const std::string& what, int err) {
  return Status::Internal(what + ": " + std::strerror(err));
}

void SetTimeout(int fd, int option, std::chrono::milliseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

void SetFlag(int fd, int level, int option) {
  const int one = 1;
  ::setsockopt(fd, level, option, &one, sizeof(one));
}

}  // namespace

void SetHookForTesting(Hook hook) {
  const Hook* fresh = hook ? new Hook(std::move(hook)) : nullptr;
  delete g_hook.exchange(fresh, std::memory_order_acq_rel);
}

void Socket::Close() {
  if (fd_ >= 0) ::close(std::exchange(fd_, -1));
}

Result<Socket> Listen(const std::string& address, std::uint16_t port,
                      int backlog, std::uint16_t* bound_port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad bind address '" + address + "'");
  }
  Socket listener(
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  const int fd = listener.fd();
  if (fd < 0) return Errno("socket", errno);
  SetFlag(fd, SOL_SOCKET, SO_REUSEADDR);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return errno == EADDRINUSE
               ? Status::FailedPrecondition(
                     "port " + std::to_string(port) + " is already in use")
               : Errno("bind", errno);
  }
  socklen_t len = sizeof(addr);
  if (::listen(fd, backlog) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("listen", errno);
  }
  *bound_port = ntohs(addr.sin_port);
  return listener;
}

void AcceptPending(const Socket& listener,
                   const std::function<void(Socket)>& take) {
  std::size_t none = 0;
  while (Allow(Op::kAccept, listener.fd(), &none) == 0) {
    Socket accepted(::accept4(listener.fd(), nullptr, nullptr,
                              SOCK_NONBLOCK | SOCK_CLOEXEC));
    if (!accepted.is_open()) return;  // EAGAIN (or transient): next round
    SetFlag(accepted.fd(), IPPROTO_TCP, TCP_NODELAY);
    take(std::move(accepted));
  }
}

Result<Socket> Connect(const std::string& host, std::uint16_t port,
                       std::chrono::milliseconds io_timeout) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* found = nullptr;
  if (::getaddrinfo(host.c_str(), nullptr, &hints, &found) != 0) {
    return Status::InvalidArgument("cannot resolve host '" + host + "'");
  }
  sockaddr_in addr{};
  std::memcpy(&addr, found->ai_addr, sizeof(addr));
  ::freeaddrinfo(found);
  addr.sin_port = htons(port);
  Socket connected(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!connected.is_open()) return Errno("socket", errno);
  std::size_t none = 0;
  int err = Allow(Op::kConnect, connected.fd(), &none);
  const auto* to = reinterpret_cast<const sockaddr*>(&addr);
  if (err == 0 && ::connect(connected.fd(), to, sizeof(addr)) != 0) err = errno;
  if (err != 0) {
    return Errno("connect to " + host + ":" + std::to_string(port), err);
  }
  SetFlag(connected.fd(), IPPROTO_TCP, TCP_NODELAY);
  SetTimeout(connected.fd(), SO_RCVTIMEO, io_timeout);
  SetTimeout(connected.fd(), SO_SNDTIMEO, io_timeout);
  return connected;
}

void SetReadTimeout(const Socket& socket, std::chrono::milliseconds timeout) {
  SetTimeout(socket.fd(), SO_RCVTIMEO, timeout);
}

bool Poll(pollfd* fds, std::size_t n, std::chrono::milliseconds timeout) {
  const auto ms = std::max<std::chrono::milliseconds::rep>(1, timeout.count());
  return ::poll(fds, n, static_cast<int>(ms)) >= 0 || errno == EINTR;
}

IoResult ReadSome(const Socket& socket, std::string* in, std::size_t budget) {
  char buf[kReadChunkBytes];
  IoResult result;
  while (result.bytes < budget) {
    const std::size_t ask = std::min(sizeof(buf), budget - result.bytes);
    std::size_t n = ask;
    const int refused = Allow(Op::kRead, socket.fd(), &n);
    const ssize_t got = refused != 0 ? -1 : ::recv(socket.fd(), buf, n, 0);
    if (got > 0) {
      in->append(buf, static_cast<std::size_t>(got));
      result.bytes += static_cast<std::size_t>(got);
      if (static_cast<std::size_t>(got) < ask) break;  // drained for now
      continue;
    }
    if (got == 0) {
      result.eof = true;
      break;
    }
    const int err = refused != 0 ? refused : errno;
    if (err == EINTR) continue;
    if (err != EAGAIN && err != EWOULDBLOCK) result.error = err;
    break;
  }
  return result;
}

IoResult Flush(const Socket& socket, std::string* out) {
  IoResult result;
  while (result.bytes < out->size()) {
    std::size_t n = out->size() - result.bytes;
    const int refused = Allow(Op::kWrite, socket.fd(), &n);
    const ssize_t sent =
        refused != 0
            ? -1
            : ::send(socket.fd(), out->data() + result.bytes, n, MSG_NOSIGNAL);
    if (sent > 0) {
      result.bytes += static_cast<std::size_t>(sent);
      continue;
    }
    const int err = refused != 0 ? refused : errno;
    if (err == EINTR) continue;
    if (err != EAGAIN && err != EWOULDBLOCK) result.error = err;
    break;
  }
  out->erase(0, result.bytes);
  return result;
}

Status WakePipe::Open() {
  int fds[2] = {-1, -1};
  if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) return Errno("pipe", errno);
  read_end_ = Socket(fds[0]);
  write_end_ = Socket(fds[1]);
  return Status::Ok();
}

void WakePipe::Notify() {
  bool expected = false;
  if (!pending_.compare_exchange_strong(expected, true)) return;
  const char byte = 1;
  // A full pipe means a wake is already deliverable; the poll tick
  // bounds the delay of the (theoretical) lost-wake race either way.
  (void)!::write(write_end_.fd(), &byte, 1);
}

void WakePipe::Drain() {
  // Drain first, clear the flag after. A Notify racing the drain may
  // have its byte consumed here while its CAS left the flag set;
  // clearing afterwards guarantees the flag is never left true with an
  // empty pipe, which would suppress every later wake.
  char buf[256];
  while (::read(read_end_.fd(), buf, sizeof(buf)) > 0) {
  }
  pending_.store(false);
}

}  // namespace socket
}  // namespace topkmon
