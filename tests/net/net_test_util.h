// Shared server construction for the net/replica test tiers, and the
// helpers tests use to aim the socket test hook at one connection.

#ifndef TOPKMON_TESTS_NET_NET_TEST_UTIL_H_
#define TOPKMON_TESTS_NET_NET_TEST_UTIL_H_

#include <netinet/in.h>
#include <sys/socket.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <utility>

#include "net/server.h"
#include "util/socket.h"

namespace topkmon {
namespace testing {

/// Fast-tick server options for tests. TOPKMON_SERVER_THREADS (if set)
/// overrides the poll-loop count, which is how CI re-runs the whole
/// net/replica tier multi-threaded (e.g. under TSan with 4 loops)
/// without a parallel test matrix in the sources.
inline NetServerOptions TestServerOptions() {
  NetServerOptions opt;
  opt.poll_tick = std::chrono::milliseconds(1);
  if (const char* env = std::getenv("TOPKMON_SERVER_THREADS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) opt.server_threads = static_cast<std::size_t>(n);
  }
  return opt;
}

/// The local (or, with peer, the remote) TCP port of socket `fd`; 0 when
/// it has none.
inline std::uint16_t SocketPort(int fd, bool peer) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  auto* raw = reinterpret_cast<sockaddr*>(&addr);
  const int rc = peer ? ::getpeername(fd, raw, &len)
                      : ::getsockname(fd, raw, &len);
  return rc == 0 ? ntohs(addr.sin_port) : 0;
}

/// Installs a socket test hook for its lifetime. Destroy it only once
/// every thread that may call the hook has stopped.
class ScopedSocketHook {
 public:
  explicit ScopedSocketHook(socket::Hook hook) {
    socket::SetHookForTesting(std::move(hook));
  }
  ~ScopedSocketHook() { socket::SetHookForTesting(nullptr); }

  ScopedSocketHook(const ScopedSocketHook&) = delete;
  ScopedSocketHook& operator=(const ScopedSocketHook&) = delete;
};

}  // namespace testing
}  // namespace topkmon

#endif  // TOPKMON_TESTS_NET_NET_TEST_UTIL_H_
