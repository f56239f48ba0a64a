// The one module that touches the network: the data server, the admin
// server and the client make every socket, poll and pipe call through
// it, and all three read with ReadSome and write with Flush. A Socket
// closes its descriptor when destroyed; a moved-from one holds none.
// The servers' sockets are non-blocking. The client's blocks, with read
// and send timeouts, so its Flush sends a whole frame unless a send
// fails or times out, and ReadSome with a kReadChunkBytes budget makes
// one read, which waits.
//
// SetHookForTesting installs one function that sees each connect,
// accept, read and write before it is made. It may lower a read or
// write's byte count to cut it short, or return an errno (ECONNRESET,
// say) to fail the call with. It runs on the calling thread, so it must
// be thread-safe. Install it before the threads under test start and
// remove it after they stop; unset, a call costs one atomic load.

#ifndef TOPKMON_UTIL_SOCKET_H_
#define TOPKMON_UTIL_SOCKET_H_

#include <poll.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "common/status.h"

namespace topkmon {
namespace socket {

enum class Op : std::uint8_t { kConnect, kAccept, kRead, kWrite };

/// Sees a call before it is made: its kind, its socket (kConnect: not yet
/// connected; kAccept: the listener) and, for kRead and kWrite, in *bytes
/// the most it may move, which the hook may lower. Returns 0 to make the
/// call, or an errno to fail it with instead.
using Hook = std::function<int(Op op, int fd, std::size_t* bytes)>;

/// Installs `hook`; an empty function removes it.
void SetHookForTesting(Hook hook);

/// An open socket (or pipe end); the destructor closes it.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Socket& operator=(Socket&& other) noexcept {
    std::swap(fd_, other.fd_);
    return *this;
  }
  ~Socket() { Close(); }

  bool is_open() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void Close();

 private:
  int fd_ = -1;
};

/// Binds `address`:`port` (0 picks a free port), listens on a
/// non-blocking socket and sets *bound_port. InvalidArgument for an
/// address that is not a dotted quad, FailedPrecondition when the port
/// is in use, Internal otherwise.
Result<Socket> Listen(const std::string& address, std::uint16_t port,
                      int backlog, std::uint16_t* bound_port);

/// Hands every connection pending on `listener` to `take`, non-blocking
/// with TCP_NODELAY set.
void AcceptPending(const Socket& listener,
                   const std::function<void(Socket)>& take);

/// Connects to `host`:`port` (a dotted quad or a name to resolve) with a
/// blocking TCP_NODELAY socket whose sends and reads time out after
/// `io_timeout`.
/// InvalidArgument when the name does not resolve, Internal otherwise.
Result<Socket> Connect(const std::string& host, std::uint16_t port,
                       std::chrono::milliseconds io_timeout);

/// Sets how long a read on the blocking `socket` waits.
void SetReadTimeout(const Socket& socket, std::chrono::milliseconds timeout);

/// poll(2) over fds[0, n) for `timeout` (1 ms at least). False when it
/// fails other than by an interruption, which returns no events.
bool Poll(pollfd* fds, std::size_t n, std::chrono::milliseconds timeout);

/// What a ReadSome or Flush call did.
struct IoResult {
  std::size_t bytes = 0;
  bool eof = false;  ///< ReadSome: the peer closed its sending side
  int error = 0;     ///< errno of a failed call: the socket is broken
};

/// The most one read asks for (ReadSome's stack buffer).
constexpr std::size_t kReadChunkBytes = std::size_t(64) << 10;

/// Appends what `socket` holds to *in, one read at a time, until a read
/// comes up short or empty, `budget` bytes arrived, the peer closed or a
/// read failed. No read asks for more than the budget leaves.
IoResult ReadSome(const Socket& socket, std::string* in, std::size_t budget);

/// Sends *out until it is empty, the socket takes no more now (or, when
/// it blocks, a send times out) or a send fails, and erases what went.
IoResult Flush(const Socket& socket, std::string* out);

/// A self-pipe that wakes a poll loop from other threads: fd() is in the
/// loop's poll set, Notify writes a byte unless one is pending, and the
/// loop Drains the pipe when fd() is readable.
class WakePipe {
 public:
  /// Call once, before another thread can Notify.
  Status Open();
  int fd() const { return read_end_.fd(); }
  void Notify();
  void Drain();

 private:
  Socket read_end_;
  Socket write_end_;
  std::atomic<bool> pending_{false};
};

}  // namespace socket
}  // namespace topkmon

#endif  // TOPKMON_UTIL_SOCKET_H_
