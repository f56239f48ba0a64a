// AdminHttpServer — the read-only introspection endpoint (src/obs/).
//
// A deliberately minimal HTTP/1.0 server so that curl, a browser or a
// Prometheus scraper can inspect a running node with no topkmon client
// library: one dedicated thread runs a single poll(2) set holding the
// listener plus every admin connection. That is the right shape for an
// admin plane — scrape traffic is a handful of requests per second, and
// one thread keeps the server completely outside the data path (it
// shares no locks with the poll loops or the cycle driver; handlers
// read the service through its ordinary thread-safe accessors).
//
// The protocol subset: requests are `GET <path> HTTP/1.x`; headers are
// read and discarded; every response carries Content-Length and
// `Connection: close` and the connection closes after the reply
// (HTTP/1.0 semantics — keep-alive is complexity the admin plane does
// not need). Paths are matched exactly after stripping any query
// string; handlers are registered before Start() and run on the admin
// thread.
//
// Hardening mirrors the data-plane server's stance — nothing a peer
// does costs more than its own connection (tests/obs/admin_http_test.cc
// pins each case, the way server_torture_test pins the binary server):
//   * a garbage request line draws 400 and the connection closes;
//   * a request growing past max_request_bytes draws 431 and closes —
//     oversized headers cannot balloon server memory;
//   * a slow-loris peer that never finishes its request line is reaped
//     by idle_timeout;
//   * a peer that never stops sending is read at most max_request_bytes
//     + 1 bytes per poll tick, so it cannot hold the thread from other
//     scrapes;
//   * an abrupt disconnect at any point just closes that connection;
//   * connections beyond max_connections are accepted and immediately
//     closed (the listener backlog can never fill with zombies).

#ifndef TOPKMON_OBS_ADMIN_SERVER_H_
#define TOPKMON_OBS_ADMIN_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/status.h"
#include "util/socket.h"

namespace topkmon {

/// Admin-plane configuration (part of ServiceOptions).
struct AdminServerOptions {
  /// The admin plane is opt-in: nothing binds unless enabled.
  bool enabled = false;
  /// IPv4 address to bind; the default serves loopback only. The admin
  /// plane is unauthenticated read-only introspection — expose it
  /// beyond loopback deliberately, not by default.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read back with port()).
  std::uint16_t port = 0;
  int listen_backlog = 16;
  /// Connections beyond this are accepted and immediately closed.
  std::size_t max_connections = 64;
  /// Requests larger than this (request line + headers) draw 431.
  std::size_t max_request_bytes = 8u << 10;
  /// Connections idle this long mid-request are reaped (slow-loris).
  std::chrono::milliseconds idle_timeout{5000};
  /// Poll granularity; bounds Stop() latency and timeout precision.
  std::chrono::milliseconds poll_tick{50};
};

/// What a handler returns; rendered as one HTTP/1.0 response.
struct AdminResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Read-only HTTP/1.0 introspection server (one thread, one poll set).
class AdminHttpServer {
 public:
  using Handler = std::function<AdminResponse()>;

  explicit AdminHttpServer(const AdminServerOptions& options);
  ~AdminHttpServer();

  AdminHttpServer(const AdminHttpServer&) = delete;
  AdminHttpServer& operator=(const AdminHttpServer&) = delete;

  /// Registers the handler serving exactly `path` (e.g. "/metrics").
  /// Call before Start(); later registrations race the serving thread.
  void Handle(std::string path, Handler handler);

  /// Binds, listens and starts the serving thread. InvalidArgument for
  /// a bad bind address; FailedPrecondition if already started or the
  /// port is in use; Internal for any other socket failure.
  Status Start();

  /// Closes the listener and every connection, then joins the thread.
  /// Idempotent.
  void Stop();

  /// The bound TCP port (after a successful Start).
  std::uint16_t port() const { return port_; }

 private:
  struct Connection {
    socket::Socket socket;
    std::string in;   ///< request bytes, not yet terminated
    std::string out;  ///< response bytes, not yet sent
    bool responding = false;  ///< request answered; flush out, then close
    std::chrono::steady_clock::time_point last_activity{};
  };

  void Loop();
  /// Reads request bytes; answers once the header terminator arrives.
  /// Returns false when the connection should close now.
  bool ReadReady(Connection& conn);
  /// The response to `request` (its request line and headers).
  AdminResponse Answer(const std::string& request) const;
  void QueueResponse(Connection& conn, const AdminResponse& response);
  /// Flushes conn.out; false when the peer is gone.
  bool WriteReady(Connection& conn);

  const AdminServerOptions options_;
  std::unordered_map<std::string, Handler> handlers_;

  socket::Socket listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::list<Connection> connections_;
  std::thread thread_;
};

}  // namespace topkmon

#endif  // TOPKMON_OBS_ADMIN_SERVER_H_
