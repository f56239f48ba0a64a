#include "obs/admin_server.h"

#include <vector>

#include "util/clock.h"

namespace topkmon {
namespace {

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 431:
      return "Request Header Fields Too Large";
    case 503:
      return "Service Unavailable";
    default:
      return "Internal Server Error";
  }
}

AdminResponse PlainResponse(int status, const char* body) {
  AdminResponse response;
  response.status = status;
  response.body = body;
  return response;
}

}  // namespace

AdminHttpServer::AdminHttpServer(const AdminServerOptions& options)
    : options_(options) {}

AdminHttpServer::~AdminHttpServer() { Stop(); }

void AdminHttpServer::Handle(std::string path, Handler handler) {
  handlers_[std::move(path)] = std::move(handler);
}

Status AdminHttpServer::Start() {
  if (started_) return Status::FailedPrecondition("admin server started");
  auto listener = socket::Listen(options_.bind_address, options_.port,
                                 options_.listen_backlog, &port_);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  stop_.store(false, std::memory_order_release);
  started_ = true;
  thread_ = std::thread([this] { Loop(); });
  return Status::Ok();
}

void AdminHttpServer::Stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  listener_.Close();
  connections_.clear();
  started_ = false;
}

void AdminHttpServer::Loop() {
  std::vector<pollfd> fds;
  const auto take = [this](socket::Socket accepted) {
    // Beyond the cap the connection closes at once.
    if (connections_.size() >= options_.max_connections) return;
    Connection conn;
    conn.socket = std::move(accepted);
    conn.last_activity = Clock::RealNow();
    connections_.push_back(std::move(conn));
  };
  // After a failed accept the listener sits out one tick.
  Clock::time_point accept_after{};
  while (!stop_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back(pollfd{
        listener_.fd(),
        static_cast<short>(Clock::RealNow() >= accept_after ? POLLIN : 0),
        0});
    for (const Connection& conn : connections_) {
      short events = POLLIN;
      if (!conn.out.empty()) events |= POLLOUT;
      fds.push_back(pollfd{conn.socket.fd(), events, 0});
    }

    if (!socket::Poll(fds.data(), fds.size(), options_.poll_tick) ||
        stop_.load(std::memory_order_acquire)) {
      break;
    }
    const auto now = Clock::RealNow();
    if ((fds[0].revents & POLLIN) != 0 &&
        !socket::AcceptPending(listener_, take)) {
      accept_after = now + options_.poll_tick;
    }

    std::size_t i = 1;
    for (auto it = connections_.begin(); it != connections_.end(); ++i) {
      Connection& conn = *it;
      bool alive = true;
      const short revents = i < fds.size() ? fds[i].revents : 0;
      if (revents & (POLLERR | POLLNVAL)) alive = false;
      if (alive && (revents & (POLLIN | POLLHUP))) alive = ReadReady(conn);
      if (alive && !conn.out.empty() && (revents & POLLOUT)) {
        alive = WriteReady(conn);
      }
      // A fully flushed response is the end of the HTTP/1.0 exchange.
      if (alive && conn.responding && conn.out.empty()) alive = false;
      // Slow-loris / abandoned sockets: reap when idle mid-request.
      if (alive && options_.idle_timeout.count() > 0 &&
          now - conn.last_activity > options_.idle_timeout) {
        alive = false;
      }
      it = alive ? std::next(it) : connections_.erase(it);
    }
  }
}

bool AdminHttpServer::ReadReady(Connection& conn) {
  // At most one request's worth per tick: a peer that never stops
  // sending cannot hold the admin thread from other scrapes, and its
  // buffer stays bounded.
  const socket::IoResult read =
      socket::ReadSome(conn.socket, &conn.in, options_.max_request_bytes + 1);
  if (read.bytes > 0) conn.last_activity = Clock::RealNow();
  if (conn.responding) {
    conn.in.clear();  // pipelined extra bytes: ignore
  } else if (conn.in.find("\r\n\r\n") != std::string::npos ||
             conn.in.find("\n\n") != std::string::npos) {
    QueueResponse(conn, Answer(conn.in));
  } else if (conn.in.size() > options_.max_request_bytes) {
    QueueResponse(conn, PlainResponse(431, "request too large\n"));
  }
  // Peer half-closed. If a response is queued let it flush; an abrupt
  // disconnect mid-request just ends the connection.
  if (read.eof) return conn.responding && !conn.out.empty();
  return read.error == 0;
}

AdminResponse AdminHttpServer::Answer(const std::string& request) const {
  const std::size_t line_end = request.find('\n');
  std::string line =
      line_end == std::string::npos ? request : request.substr(0, line_end);
  if (!line.empty() && line.back() == '\r') line.pop_back();

  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp1 == 0) {
    return PlainResponse(400, "malformed request line\n");
  }
  const std::string method = line.substr(0, sp1);
  std::string target = sp2 == std::string::npos
                           ? line.substr(sp1 + 1)
                           : line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t query = target.find('?');
  if (query != std::string::npos) target.resize(query);

  if (method != "GET") {
    return PlainResponse(405, "read-only admin plane: GET only\n");
  }
  if (target.empty() || target[0] != '/') {
    return PlainResponse(400, "malformed request target\n");
  }
  const auto it = handlers_.find(target);
  if (it == handlers_.end()) {
    return PlainResponse(404, "unknown path; try /metrics /statusz /healthz\n");
  }
  return it->second();
}

void AdminHttpServer::QueueResponse(Connection& conn,
                                    const AdminResponse& response) {
  conn.responding = true;
  conn.in.clear();
  conn.out = "HTTP/1.0 " + std::to_string(response.status) + " " +
             StatusText(response.status) +
             "\r\nContent-Type: " + response.content_type +
             "\r\nContent-Length: " + std::to_string(response.body.size()) +
             "\r\nConnection: close\r\n\r\n" +
             response.body;
  // Opportunistic flush: most responses fit the socket buffer, so the
  // common scrape completes without waiting for the next poll tick.
  WriteReady(conn);
}

bool AdminHttpServer::WriteReady(Connection& conn) {
  const socket::IoResult sent = socket::Flush(conn.socket, &conn.out);
  if (sent.bytes > 0) conn.last_activity = Clock::RealNow();
  return sent.error == 0;
}

}  // namespace topkmon
