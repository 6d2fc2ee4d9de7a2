// Minimal HTTP/1.0 listener for loopback service traffic: the live
// introspection endpoint (DESIGN.md §12) and the grappled analysis daemon
// (DESIGN.md §15). Deliberately tiny — one accept loop feeding a small pool
// of handler threads, one request per connection, `Connection: close` on
// every response. That covers /statusz-style scrapes and grappled's check
// requests without pulling in a real HTTP dependency.
//
//   SocketServer server;
//   std::string error;
//   server.Start(0, [](const HttpRequest& req) {            // port 0 = ephemeral
//     HttpResponse resp;
//     resp.body = "ok\n";
//     return resp;
//   }, &error);
//   ... scrape http://127.0.0.1:<server.port()>/ ...
//   server.Stop();
//
// Connections are accepted into a backlog and dispatched to `handler_threads`
// workers, so a request that arrives while a long render (e.g. /tracez) is
// in flight waits its turn instead of observing a connection reset. POST
// bodies up to kMaxBodyBytes are read per Content-Length into
// HttpRequest::body.
//
// Binds 127.0.0.1 only — the service surface is host-local by design;
// fronting it with auth/TLS is a reverse proxy's job, not this class's.
#ifndef GRAPPLE_SRC_SUPPORT_SOCKET_SERVER_H_
#define GRAPPLE_SRC_SUPPORT_SOCKET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace grapple {

// Parses a --port flag value strictly: decimal digits only (no sign,
// whitespace or trailing characters) with a value in [0, 65535]; 0 is the
// explicit ephemeral request. False on anything else, leaving *port as is.
bool ParsePort(const char* text, int* port);

struct HttpRequest {
  std::string method;  // "GET", "POST", ...
  std::string path;    // "/statusz" (no query string)
  std::string query;   // "name=rss_bytes" (text after '?', may be empty)
  std::string body;    // request body per Content-Length (may be empty)
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class SocketServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  // Largest accepted request body; larger requests get a 400. Grapple IR
  // subjects are text and comfortably under this.
  static constexpr size_t kMaxBodyBytes = size_t{16} << 20;

  SocketServer() = default;
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  // Binds 127.0.0.1:`port` (0 picks an ephemeral port; read it back via
  // port()) and serves `handler` on `handler_threads` background threads
  // (clamped to [1, 64]). Returns false and sets *error when the bind fails
  // or the server is already running. The handler runs concurrently on the
  // serving threads and must be thread-safe with respect to whatever state
  // it reads.
  bool Start(int port, Handler handler, std::string* error, size_t handler_threads = 4);

  // Stops the accept loop and handler pool and closes the listening socket.
  // Idempotent; blocks until every thread has joined, so the handler is
  // never invoked after Stop() returns. Connections still queued when Stop
  // is called are closed unanswered.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  // Bound port; 0 when not running.
  int port() const { return port_.load(std::memory_order_acquire); }

 private:
  void Serve();
  void HandlerLoop();
  void HandleConnection(int fd);

  Handler handler_;
  std::thread accept_thread_;
  std::vector<std::thread> handler_threads_;
  std::atomic<bool> running_{false};
  std::atomic<int> port_{0};
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: Stop() wakes the poll loop

  // Accepted connections waiting for a handler thread.
  std::mutex conns_mu_;
  std::condition_variable conns_cv_;
  std::deque<int> pending_conns_;  // guarded by conns_mu_
};

}  // namespace grapple

#endif  // GRAPPLE_SRC_SUPPORT_SOCKET_SERVER_H_
