#include "src/support/socket_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace grapple {

namespace {

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 429:
      return "Too Many Requests";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

void CloseFd(int* fd) {
  if (*fd >= 0) {
    ::close(*fd);
    *fd = -1;
  }
}

// Writes the full buffer, tolerating EINTR and short writes. Scrape clients
// that hang up early are not an error worth surfacing.
void WriteFully(int fd, const std::string& data) {
  size_t done = 0;
  while (done < data.size()) {
    ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;
    }
    done += static_cast<size_t>(n);
  }
}

// Case-insensitive Content-Length lookup over the raw header block.
// Returns SIZE_MAX when absent or malformed.
size_t ParseContentLength(const std::string& headers) {
  size_t pos = 0;
  while (pos < headers.size()) {
    size_t eol = headers.find('\n', pos);
    std::string line = headers.substr(pos, eol == std::string::npos ? std::string::npos : eol - pos);
    pos = eol == std::string::npos ? headers.size() : eol + 1;
    size_t colon = line.find(':');
    if (colon == std::string::npos) {
      continue;
    }
    std::string name = line.substr(0, colon);
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    if (name != "content-length") {
      continue;
    }
    size_t value_begin = line.find_first_not_of(" \t", colon + 1);
    if (value_begin == std::string::npos) {
      return SIZE_MAX;
    }
    char* end = nullptr;
    unsigned long long value = std::strtoull(line.c_str() + value_begin, &end, 10);
    if (end == line.c_str() + value_begin) {
      return SIZE_MAX;
    }
    return static_cast<size_t>(value);
  }
  return SIZE_MAX;
}

}  // namespace

bool ParsePort(const char* text, int* port) {
  int value = 0;
  if (*text == '\0') {
    return false;
  }
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') {
      return false;
    }
    value = value * 10 + (*p - '0');
    if (value > 65535) {
      return false;
    }
  }
  *port = value;
  return true;
}

SocketServer::~SocketServer() { Stop(); }

bool SocketServer::Start(int port, Handler handler, std::string* error, size_t handler_threads) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "socket server: " + why;
    }
    return false;
  };
  if (running_.load(std::memory_order_acquire)) {
    return fail("already running");
  }
  if (handler == nullptr) {
    return fail("null handler");
  }
  if (port < 0 || port > 65535) {
    return fail("port " + std::to_string(port) + " out of range");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return fail(std::string("socket failed: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::string why = std::string("bind 127.0.0.1:") + std::to_string(port) +
                      " failed: " + std::strerror(errno);
    ::close(fd);
    return fail(why);
  }
  if (::listen(fd, 64) != 0) {
    std::string why = std::string("listen failed: ") + std::strerror(errno);
    ::close(fd);
    return fail(why);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    std::string why = std::string("getsockname failed: ") + std::strerror(errno);
    ::close(fd);
    return fail(why);
  }
  if (::pipe(wake_fds_) != 0) {
    std::string why = std::string("pipe failed: ") + std::strerror(errno);
    ::close(fd);
    return fail(why);
  }
  listen_fd_ = fd;
  handler_ = std::move(handler);
  port_.store(ntohs(addr.sin_port), std::memory_order_release);
  running_.store(true, std::memory_order_release);
  size_t pool = std::clamp<size_t>(handler_threads, 1, 64);
  handler_threads_.reserve(pool);
  for (size_t i = 0; i < pool; ++i) {
    handler_threads_.emplace_back([this] { HandlerLoop(); });
  }
  accept_thread_ = std::thread([this] { Serve(); });
  return true;
}

void SocketServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  // Wake the poll loop; the thread observes running_ == false and exits.
  char byte = 0;
  [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &byte, 1);
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  conns_cv_.notify_all();
  for (auto& thread : handler_threads_) {
    if (thread.joinable()) {
      thread.join();
    }
  }
  handler_threads_.clear();
  // Connections that were still queued never reached a handler; close them
  // unanswered rather than leaking the fds.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (int conn : pending_conns_) {
      ::close(conn);
    }
    pending_conns_.clear();
  }
  CloseFd(&listen_fd_);
  CloseFd(&wake_fds_[0]);
  CloseFd(&wake_fds_[1]);
  port_.store(0, std::memory_order_release);
  handler_ = nullptr;
}

void SocketServer::Serve() {
  while (running_.load(std::memory_order_acquire)) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_fds_[0], POLLIN, 0};
    int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;
    }
    if (!running_.load(std::memory_order_acquire)) {
      return;
    }
    if ((fds[0].revents & POLLIN) == 0) {
      continue;
    }
    int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      pending_conns_.push_back(conn);
    }
    conns_cv_.notify_one();
  }
}

void SocketServer::HandlerLoop() {
  for (;;) {
    int conn = -1;
    {
      std::unique_lock<std::mutex> lock(conns_mu_);
      conns_cv_.wait(lock, [this] {
        return !pending_conns_.empty() || !running_.load(std::memory_order_acquire);
      });
      if (pending_conns_.empty()) {
        return;  // stopping and nothing left to serve
      }
      conn = pending_conns_.front();
      pending_conns_.pop_front();
    }
    HandleConnection(conn);
    ::close(conn);
  }
}

void SocketServer::HandleConnection(int fd) {
  // Header block first (8 KiB is generous for one request line + headers),
  // then the body per Content-Length, bounded by kMaxBodyBytes.
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  std::string request;
  char buffer[4096];
  size_t header_end = std::string::npos;
  size_t body_begin = 0;
  while (request.size() < 8192 + kMaxBodyBytes) {
    size_t crlf = request.find("\r\n\r\n");
    size_t lf = request.find("\n\n");
    if (crlf != std::string::npos || lf != std::string::npos) {
      if (crlf != std::string::npos && (lf == std::string::npos || crlf < lf)) {
        header_end = crlf;
        body_begin = crlf + 4;
      } else {
        header_end = lf;
        body_begin = lf + 2;
      }
      break;
    }
    if (request.size() >= 8192) {
      break;  // header block too large; reject below
    }
    ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      break;
    }
    request.append(buffer, static_cast<size_t>(n));
  }

  HttpResponse response;
  bool parsed_ok = false;
  HttpRequest parsed;
  if (header_end != std::string::npos) {
    std::string line;
    size_t line_end = request.find('\n');
    line = line_end == std::string::npos ? request : request.substr(0, line_end);
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    size_t sp1 = line.find(' ');
    size_t sp2 = line.rfind(' ');
    if (sp1 != std::string::npos && sp2 != sp1) {
      parsed.method = line.substr(0, sp1);
      std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
      size_t question = target.find('?');
      if (question == std::string::npos) {
        parsed.path = target;
      } else {
        parsed.path = target.substr(0, question);
        parsed.query = target.substr(question + 1);
      }
      // Body: everything announced by Content-Length (absent = no body).
      size_t content_length = ParseContentLength(request.substr(0, header_end));
      if (content_length == SIZE_MAX) {
        content_length = 0;
      }
      if (content_length <= kMaxBodyBytes) {
        parsed.body = request.substr(std::min(body_begin, request.size()));
        while (parsed.body.size() < content_length) {
          ssize_t n = ::read(fd, buffer, sizeof(buffer));
          if (n <= 0) {
            if (n < 0 && errno == EINTR) {
              continue;
            }
            break;
          }
          parsed.body.append(buffer, static_cast<size_t>(n));
        }
        if (parsed.body.size() >= content_length) {
          parsed.body.resize(content_length);
          parsed_ok = true;
        }
      }
    }
  }
  if (parsed_ok) {
    response = handler_(parsed);
  } else {
    response.status = 400;
    response.body = "bad request\n";
  }

  std::string head = "HTTP/1.0 " + std::to_string(response.status) + " " +
                     StatusText(response.status) +
                     "\r\nContent-Type: " + response.content_type +
                     "\r\nContent-Length: " + std::to_string(response.body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  WriteFully(fd, head + response.body);
}

}  // namespace grapple
