// grapple-client: command-line client for the grappled daemon.
//
// Check a subject (the response body goes to stdout, exactly as the daemon
// sent it — with --fields reports that is byte-identical to
// `analyze_file <subject> --json`):
//
//   $ grapple-client --port 8437 --tenant ci --checkers io,lock
//       --fields reports subject.grap
//
// Scrape an introspection page:
//
//   $ grapple-client --port 8437 --get /statusz
//
// Exit codes: 0 on HTTP 200, 1 on connection failure or non-200 (the
// status line and error body go to stderr), 2 on usage error.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/support/socket_server.h"

namespace {

bool ReadFile(const char* path, std::string* out) {
  std::FILE* file = std::strcmp(path, "-") == 0 ? stdin : std::fopen(path, "rb");
  if (file == nullptr) {
    return false;
  }
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    out->append(buffer, n);
  }
  if (file != stdin) {
    std::fclose(file);
  }
  return true;
}

// One blocking HTTP/1.0 round trip against loopback; response read to EOF.
bool RoundTrip(int port, const std::string& request, std::string* response) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::write(fd, request.data() + sent, request.size() - sent);
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  char buffer[8192];
  for (;;) {
    ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      ::close(fd);
      return false;
    }
    if (n == 0) {
      break;
    }
    response->append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return !response->empty();
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port N [--tenant id] [--priority interactive|batch]\n"
               "          [--checkers io,lock,...] [--fields reports] <subject-file|->\n"
               "       %s --port N --get <path>\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  std::string tenant;
  std::string priority;
  std::string checkers;
  std::string fields;
  std::string get_path;
  const char* subject_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char** value) {
      if (i + 1 >= argc) {
        *value = nullptr;
      } else {
        *value = argv[++i];
      }
    };
    const char* value = nullptr;
    if (std::strcmp(argv[i], "--port") == 0) {
      next(&value);
      if (value == nullptr) return Usage(argv[0]);
      if (!grapple::ParsePort(value, &port)) {
        std::fprintf(stderr,
                     "grapple-client: --port must be an integer in [0, 65535], got '%s'\n", value);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--tenant") == 0) {
      next(&value);
      if (value == nullptr) return Usage(argv[0]);
      tenant = value;
    } else if (std::strcmp(argv[i], "--priority") == 0) {
      next(&value);
      if (value == nullptr) return Usage(argv[0]);
      priority = value;
    } else if (std::strcmp(argv[i], "--checkers") == 0) {
      next(&value);
      if (value == nullptr) return Usage(argv[0]);
      checkers = value;
    } else if (std::strcmp(argv[i], "--fields") == 0) {
      next(&value);
      if (value == nullptr) return Usage(argv[0]);
      fields = value;
    } else if (std::strcmp(argv[i], "--get") == 0) {
      next(&value);
      if (value == nullptr) return Usage(argv[0]);
      get_path = value;
    } else if (subject_path == nullptr) {
      subject_path = argv[i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "grapple-client: --port is required (1-65535)\n");
    return Usage(argv[0]);
  }
  if (get_path.empty() == (subject_path == nullptr)) {
    return Usage(argv[0]);  // exactly one of --get / subject
  }

  std::string request;
  if (!get_path.empty()) {
    request = "GET " + get_path + " HTTP/1.0\r\nConnection: close\r\n\r\n";
  } else {
    std::string subject;
    if (!ReadFile(subject_path, &subject)) {
      std::fprintf(stderr, "grapple-client: cannot open %s\n", subject_path);
      return 1;
    }
    std::string query;
    auto add_param = [&query](const std::string& key, const std::string& value) {
      if (value.empty()) {
        return;
      }
      query += query.empty() ? "?" : "&";
      query += key + "=" + value;
    };
    add_param("tenant", tenant);
    add_param("priority", priority);
    add_param("checkers", checkers);
    add_param("fields", fields);
    request = "POST /check" + query + " HTTP/1.0\r\nContent-Length: " +
              std::to_string(subject.size()) + "\r\nConnection: close\r\n\r\n" + subject;
  }

  std::string response;
  if (!RoundTrip(port, request, &response)) {
    std::fprintf(stderr, "grapple-client: cannot reach 127.0.0.1:%d\n", port);
    return 1;
  }
  // Split the head from the body; the body is forwarded verbatim.
  size_t body_begin = response.find("\r\n\r\n");
  size_t skip = 4;
  if (body_begin == std::string::npos) {
    body_begin = response.find("\n\n");
    skip = 2;
  }
  std::string status_line = response.substr(0, response.find('\n'));
  if (!status_line.empty() && status_line.back() == '\r') {
    status_line.pop_back();
  }
  std::string body =
      body_begin == std::string::npos ? std::string() : response.substr(body_begin + skip);
  bool ok = status_line.find(" 200 ") != std::string::npos;
  if (ok) {
    std::fwrite(body.data(), 1, body.size(), stdout);
    return 0;
  }
  std::fprintf(stderr, "grapple-client: %s\n", status_line.c_str());
  std::fwrite(body.data(), 1, body.size(), stderr);
  return 1;
}
