// grappled: the long-lived multi-tenant analysis daemon (DESIGN.md §15).
//
// Serves POST /check (subject IR as the body, tenant/priority/checkers as
// query parameters) plus the live introspection pages (/healthz /statusz
// /metricsz /tracez /varz /profilez) on one loopback port. Requests pass
// admission control (bounded, tenant-fair), a checker-slot arbiter, and a
// session cache that keeps hot subjects' phase-1 alias state resident —
// see src/service/service.h for the protocol and fairness contracts.
//
//   $ grappled --port 0 --port-file /tmp/grappled.port &
//   $ grapple-client --port $(cat /tmp/grappled.port) --tenant ci
//       --fields reports subject.grap
//
// Defaults come from ServiceOptions::FromEnv() (GRAPPLE_SERVICE_PORT,
// GRAPPLE_MAX_RESIDENT_SESSIONS, GRAPPLE_ADMISSION_QUEUE); flags override.
// SIGTERM/SIGINT trigger a graceful shutdown: new requests get 503, queued
// requests are failed, in-flight checks finish, session work dirs and the
// daemon's work root are removed, and the process exits 0. Exit codes:
// 0 clean shutdown, 1 startup failure, 2 usage error (including a count
// flag — --max-sessions, --admission, --slots, --workers — that is not a
// positive integer).
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/obs/report.h"
#include "src/service/service.h"
#include "src/support/byte_io.h"
#include "src/support/socket_server.h"

namespace {

// Self-pipe for signal-safe shutdown: the handler writes one byte, main
// blocks reading it.
int g_shutdown_pipe[2] = {-1, -1};

void OnSignal(int /*signo*/) {
  char byte = 0;
  [[maybe_unused]] ssize_t n = ::write(g_shutdown_pipe[1], &byte, 1);
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--port-file path] [--work-root dir]\n"
               "          [--max-sessions N] [--admission N] [--slots N] [--workers N]\n",
               argv0);
  return 2;
}

// Strict positive count: digits only, no sign, no trailing junk, > 0.
bool ParseCount(const char* text, size_t* out) {
  if (*text < '0' || *text > '9') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || value == 0) {
    return false;
  }
  *out = static_cast<size_t>(value);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  grapple::ServiceOptions options = grapple::ServiceOptions::FromEnv();
  std::string port_file;
  for (int i = 1; i < argc; ++i) {
    auto flag_value = [&](const char* flag, const char** value) {
      if (std::strcmp(argv[i], flag) != 0) {
        return false;
      }
      if (i + 1 >= argc) {
        *value = nullptr;
        return true;
      }
      *value = argv[++i];
      return true;
    };
    const char* value = nullptr;
    size_t* count = nullptr;
    if (flag_value("--port", &value)) {
      if (value == nullptr) return Usage(argv[0]);
      if (!grapple::ParsePort(value, &options.port)) {
        std::fprintf(stderr, "grappled: --port must be an integer in [0, 65535], got '%s'\n",
                     value);
        return 2;
      }
    } else if (flag_value("--port-file", &value)) {
      if (value == nullptr) return Usage(argv[0]);
      port_file = value;
    } else if (flag_value("--work-root", &value)) {
      if (value == nullptr) return Usage(argv[0]);
      options.work_root = value;
    } else if (flag_value("--max-sessions", &value)) {
      count = &options.max_resident_sessions;
    } else if (flag_value("--admission", &value)) {
      count = &options.admission_capacity;
    } else if (flag_value("--slots", &value)) {
      count = &options.checker_slots;
    } else if (flag_value("--workers", &value)) {
      count = &options.worker_threads;
    } else {
      return Usage(argv[0]);
    }
    if (count != nullptr) {
      if (value == nullptr) return Usage(argv[0]);
      if (!ParseCount(value, count)) {
        std::fprintf(stderr, "grappled: %s must be a positive integer, got '%s'\n",
                     argv[i - 1], value);
        return 2;
      }
    }
  }

  if (::pipe(g_shutdown_pipe) != 0) {
    std::fprintf(stderr, "grappled: pipe failed: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction action {};
  action.sa_handler = OnSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  // A client hanging up mid-response must not kill the daemon.
  ::signal(SIGPIPE, SIG_IGN);

  grapple::GrappleService service(options);
  std::string error;
  if (!service.Start(&error)) {
    std::fprintf(stderr, "grappled: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "grappled: listening on 127.0.0.1:%d work_root=%s\n", service.port(),
               service.work_root().c_str());
  if (!port_file.empty()) {
    // Written after the listener is live, so `cat port-file` in a script
    // always yields a connectable port.
    if (!grapple::obs::WriteTextFile(port_file, std::to_string(service.port()) + "\n")) {
      std::fprintf(stderr, "grappled: cannot write port file %s\n", port_file.c_str());
      service.Shutdown();
      return 1;
    }
  }

  // Block until SIGTERM/SIGINT.
  char byte = 0;
  while (::read(g_shutdown_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::fprintf(stderr, "grappled: shutting down\n");
  service.Shutdown();
  if (!port_file.empty()) {
    grapple::RemoveFile(port_file);
  }
  std::fprintf(stderr, "grappled: bye\n");
  return 0;
}
