// Regression tests for the loopback HTTP listener: concurrent connection
// handling (a long render in flight must not make later requests observe
// connection resets) and Content-Length body parsing.
#include "src/support/socket_server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

namespace grapple {
namespace {

// Minimal blocking HTTP/1.0 client: sends one request, reads to EOF.
// Returns false when the connection failed or was reset before a full
// response arrived.
bool HttpRoundTrip(int port, const std::string& request, std::string* response) {
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
  response->clear();
  char buffer[4096];
  for (;;) {
    ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      ::close(fd);
      return false;  // ECONNRESET lands here
    }
    if (n == 0) {
      break;
    }
    response->append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return !response->empty();
}

std::string SimpleGet(const std::string& path) {
  return "GET " + path + " HTTP/1.0\r\n\r\n";
}

// grappled and grapple-client share this parser for --port.
TEST(SocketServerTest, ParsePortIsStrict) {
  int port = -1;
  EXPECT_TRUE(ParsePort("0", &port));  // explicit ephemeral request
  EXPECT_EQ(port, 0);
  EXPECT_TRUE(ParsePort("8437", &port));
  EXPECT_EQ(port, 8437);
  EXPECT_TRUE(ParsePort("65535", &port));
  EXPECT_EQ(port, 65535);
  for (const char* bad : {"", "abc", "80x", " 80", "+80", "-1", "65536", "99999999999"}) {
    port = 7;
    EXPECT_FALSE(ParsePort(bad, &port)) << "'" << bad << "'";
    EXPECT_EQ(port, 7) << "'" << bad << "' must leave the port untouched";
  }
}

TEST(SocketServerTest, ServesBasicGet) {
  SocketServer server;
  std::string error;
  ASSERT_TRUE(server.Start(
      0,
      [](const HttpRequest& req) {
        HttpResponse resp;
        resp.body = "path=" + req.path + " query=" + req.query + "\n";
        return resp;
      },
      &error))
      << error;
  std::string response;
  ASSERT_TRUE(HttpRoundTrip(server.port(), SimpleGet("/statusz?name=x"), &response));
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("path=/statusz query=name=x"), std::string::npos);
  server.Stop();
}

TEST(SocketServerTest, PostBodyIsDeliveredPerContentLength) {
  SocketServer server;
  std::string error;
  ASSERT_TRUE(server.Start(
      0,
      [](const HttpRequest& req) {
        HttpResponse resp;
        resp.body = req.method + ":" + std::to_string(req.body.size()) + ":" + req.body;
        return resp;
      },
      &error))
      << error;
  std::string body = "method main() {\n  return\n}\n";
  std::string request = "POST /check HTTP/1.0\r\nContent-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body;
  std::string response;
  ASSERT_TRUE(HttpRoundTrip(server.port(), request, &response));
  EXPECT_NE(response.find("POST:" + std::to_string(body.size()) + ":" + body),
            std::string::npos);
  server.Stop();
}

// The regression this file exists for: while one handler is stuck in a long
// render (the old single-threaded accept loop never got back to accept()),
// new requests must still be answered, not reset.
TEST(SocketServerTest, SlowRequestDoesNotBlockConcurrentOnes) {
  std::atomic<int> slow_started{0};
  SocketServer server;
  std::string error;
  ASSERT_TRUE(server.Start(
      0,
      [&](const HttpRequest& req) {
        HttpResponse resp;
        if (req.path == "/slow") {
          slow_started.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(700));
          resp.body = "slow\n";
        } else {
          resp.body = "fast\n";
        }
        return resp;
      },
      &error, /*handler_threads=*/4))
      << error;

  int port = server.port();
  std::thread slow([&] {
    std::string response;
    EXPECT_TRUE(HttpRoundTrip(port, SimpleGet("/slow"), &response));
    EXPECT_NE(response.find("slow"), std::string::npos);
  });
  // Wait until the slow handler is actually inside its render.
  while (slow_started.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  auto begin = std::chrono::steady_clock::now();
  for (int i = 0; i < 3; ++i) {
    std::string response;
    ASSERT_TRUE(HttpRoundTrip(port, SimpleGet("/fast"), &response))
        << "request " << i << " while /slow in flight";
    EXPECT_NE(response.find("fast"), std::string::npos);
  }
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - begin)
                          .count();
  // The fast requests completed while /slow still held its handler thread.
  EXPECT_LT(elapsed_ms, 600) << "fast requests were serialized behind /slow";
  slow.join();
  server.Stop();
}

// Even with every handler thread busy, further connections queue in the
// accept backlog and complete (slower, never reset).
TEST(SocketServerTest, BacklogAbsorbsBurstsBeyondThePool) {
  SocketServer server;
  std::string error;
  ASSERT_TRUE(server.Start(
      0,
      [](const HttpRequest&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        HttpResponse resp;
        resp.body = "ok\n";
        return resp;
      },
      &error, /*handler_threads=*/2))
      << error;
  int port = server.port();
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int i = 0; i < 12; ++i) {
    clients.emplace_back([&] {
      std::string response;
      if (HttpRoundTrip(port, SimpleGet("/"), &response) &&
          response.find("200 OK") != std::string::npos) {
        ok.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  EXPECT_EQ(ok.load(), 12);
  server.Stop();
}

TEST(SocketServerTest, MalformedRequestLineGets400) {
  SocketServer server;
  std::string error;
  ASSERT_TRUE(server.Start(
      0,
      [](const HttpRequest&) {
        HttpResponse resp;
        resp.body = "ok\n";
        return resp;
      },
      &error))
      << error;
  std::string response;
  ASSERT_TRUE(HttpRoundTrip(server.port(), "garbage\r\n\r\n", &response));
  EXPECT_NE(response.find("400"), std::string::npos);
  server.Stop();
}

TEST(SocketServerTest, StopIsIdempotentAndRestartable) {
  SocketServer server;
  std::string error;
  ASSERT_TRUE(server.Start(
      0,
      [](const HttpRequest&) {
        HttpResponse resp;
        resp.body = "ok\n";
        return resp;
      },
      &error));
  server.Stop();
  server.Stop();
  EXPECT_FALSE(server.running());
  ASSERT_TRUE(server.Start(
      0,
      [](const HttpRequest&) {
        HttpResponse resp;
        resp.body = "again\n";
        return resp;
      },
      &error))
      << error;
  std::string response;
  ASSERT_TRUE(HttpRoundTrip(server.port(), SimpleGet("/"), &response));
  EXPECT_NE(response.find("again"), std::string::npos);
  server.Stop();
}

}  // namespace
}  // namespace grapple
