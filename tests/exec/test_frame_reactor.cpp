// FrameReactor over loopback sockets: the accept drain and its cap, the
// cross-thread wake, the half-close rule that keeps the loop from
// spinning, corrupt-stream teardown, connection ids that are never
// reused, and the output path: TCP_NODELAY on accepted sockets, each
// drain's replies corked into shared segments, and a peer that never
// reads dropped after one unwritable window.

#include "exec/frame_reactor.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <linux/tcp.h>  // struct tcp_info with tcpi_data_segs_out
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/ipc.hpp"

namespace occm::exec {
namespace {

using namespace std::chrono_literals;

struct Tag {
  int frames = 0;
};
using Reactor = FrameReactor<Tag>;

struct Observed {
  int frames = 0;
  int closed = 0;
  int corrupt = 0;
  int errors = 0;
};

Reactor::EventHandler record(Observed& seen) {
  return [&seen](Reactor::Connection& conn, ReactorEvent event,
                 std::string&) {
    switch (event) {
      case ReactorEvent::kFrame: ++seen.frames; ++conn.state.frames; break;
      case ReactorEvent::kClosed: ++seen.closed; break;
      case ReactorEvent::kCorrupt: ++seen.corrupt; break;
      case ReactorEvent::kError: ++seen.errors; break;
      case ReactorEvent::kTimeout:
        ADD_FAILURE() << "timeouts are never handed out";
        break;
    }
  };
}

int listenOn(Reactor& reactor) {
  const auto port = reactor.listen("127.0.0.1", 0);
  EXPECT_TRUE(port) << port.error();
  return port ? *port : 0;
}

int dial(int port) {
  auto fd = connectTcp("127.0.0.1", port, 5'000);
  EXPECT_TRUE(fd) << fd.error();
  return fd ? *fd : -1;
}

/// Turns until `done` holds or two seconds pass.
template <typename Done>
bool turnUntil(Reactor& reactor, const Reactor::EventHandler& onEvent,
               Done done) {
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    if (!reactor.turn(std::nullopt, onEvent)) {
      return false;
    }
  }
  return true;
}

/// True once the peer closed on us (EOF or reset) within `timeoutMs`.
bool peerClosed(int fd, int timeoutMs) {
  struct pollfd p = {fd, POLLIN, 0};
  if (::poll(&p, 1, timeoutMs) <= 0) {
    return false;
  }
  char byte = 0;
  const ssize_t n = ::read(fd, &byte, 1);
  return n == 0 || (n < 0 && errno != EAGAIN);
}

double msSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(FrameReactor, AcceptDrainsToEagainAndCountsRefusals) {
  Reactor reactor(/*maxConnections=*/2, nullptr);
  const int port = listenOn(reactor);
  std::vector<int> clients;
  for (int i = 0; i < 5; ++i) {
    clients.push_back(dial(port));
  }
  // Every dial completed its kernel handshake before the turn, so one
  // accept drain must see all five: two admitted, three refused.
  Observed seen;
  ASSERT_TRUE(turnUntil(reactor, record(seen), [&] {
    return reactor.accepted() + reactor.refused() == 5;
  }));
  EXPECT_EQ(reactor.accepted(), 2u);
  EXPECT_EQ(reactor.refused(), 3u);
  EXPECT_EQ(reactor.connections().size(), 2u);
  int closedAtDoor = 0;
  for (const int fd : clients) {
    closedAtDoor += peerClosed(fd, 200) ? 1 : 0;
    ::close(fd);
  }
  EXPECT_EQ(closedAtDoor, 3);
}

TEST(FrameReactor, WakeFromAnotherThreadEndsThePollEarly) {
  Reactor reactor(8, nullptr);
  listenOn(reactor);
  Observed seen;
  // Without a wake, an idle turn sleeps out the full liveness floor.
  auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(reactor.turn(std::nullopt, record(seen)));
  EXPECT_GE(msSince(t0), 40.0);

  // A wake posted from another thread mid-poll cuts it short. The best
  // of three attempts tolerates one unlucky scheduling hiccup.
  double best = 1e9;
  for (int attempt = 0; attempt < 3; ++attempt) {
    std::thread waker([&reactor] {
      std::this_thread::sleep_for(5ms);
      reactor.wake();
    });
    t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(reactor.turn(std::nullopt, record(seen)));
    best = std::min(best, msSince(t0));
    waker.join();
  }
  EXPECT_LT(best, 40.0);
}

TEST(FrameReactor, HalfClosedIdlePeerDoesNotSpinThePoll) {
  Reactor reactor(8, nullptr);
  const int port = listenOn(reactor);
  const int client = dial(port);
  ASSERT_EQ(::shutdown(client, SHUT_WR), 0);

  Observed seen;
  ASSERT_TRUE(turnUntil(reactor, record(seen), [&] {
    return seen.closed == 1;
  }));
  ASSERT_EQ(reactor.connections().size(), 1u);
  const Reactor::Connection& conn = reactor.connections().begin()->second;
  EXPECT_TRUE(conn.readEof);
  EXPECT_FALSE(conn.dead);

  // The EOF stays readable forever; were it still polled, every turn
  // would return at once. It is not, so the turn sleeps its full floor.
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(reactor.turn(std::nullopt, record(seen)));
  EXPECT_GE(msSince(t0), 40.0);
  EXPECT_EQ(seen.closed, 1);

  // The connection stays writable for answers still owed to the peer.
  EXPECT_TRUE(reactor.connections().begin()->second.transport->sendFrame(
      "late answer"));
  ::close(client);
}

TEST(FrameReactor, CorruptStreamIsOneEventThenReapedAndClosed) {
  Reactor reactor(8, nullptr);
  const int port = listenOn(reactor);
  const int client = dial(port);
  const std::string good = encodeFrame("good");
  ASSERT_EQ(::send(client, good.data(), good.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(good.size()));
  Observed seen;
  ASSERT_TRUE(turnUntil(reactor, record(seen), [&] {
    return seen.frames == 1;
  }));
  EXPECT_EQ(reactor.connections().begin()->second.state.frames, 1);
  const int serverFd = reactor.connections().begin()->second.fd;

  std::string bad = encodeFrame("bad");
  bad.back() ^= 0x01;  // CRC trailer
  bad += encodeFrame("never delivered");
  ASSERT_EQ(::send(client, bad.data(), bad.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bad.size()));
  ASSERT_TRUE(turnUntil(reactor, record(seen), [&] {
    return reactor.connections().empty();
  }));
  EXPECT_EQ(seen.frames, 1);
  EXPECT_EQ(seen.corrupt, 1);
  EXPECT_EQ(seen.closed + seen.errors, 0);
  // The transport closed the server side: the fd is gone and the peer
  // sees the connection end.
  EXPECT_EQ(::fcntl(serverFd, F_GETFD), -1);
  EXPECT_TRUE(peerClosed(client, 2'000));
  ::close(client);
}

TEST(FrameReactor, ConnectionIdsAreNeverReused) {
  std::vector<std::uint64_t> factoryIds;
  Reactor reactor(8, [&](int fd, std::uint64_t id) {
    factoryIds.push_back(id);
    return makeSocketTransport(fd);
  });
  const int port = listenOn(reactor);
  Observed seen;
  std::set<std::uint64_t> tableIds;
  for (int round = 0; round < 4; ++round) {
    // One connection at a time: the kernel hands the same fd number back
    // each round once the previous connection is reaped.
    const int client = dial(port);
    ASSERT_TRUE(turnUntil(reactor, record(seen), [&] {
      return reactor.connections().size() == 1;
    }));
    auto& conn = reactor.connections().begin()->second;
    EXPECT_EQ(conn.id, reactor.connections().begin()->first);
    tableIds.insert(conn.id);
    conn.dead = true;
    ASSERT_TRUE(turnUntil(reactor, record(seen), [&] {
      return reactor.connections().empty();
    }));
    ::close(client);
  }
  EXPECT_EQ(tableIds.size(), 4u);
  EXPECT_EQ(factoryIds, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(FrameReactor, AcceptedSocketsHaveNagleOff) {
  std::vector<int> nodelay;
  Reactor reactor(8, [&](int fd, std::uint64_t) {
    int on = 0;
    socklen_t len = sizeof on;
    EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, &len), 0);
    nodelay.push_back(on);
    return makeSocketTransport(fd);
  });
  const int port = listenOn(reactor);
  const int first = dial(port);
  const int second = dial(port);
  Observed seen;
  ASSERT_TRUE(turnUntil(reactor, record(seen), [&] {
    return reactor.accepted() == 2;
  }));
  EXPECT_EQ(nodelay, (std::vector<int>{1, 1}));
  ::close(first);
  ::close(second);
}

/// Data segments the kernel has sent on `fd` so far.
std::uint32_t dataSegmentsOut(int fd) {
  struct tcp_info info = {};
  socklen_t len = sizeof info;
  EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_INFO, &info, &len), 0);
  return info.tcpi_data_segs_out;
}

/// Writes `payloads` as frames in one send(2), so one drain sees them all.
void sendInOneWrite(int fd, const std::vector<std::string>& payloads) {
  std::string bytes;
  for (const std::string& payload : payloads) {
    bytes += encodeFrame(payload);
  }
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

/// Answers every frame with "re:" + payload on the same connection.
Reactor::EventHandler echo(Observed& seen) {
  return [&seen, recordIt = record(seen)](Reactor::Connection& conn,
                                          ReactorEvent event,
                                          std::string& payload) {
    recordIt(conn, event, payload);
    if (event == ReactorEvent::kFrame) {
      EXPECT_TRUE(conn.send("re:" + payload));
    }
  };
}

TEST(FrameReactor, OneDrainsRepliesShareOneSegment) {
  Reactor reactor(8, nullptr);
  const int port = listenOn(reactor);
  auto client = makeSocketTransport(dial(port));
  Observed seen;
  ASSERT_TRUE(turnUntil(reactor, echo(seen), [&] {
    return reactor.connections().size() == 1;
  }));
  const int serverFd = reactor.connections().begin()->second.fd;
  const std::uint32_t before = dataSegmentsOut(serverFd);

  std::vector<std::string> requests;
  for (int i = 0; i < 8; ++i) {
    requests.push_back("q" + std::to_string(i));
  }
  sendInOneWrite(client->pollFd(), requests);
  ASSERT_TRUE(turnUntil(reactor, echo(seen), [&] { return seen.frames == 8; }));
  for (const std::string& request : requests) {
    std::string got;
    ASSERT_EQ(client->recvFrame(got, 2'000),
              FrameTransport::RecvStatus::kFrame);
    EXPECT_EQ(got, "re:" + request);
  }
  // Eight sends, one segment: with Nagle off and the socket uncorked,
  // each send would have left as a segment of its own.
  EXPECT_EQ(dataSegmentsOut(serverFd) - before, 1u);

  // Outside a drain a send is not held back: it leaves at once.
  ASSERT_TRUE(reactor.connections().begin()->second.send("unprompted"));
  EXPECT_EQ(dataSegmentsOut(serverFd) - before, 2u);
  std::string got;
  ASSERT_EQ(client->recvFrame(got, 2'000), FrameTransport::RecvStatus::kFrame);
  EXPECT_EQ(got, "unprompted");
}

TEST(FrameReactor, ReplySentBeforeTheLinkDiesStillReachesThePeer) {
  Reactor reactor(8, nullptr);
  const int port = listenOn(reactor);
  auto client = makeSocketTransport(dial(port));
  Observed seen;
  const Reactor::EventHandler rejectAndDrop =
      [&seen, recordIt = record(seen)](Reactor::Connection& conn,
                                       ReactorEvent event,
                                       std::string& payload) {
        recordIt(conn, event, payload);
        if (event == ReactorEvent::kFrame) {
          EXPECT_TRUE(conn.send("rejected: " + payload));
          conn.dead = true;
          EXPECT_FALSE(conn.send("after the drop"));
        }
      };
  ASSERT_TRUE(turnUntil(reactor, rejectAndDrop, [&] {
    return reactor.connections().size() == 1;
  }));
  sendInOneWrite(client->pollFd(), {"hello"});
  ASSERT_TRUE(turnUntil(reactor, rejectAndDrop, [&] {
    return reactor.connections().empty();
  }));
  EXPECT_EQ(seen.frames, 1);

  std::string got;
  ASSERT_EQ(client->recvFrame(got, 2'000), FrameTransport::RecvStatus::kFrame);
  EXPECT_EQ(got, "rejected: hello");
  EXPECT_EQ(client->recvFrame(got, 2'000),
            FrameTransport::RecvStatus::kClosed);
}

TEST(FrameReactor, PeerThatNeverReadsIsDroppedNotBuffered) {
  // A small send buffer, so the server stalls after a few replies rather
  // than after megabytes.
  Reactor reactor(8, [](int fd, std::uint64_t) {
    const int small = 4 * 1024;
    EXPECT_EQ(::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &small, sizeof small),
              0);
    return makeSocketTransport(fd);
  });
  const int port = listenOn(reactor);
  const int clientFd = dial(port);
  Observed seen;
  int sent = 0;
  int failed = 0;
  const Reactor::EventHandler echoBack =
      [&, recordIt = record(seen)](Reactor::Connection& conn,
                                   ReactorEvent event, std::string& payload) {
        recordIt(conn, event, payload);
        if (event == ReactorEvent::kFrame) {
          ++(conn.send(payload) ? sent : failed);
        }
      };
  ASSERT_TRUE(turnUntil(reactor, echoBack, [&] {
    return reactor.connections().size() == 1;
  }));

  // Pipelined requests as fast as the socket takes them, and not one
  // reply read.
  std::atomic<bool> stop{false};
  std::thread flood([&] {
    const std::string frame = encodeFrame(std::string(16 * 1024, 'f'));
    std::size_t offset = 0;
    while (!stop) {
      const ssize_t n = ::send(clientFd, frame.data() + offset,
                               frame.size() - offset,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        offset = (offset + static_cast<std::size_t>(n)) % frame.size();
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        std::this_thread::sleep_for(1ms);
      } else {
        break;  // the server dropped us
      }
    }
  });

  // The reply that finds the socket full stalls for one unwritable
  // window and then fails: the link dies, and no reply waits anywhere
  // but in the kernel's bounded buffers.
  const auto t0 = std::chrono::steady_clock::now();
  while (!reactor.connections().empty() && msSince(t0) < 30'000) {
    ASSERT_TRUE(reactor.turn(std::nullopt, echoBack));
  }
  stop = true;
  flood.join();
  ::close(clientFd);
  EXPECT_TRUE(reactor.connections().empty());
  EXPECT_EQ(failed, 1);
  EXPECT_GT(sent, 0);
  EXPECT_EQ(seen.closed + seen.corrupt + seen.errors, 0);
}

}  // namespace
}  // namespace occm::exec
