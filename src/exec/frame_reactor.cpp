#include "exec/frame_reactor.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace occm::exec {

namespace {

void setNonBlocking(int fd) {
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
}

void setTcpOption(int fd, int option, int value) {
  ::setsockopt(fd, IPPROTO_TCP, option, &value, sizeof value);
}

}  // namespace

bool ReactorLink::send(std::string_view payload) {
  if (!dead && !transport->sendFrame(payload)) {
    dead = true;
  }
  return !dead;
}

FrameReactorBase::FrameReactorBase(std::size_t maxConnections,
                                   TransportFactory factory)
    : maxConnections_(maxConnections), factory_(std::move(factory)) {}

FrameReactorBase::~FrameReactorBase() {
  for (const int fd : {listenFd_, wakeRead_, wakeWrite_}) {
    if (fd >= 0) {
      ::close(fd);
    }
  }
}

Expected<int, std::string> FrameReactorBase::listen(const std::string& host,
                                                    int port) {
  int boundPort = 0;
  auto listened = listenTcp(host, port, &boundPort);
  if (!listened) {
    return makeUnexpected(listened.error());
  }
  listenFd_ = *listened;
  int wakePipe[2] = {-1, -1};
  if (::pipe(wakePipe) != 0) {
    return makeUnexpected(std::string("pipe: ") + std::strerror(errno));
  }
  wakeRead_ = wakePipe[0];
  wakeWrite_ = wakePipe[1];
  // Non-blocking accepts: the accept drain must stop at EAGAIN, not park
  // the whole loop inside accept(2).
  for (const int fd : {listenFd_, wakeRead_, wakeWrite_}) {
    setNonBlocking(fd);
  }
  return boundPort;
}

void FrameReactorBase::stopListening() {
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }
}

void FrameReactorBase::wake() {
  const char byte = 1;
  // Best effort: a full pipe already guarantees a pending wakeup.
  (void)!::write(wakeWrite_, &byte, 1);
}

std::uint64_t FrameReactorBase::nowNs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

bool FrameReactorBase::pollAcceptDrain(
    const std::vector<ReactorLink*>& watched,
    std::optional<std::uint64_t> untilDeadlineMs, std::size_t live,
    const Admit& admit, const OnLinkEvent& onEvent) {
  std::vector<struct pollfd> fds;
  fds.reserve(watched.size() + 2);
  fds.push_back({wakeRead_, POLLIN, 0});
  fds.push_back({listenFd_, POLLIN, 0});  // -1 after stopListening: skipped
  for (const ReactorLink* link : watched) {
    fds.push_back({link->fd, POLLIN, 0});
  }
  const std::uint64_t timeout =
      std::min(untilDeadlineMs.value_or(kMaxPollMs), kMaxPollMs);
  const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                        static_cast<int>(timeout));
  if (rc < 0 && errno != EINTR) {
    lastError_ = std::string("poll: ") + std::strerror(errno);
    return false;
  }
  if (rc <= 0) {
    return true;
  }
  if ((fds[0].revents & POLLIN) != 0) {
    char sink[256];
    while (::read(wakeRead_, sink, sizeof sink) > 0) {
    }
  }
  while ((fds[1].revents & POLLIN) != 0) {
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      break;
    }
    if (live >= maxConnections_) {
      // Admission control under a reconnect storm: refuse at the door so
      // live sessions keep their poll budget. The peer sees an orderly
      // close and backs off through its own policy.
      ::close(fd);
      ++refused_;
      continue;
    }
    setNonBlocking(fd);
    // Answers are small and latency-bound: with Nagle on, each one would
    // wait behind the peer's delayed ACK.
    setTcpOption(fd, TCP_NODELAY, 1);
    const std::uint64_t id = accepted_++;
    ReactorLink& link = admit(id);
    link.id = id;
    link.fd = fd;
    link.transport = factory_ ? factory_(fd, id) : makeSocketTransport(fd);
    link.acceptedAtMs = link.lastProgressMs = nowMs();
    ++live;
  }
  for (std::size_t i = 0; i < watched.size(); ++i) {
    if ((fds[i + 2].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
      continue;
    }
    // Drain without blocking: a zero-timeout recvFrame pops buffered
    // frames, then reads until the socket would block.
    ReactorLink& link = *watched[i];
    const std::uint64_t rxBefore = link.transport->bytesReceived();
    std::string payload;
    // Corked for the drain, so the replies it provokes share segments
    // instead of leaving one per frame; uncorking pushes them out.
    setTcpOption(link.fd, TCP_CORK, 1);
    for (;;) {
      const ReactorEvent event = link.transport->recvFrame(payload, 0);
      if (event == ReactorEvent::kTimeout) {
        break;
      }
      if (event == ReactorEvent::kClosed) {
        link.readEof = true;
      } else if (event != ReactorEvent::kFrame) {
        // A corrupt stream is never resynchronized: a flipped length
        // field makes every later frame boundary untrustworthy.
        link.dead = true;
      }
      onEvent(link, event, payload);
      if (event != ReactorEvent::kFrame || link.dead) {
        break;
      }
    }
    setTcpOption(link.fd, TCP_CORK, 0);
    if (link.transport->bytesReceived() != rxBefore) {
      link.lastProgressMs = nowMs();
    }
  }
  return true;
}

}  // namespace occm::exec
