#include "exec/frame_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/crc32.hpp"
#include "exec/wire_codec.hpp"

namespace occm::exec {

namespace {

std::string errnoString(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Milliseconds left until `deadline`; -1 for "no deadline".
int remainingMs(std::chrono::steady_clock::time_point deadline, bool armed) {
  if (!armed) {
    return -1;
  }
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  return left.count() < 0 ? 0 : static_cast<int>(left.count());
}

}  // namespace

void FrameReassembler::poison(std::size_t offsetInFrame,
                              const std::string& detail, bool truncated) {
  corrupt_ = true;
  error_.byteOffset = consumed_ + offsetInFrame;
  error_.detail = detail;
  error_.truncated = truncated;
}

bool FrameReassembler::feed(std::string_view bytes) {
  if (corrupt_) {
    return false;
  }
  buffer_.append(bytes.data(), bytes.size());
  for (;;) {
    if (buffer_.size() < kFrameHeaderSize) {
      return true;  // wait for a full header
    }
    if (std::memcmp(buffer_.data(), kFrameMagic, sizeof kFrameMagic) != 0) {
      poison(0, "bad frame magic", false);
      return false;
    }
    wire::Reader header(
        std::string_view(buffer_).substr(sizeof kFrameMagic, 4));
    const std::uint32_t length = header.u32();
    if (length > maxPayload_) {
      poison(4,
             "frame length " + std::to_string(length) + " exceeds the " +
                 std::to_string(maxPayload_) + "-byte cap",
             false);
      return false;
    }
    const std::size_t total = kFrameOverhead + length;
    if (buffer_.size() < total) {
      return true;  // wait for the rest of this frame
    }
    const std::string_view payload =
        std::string_view(buffer_).substr(kFrameHeaderSize, length);
    wire::Reader trailer(
        std::string_view(buffer_).substr(kFrameHeaderSize + length, 4));
    const std::uint32_t storedCrc = trailer.u32();
    if (storedCrc != crc32(payload)) {
      poison(kFrameHeaderSize + length, "payload crc mismatch", false);
      error_.crcMismatch = true;
      return false;
    }
    ready_.emplace_back(payload);
    ++framesExtracted_;
    buffer_.erase(0, total);
    consumed_ += total;
  }
}

std::optional<std::string> FrameReassembler::next() {
  if (ready_.empty()) {
    return std::nullopt;
  }
  std::string out = std::move(ready_.front());
  ready_.pop_front();
  return out;
}

FdFrameTransport::FdFrameTransport(int readFd, int writeFd, bool isSocket)
    : readFd_(readFd), writeFd_(writeFd), isSocket_(isSocket) {}

FdFrameTransport::~FdFrameTransport() {
  if (readFd_ >= 0) {
    ::close(readFd_);
  }
  if (writeFd_ >= 0 && writeFd_ != readFd_) {
    ::close(writeFd_);
  }
}

bool sendAllBytes(int fd, std::string_view bytes, bool isSocket,
                  int unwritableTimeoutMs) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n;
    if (isSocket) {
      n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    } else {
      n = ::write(fd, bytes.data() + sent, bytes.size() - sent);
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;  // a signal landed mid-write; the transfer must survive
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Non-blocking fd with a full buffer: wait for drain, bounded — a
        // peer that stays unwritable for the whole window is as good as
        // dead. The poll itself restarts on EINTR.
        struct pollfd pfd;
        pfd.fd = fd;
        pfd.events = POLLOUT;
        pfd.revents = 0;
        int rc;
        do {
          rc = ::poll(&pfd, 1, unwritableTimeoutMs);
        } while (rc < 0 && errno == EINTR);
        if (rc <= 0) {
          return false;
        }
        continue;
      }
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool FdFrameTransport::sendFrame(std::string_view payload) {
  const std::string frame = encodeFrame(payload);
  if (!sendAllBytes(writeFd_, frame, isSocket_)) {
    lastError_ = errnoString("send");
    return false;
  }
  return true;
}

FrameTransport::RecvStatus FdFrameTransport::recvFrame(std::string& payload,
                                                       int timeoutMs) {
  if (auto frame = reassembler_.next()) {
    payload = std::move(*frame);
    return RecvStatus::kFrame;
  }
  const bool armed = timeoutMs >= 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeoutMs);
  char chunk[4096];
  for (;;) {
    struct pollfd pfd;
    pfd.fd = readFd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, remainingMs(deadline, armed));
    if (rc < 0) {
      if (errno == EINTR) {
        continue;
      }
      lastError_ = errnoString("poll");
      return RecvStatus::kError;
    }
    if (rc == 0) {
      return RecvStatus::kTimeout;
    }
    const ssize_t n = ::read(readFd_, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) {
        continue;
      }
      lastError_ = errnoString("read");
      return RecvStatus::kError;
    }
    if (n == 0) {
      return RecvStatus::kClosed;
    }
    rxBytes_ += static_cast<std::uint64_t>(n);
    if (!reassembler_.feed(
            std::string_view(chunk, static_cast<std::size_t>(n)))) {
      lastError_ = reassembler_.error().message();
      return RecvStatus::kCorrupt;
    }
    if (auto frame = reassembler_.next()) {
      payload = std::move(*frame);
      return RecvStatus::kFrame;
    }
  }
}

std::unique_ptr<FrameTransport> makePipeTransport(int readFd, int writeFd) {
  return std::make_unique<FdFrameTransport>(readFd, writeFd,
                                            /*isSocket=*/false);
}

std::unique_ptr<FrameTransport> makeSocketTransport(int fd) {
  return std::make_unique<FdFrameTransport>(fd, fd, /*isSocket=*/true);
}

Expected<int, std::string> listenTcp(const std::string& host, int port,
                                     int* boundPort) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return makeUnexpected(errnoString("socket"));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return makeUnexpected("bad listen address '" + host + "'");
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    const std::string err = errnoString("bind");
    ::close(fd);
    return makeUnexpected(err);
  }
  if (::listen(fd, 16) < 0) {
    const std::string err = errnoString("listen");
    ::close(fd);
    return makeUnexpected(err);
  }
  if (boundPort != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      *boundPort = ntohs(bound.sin_port);
    }
  }
  return fd;
}

Expected<int, std::string> connectTcp(const std::string& host, int port,
                                      int timeoutMs) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return makeUnexpected(errnoString("socket"));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return makeUnexpected("bad connect address '" + host + "'");
  }
  // Non-blocking connect so the timeout is enforceable, then back to
  // blocking for the framed exchange.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr);
  if (rc < 0 && errno != EINPROGRESS) {
    const std::string err = errnoString("connect");
    ::close(fd);
    return makeUnexpected(err);
  }
  if (rc < 0) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLOUT;
    pfd.revents = 0;
    do {
      rc = ::poll(&pfd, 1, timeoutMs);
    } while (rc < 0 && errno == EINTR);
    if (rc <= 0) {
      ::close(fd);
      return makeUnexpected(rc == 0 ? std::string("connect timed out")
                                    : errnoString("poll"));
    }
    int soError = 0;
    socklen_t len = sizeof soError;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soError, &len) < 0) {
      soError = errno;
    }
    if (soError != 0) {
      ::close(fd);
      errno = soError;  // same "connect: <reason>" as a synchronous failure
      return makeUnexpected(errnoString("connect"));
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

}  // namespace occm::exec
