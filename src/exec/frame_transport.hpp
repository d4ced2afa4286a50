#pragma once

// The one reader and writer of exec/ipc's length-prefixed CRC-32 frames:
// a FrameReassembler that accepts arbitrary chunks (sockets and pipes
// fragment and coalesce at will) and yields complete validated payloads,
// plus a FrameTransport abstraction with pipe and socket implementations
// for blocking framed message exchange with deadlines. The fleet, the
// advisor server and the isolation result pipe all frame through here.
//
// Robustness contract:
//  - Every header field is validated before its payload is buffered; a
//    declared length above the max-frame guard is rejected immediately
//    (no allocation proportional to attacker-controlled bytes).
//  - Any deviation (bad magic, oversized length, CRC mismatch) poisons
//    the reassembler with a typed IpcError naming the byte offset in the
//    stream; the owner drops the connection — a corrupt stream is never
//    resynchronized, because a flipped length field makes every later
//    frame boundary untrustworthy.
//  - No exception is ever thrown on bad bytes; fuzz/fuzz_wire_message.cpp
//    drives feed() with libFuzzer.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/expected.hpp"
#include "exec/ipc.hpp"

namespace occm::exec {

/// Incremental frame parser over an untrusted byte stream.
class FrameReassembler {
 public:
  explicit FrameReassembler(std::uint32_t maxPayload = kMaxFramePayload)
      : maxPayload_(maxPayload) {}

  /// Appends stream bytes and extracts every complete frame. Returns
  /// false once the stream is poisoned (corrupt() / error() explain);
  /// further feeds are ignored.
  bool feed(std::string_view bytes);

  /// Next complete payload in arrival order, or nullopt.
  [[nodiscard]] std::optional<std::string> next();

  [[nodiscard]] bool corrupt() const noexcept { return corrupt_; }
  [[nodiscard]] const IpcError& error() const noexcept { return error_; }
  /// Bytes buffered awaiting a complete frame (bounded by the max-frame
  /// guard plus one read chunk).
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buffer_.size();
  }
  [[nodiscard]] std::size_t framesExtracted() const noexcept {
    return framesExtracted_;
  }

 private:
  void poison(std::size_t offsetInFrame, const std::string& detail,
              bool truncated);

  std::uint32_t maxPayload_;
  std::string buffer_;
  std::deque<std::string> ready_;
  /// Bytes consumed from the stream before the frame currently being
  /// assembled — error offsets name a position in the whole stream.
  std::size_t consumed_ = 0;
  std::size_t framesExtracted_ = 0;
  bool corrupt_ = false;
  IpcError error_;
};

/// Blocking framed message exchange over a byte stream. One frame per
/// send; receive polls with a deadline so callers can interleave
/// heartbeats and liveness checks with message waits.
class FrameTransport {
 public:
  enum class RecvStatus : std::uint8_t {
    kFrame,    ///< a complete validated payload was produced
    kTimeout,  ///< the deadline passed with no complete frame
    kClosed,   ///< orderly EOF from the peer
    kCorrupt,  ///< the stream failed frame validation (see lastError)
    kError,    ///< I/O error (see lastError)
  };

  virtual ~FrameTransport() = default;

  /// Sends one complete frame (blocking until written or failed).
  /// Returns false on peer loss or I/O error; never raises SIGPIPE.
  virtual bool sendFrame(std::string_view payload) = 0;

  /// Waits up to `timeoutMs` (< 0 = forever) for the next frame.
  virtual RecvStatus recvFrame(std::string& payload, int timeoutMs) = 0;

  /// Human-readable diagnosis of the last kCorrupt/kError/send failure.
  [[nodiscard]] virtual std::string lastError() const = 0;

  /// Read-side fd for event-loop poll sets; -1 when not fd-backed.
  [[nodiscard]] virtual int pollFd() const noexcept { return -1; }

  /// Raw bytes received off the wire so far (pre-framing). Event loops
  /// watch this to distinguish a quiet peer from a stalled one.
  [[nodiscard]] virtual std::uint64_t bytesReceived() const noexcept {
    return 0;
  }

  /// Bytes buffered mid-frame awaiting completion — nonzero means the
  /// peer started a frame it has not finished (the slowloris signature).
  [[nodiscard]] virtual std::size_t partialBytes() const noexcept {
    return 0;
  }
};

/// Builds the framed transport for a freshly accepted or connected
/// socket fd (the factory takes ownership of the fd). `connectionId` is
/// a stable per-connection ordinal so seeded fault schedules decorrelate
/// across connections while each stays reproducible. A null factory
/// means makeSocketTransport — the default, chaos-free path.
using TransportFactory = std::function<std::unique_ptr<FrameTransport>(
    int fd, std::uint64_t connectionId)>;

/// FrameTransport over file descriptors — the pipe and socket
/// implementations differ only in construction (a pipe has distinct
/// read/write fds, a socket one duplex fd) and in SIGPIPE suppression.
class FdFrameTransport final : public FrameTransport {
 public:
  /// Takes ownership of the fds; closes them on destruction. Pass the
  /// same fd twice for a duplex socket. `isSocket` selects
  /// send(MSG_NOSIGNAL) over write().
  FdFrameTransport(int readFd, int writeFd, bool isSocket);
  ~FdFrameTransport() override;

  FdFrameTransport(const FdFrameTransport&) = delete;
  FdFrameTransport& operator=(const FdFrameTransport&) = delete;

  bool sendFrame(std::string_view payload) override;
  RecvStatus recvFrame(std::string& payload, int timeoutMs) override;
  [[nodiscard]] std::string lastError() const override { return lastError_; }
  [[nodiscard]] int pollFd() const noexcept override { return readFd_; }
  [[nodiscard]] std::uint64_t bytesReceived() const noexcept override {
    return rxBytes_;
  }
  [[nodiscard]] std::size_t partialBytes() const noexcept override {
    return reassembler_.buffered();
  }

 private:
  int readFd_;
  int writeFd_;
  bool isSocket_;
  FrameReassembler reassembler_;
  std::string lastError_;
  std::uint64_t rxBytes_ = 0;
};

/// Writes all of `bytes` to `fd`, surviving the hazards of signal-heavy
/// processes: EINTR restarts, short writes continue from the partial
/// count, and EAGAIN/EWOULDBLOCK (non-blocking fds, full socket buffers)
/// waits on POLLOUT up to `unwritableTimeoutMs` per stall. Sockets send
/// with MSG_NOSIGNAL so a vanished peer surfaces as false, never SIGPIPE.
/// Shared by FdFrameTransport and ChaosFrameTransport — one hardened
/// write loop for every framed send.
[[nodiscard]] bool sendAllBytes(int fd, std::string_view bytes, bool isSocket,
                                int unwritableTimeoutMs = 5'000);

/// Pipe-based transport: exec::runInChild's child sends its one result
/// frame through makePipeTransport(-1, resultFd) and the supervisor reads
/// it through makePipeTransport(resultReadFd, -1). Pass -1 for an unused
/// direction.
[[nodiscard]] std::unique_ptr<FrameTransport> makePipeTransport(int readFd,
                                                                int writeFd);
/// Socket-based transport (one duplex fd).
[[nodiscard]] std::unique_ptr<FrameTransport> makeSocketTransport(int fd);

// TCP plumbing shared by the reactor (listen) and the worker (connect).
// Errors come back as strings — these are setup paths where the caller
// logs and retries or gives up, not hot paths.

/// Bound, listening TCP socket on host:port (port 0 = ephemeral).
/// Returns the fd; *boundPort receives the actual port.
[[nodiscard]] Expected<int, std::string> listenTcp(const std::string& host,
                                                   int port, int* boundPort);

/// Connects to host:port with a timeout. Returns the connected fd.
[[nodiscard]] Expected<int, std::string> connectTcp(const std::string& host,
                                                    int port, int timeoutMs);

}  // namespace occm::exec
