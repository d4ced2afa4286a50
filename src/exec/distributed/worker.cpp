#include "exec/distributed/worker.hpp"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common/error.hpp"
#include "exec/frame_transport.hpp"

namespace occm::exec::dist {

namespace {

/// Runs jobs on a dedicated thread so the socket loop keeps answering
/// pings while a simulation is in flight. One job at a time (the
/// coordinator assigns at most one task per worker).
class TaskThread {
 public:
  explicit TaskThread(const TaskRunner& runTask) : runTask_(runTask) {
    thread_ = std::thread([this] { loop(); });
  }

  ~TaskThread() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  TaskThread(const TaskThread&) = delete;
  TaskThread& operator=(const TaskThread&) = delete;

  void submit(JobSpec job) {
    const std::lock_guard<std::mutex> lock(mutex_);
    pending_.push_back(std::move(job));
    cv_.notify_all();
  }

  [[nodiscard]] std::optional<TaskResult> takeFinished() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (finished_.empty()) {
      return std::nullopt;
    }
    TaskResult result = std::move(finished_.front());
    finished_.pop_front();
    return result;
  }

  [[nodiscard]] bool idle() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return pending_.empty() && !running_ && finished_.empty();
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
      if (stop_) {
        return;
      }
      JobSpec job = std::move(pending_.front());
      pending_.pop_front();
      running_ = true;
      lock.unlock();
      TaskResult result;
      try {
        result = runTask_(job);
      } catch (const std::exception& e) {
        // The runner promised not to throw; keep the contract for it.
        RunFailure& failure = result.outcome.failure.emplace();
        failure.attempts = 1;
        failure.error = e.what();
      }
      result.taskId = job.taskId;
      lock.lock();
      running_ = false;
      finished_.push_back(std::move(result));
    }
  }

  const TaskRunner& runTask_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<JobSpec> pending_;
  std::deque<TaskResult> finished_;
  bool running_ = false;
  bool stop_ = false;
  std::thread thread_;
};

/// Cancellable sleep in small chunks (the straggle test hook).
void sleepMs(std::uint64_t ms, const CancellationToken& cancel) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < until) {
    if (cancel.valid() && cancel.stopRequested()) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

/// Connects and handshakes; returns the transport or an error string.
/// `sessionIndex` becomes the transport factory's connection id, so a
/// seeded chaos schedule varies across reconnects but replays per run.
Expected<std::unique_ptr<FrameTransport>, std::string> connectAndHello(
    const WorkerOptions& options, std::uint64_t sessionIndex,
    std::string* rejectReason) {
  auto fd = connectTcp(options.host, options.port, options.connectTimeoutMs);
  if (!fd) {
    return makeUnexpected(fd.error());
  }
  std::unique_ptr<FrameTransport> transport =
      options.transportFactory ? options.transportFactory(*fd, sessionIndex)
                               : makeSocketTransport(*fd);
  WireMessage hello;
  hello.kind = WireMessage::Kind::kHello;
  hello.protocolVersion = kProtocolVersion;
  hello.workerId = options.workerId;
  if (!transport->sendFrame(encodeMessage(hello))) {
    return makeUnexpected("hello send failed: " + transport->lastError());
  }
  std::string payload;
  const FrameTransport::RecvStatus status =
      transport->recvFrame(payload, options.connectTimeoutMs);
  if (status != FrameTransport::RecvStatus::kFrame) {
    return makeUnexpected("no handshake reply (" + transport->lastError() +
                          ")");
  }
  auto reply = decodeMessage(payload);
  if (!reply) {
    return makeUnexpected("corrupt handshake reply: " +
                          reply.error().message());
  }
  if (reply->kind == WireMessage::Kind::kReject) {
    *rejectReason = reply->reason;
    return makeUnexpected("rejected: " + reply->reason);
  }
  if (reply->kind != WireMessage::Kind::kWelcome) {
    return makeUnexpected(std::string("unexpected handshake reply kind"));
  }
  return transport;
}

}  // namespace

WorkerReport runWorker(const WorkerOptions& options,
                       const TaskRunner& runTask) {
  OCCM_REQUIRE_MSG(static_cast<bool>(runTask), "worker needs a task runner");
  WorkerReport report;
  // Decorrelate fleet-wide reconnect storms: each worker jitters its own
  // stream, deterministically derived from its id.
  BackoffPolicy reconnect = options.reconnectBackoff;
  for (char c : options.workerId) {
    reconnect.seed = reconnect.seed * 131 + static_cast<unsigned char>(c);
  }

  TaskThread tasks(runTask);
  std::unique_ptr<FrameTransport> transport;
  std::uint32_t connectFailures = 0;
  bool everConnected = false;
  std::uint64_t sessionIndex = 0;
  auto lastFrameAt = std::chrono::steady_clock::now();

  // Drops the session and either backs off before reconnecting or, once
  // the attempt budget is spent, gives up; true means give up.
  auto loseSession = [&](const std::string& why) {
    transport.reset();
    if (++connectFailures >= options.maxConnectAttempts) {
      report.stopReason =
          "connection lost" + (why.empty() ? "" : ": " + why);
      return true;
    }
    sleepMs(reconnect.delay(connectFailures - 1), options.cancel);
    return false;
  };

  for (;;) {
    if (options.cancel.valid() && options.cancel.stopRequested()) {
      report.stopReason = "cancelled";
      report.ok = true;
      return report;
    }
    if (transport == nullptr) {
      std::string rejectReason;
      auto connected = connectAndHello(options, sessionIndex, &rejectReason);
      if (!connected) {
        if (!rejectReason.empty()) {
          // A version reject is permanent: retrying cannot fix it.
          report.stopReason = "rejected: " + rejectReason;
          return report;
        }
        if (++connectFailures >= options.maxConnectAttempts) {
          report.stopReason = "connect failed: " + connected.error();
          return report;
        }
        sleepMs(reconnect.delay(connectFailures - 1), options.cancel);
        continue;
      }
      transport = std::move(*connected);
      connectFailures = 0;
      ++sessionIndex;
      lastFrameAt = std::chrono::steady_clock::now();
      if (everConnected) {
        ++report.reconnects;
      }
      everConnected = true;
    }

    // Ship any finished result (with the optional straggle delay).
    while (auto finished = tasks.takeFinished()) {
      if (options.straggleMs != 0) {
        sleepMs(options.straggleMs, options.cancel);
      }
      WireMessage result;
      result.kind = WireMessage::Kind::kResult;
      result.result = std::move(*finished);
      if (!transport->sendFrame(encodeMessage(result))) {
        transport.reset();  // reconnect; the result is lost with the
        break;              // session — the coordinator re-dispatches
      }
      ++report.tasksCompleted;
      if (options.maxTasks != 0 && report.tasksCompleted >= options.maxTasks) {
        report.stopReason = "done";
        report.ok = true;
        return report;  // abrupt exit by design (worker-death test hook)
      }
    }
    if (transport == nullptr) {
      continue;
    }

    std::string payload;
    const FrameTransport::RecvStatus status =
        transport->recvFrame(payload, 50);
    switch (status) {
      case FrameTransport::RecvStatus::kTimeout:
        // Idle guard: the coordinator pings every heartbeat interval, so
        // a session with *nothing* inbound for the whole idle window is
        // an asymmetric partition (our reads blocked, its view of us
        // long evicted). Tear it down and reconnect instead of idling
        // forever on a connection only we believe in.
        if (options.idleTimeoutMs != 0 &&
            std::chrono::steady_clock::now() - lastFrameAt >=
                std::chrono::milliseconds(options.idleTimeoutMs) &&
            loseSession("idle timeout")) {
          return report;
        }
        continue;  // poll cancellation / finished results again
      case FrameTransport::RecvStatus::kClosed:
      case FrameTransport::RecvStatus::kCorrupt:
      case FrameTransport::RecvStatus::kError:
        if (loseSession(transport->lastError())) {
          return report;
        }
        continue;
      case FrameTransport::RecvStatus::kFrame:
        lastFrameAt = std::chrono::steady_clock::now();
        break;
    }

    auto message = decodeMessage(payload);
    if (!message) {
      // A coordinator speaking garbage is as gone as a dead one: the
      // same backoff and attempt budget as a corrupt frame.
      if (loseSession(message.error().message())) {
        return report;
      }
      continue;
    }
    switch (message->kind) {
      case WireMessage::Kind::kAssign:
        tasks.submit(std::move(message->job));
        break;
      case WireMessage::Kind::kPing: {
        WireMessage pong;
        pong.kind = WireMessage::Kind::kPong;
        pong.pingId = message->pingId;
        pong.pingSentNs = message->pingSentNs;
        if (!transport->sendFrame(encodeMessage(pong))) {
          transport.reset();
        }
        break;
      }
      case WireMessage::Kind::kShutdown:
        report.stopReason = "shutdown";
        report.ok = true;
        return report;
      default:
        break;  // worker-bound kinds only; ignore the rest
    }
  }
}

}  // namespace occm::exec::dist
