#include "exec/process_runner.hpp"

#include <poll.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <memory>
#include <new>
#include <thread>

#include "common/error.hpp"
#include "exec/frame_transport.hpp"
#include "exec/wire_codec.hpp"
#include "fault/crash_injection.hpp"

namespace occm::exec {

namespace {

/// Supervisor poll cadence while the child runs. Bounds how stale the
/// cancellation token can get before the SIGKILL lands.
constexpr int kPollMillis = 20;

/// new-handler installed in the child under a memory budget: allocation
/// failure must read as "the budget killed it", not as a generic
/// exception a retry might clear. Async-signal-shaped on purpose — plain
/// write(2) then abort; allocation has already failed, so nothing here
/// may allocate.
void oomAbortHandler() {
  const char prefix[] = "occm: allocation failed: ";
  // Failed writes change nothing about the abort; the marker is
  // best-effort diagnosis.
  ssize_t ignored = ::write(STDERR_FILENO, prefix, sizeof prefix - 1);
  ignored = ::write(STDERR_FILENO, fault::kOutOfMemoryMarker,
                    std::strlen(fault::kOutOfMemoryMarker));
  ignored = ::write(STDERR_FILENO, "\n", 1);
  static_cast<void>(ignored);
  std::abort();
}

void applyLimit(int resource, std::uint64_t value) {
  if (value == 0) {
    return;
  }
  struct rlimit limit;
  limit.rlim_cur = static_cast<rlim_t>(value);
  limit.rlim_max = static_cast<rlim_t>(value);
  // Best-effort: a host that refuses the limit still runs the work, just
  // unbudgeted (the supervisor's classification only triggers on death).
  ::setrlimit(resource, &limit);
}

/// Child side: apply limits, run the work, frame its outcome, _exit.
/// Never returns to the caller's stack; _exit (not exit) skips atexit
/// handlers and parent-inherited stdio flushes.
[[noreturn]] void childMain(int resultFd,
                            const std::function<perf::RunProfile()>& work,
                            const ResourceLimits& limits) {
  applyLimit(RLIMIT_AS, limits.memoryBytes);
  applyLimit(RLIMIT_CPU, limits.cpuSeconds);
  if (limits.memoryBytes > 0) {
    std::set_new_handler(oomAbortHandler);
  }
  RunOutcome outcome;
  try {
    outcome.profile = work();
  } catch (...) {
    outcome.failure = caughtFailure();
  }
  std::string payload;
  wire::putOutcome(payload, outcome);
  // A failed send needs no handling here: the supervisor sees no frame
  // and reports the clean exit as a crash. The transport closes resultFd.
  makePipeTransport(-1, resultFd)->sendFrame(payload);
  ::_exit(0);
}

/// Non-printable bytes in a crash tail (sanitizer hex dumps, torn UTF-8)
/// become '.' so the tail prints safely in diagnostics and CSV.
std::string sanitizeTail(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '\n' || c == '\t' || (byte >= 0x20 && byte < 0x7F)) {
      out.push_back(c);
    } else {
      out.push_back('.');
    }
  }
  return out;
}

const char* signalName(int sig) {
  switch (sig) {
    case SIGABRT: return "SIGABRT";
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS: return "SIGBUS";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
    case SIGXCPU: return "SIGXCPU";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    default: return "signal";
  }
}

}  // namespace

RunOutcome runInChild(const std::function<perf::RunProfile()>& work,
                      const ProcessRunnerConfig& config) {
  OCCM_REQUIRE_MSG(static_cast<bool>(work),
                   "runInChild needs a work function");
  int resultPipe[2];
  int errPipe[2];
  OCCM_REQUIRE_MSG(::pipe(resultPipe) == 0,
                   "pipe() failed for the isolation result channel");
  if (::pipe(errPipe) != 0) {
    ::close(resultPipe[0]);
    ::close(resultPipe[1]);
    throw ContractViolation("pipe() failed for the isolation stderr channel");
  }
  // fork() duplicates only the calling thread. The child runs the work
  // single-threaded and _exits, so inherited locks and pool state in
  // other threads never matter; glibc's atfork handlers keep malloc
  // usable in the child.
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(resultPipe[0]);
    ::close(resultPipe[1]);
    ::close(errPipe[0]);
    ::close(errPipe[1]);
    throw ContractViolation("fork() failed for the isolated attempt");
  }
  if (pid == 0) {
    ::close(resultPipe[0]);
    ::close(errPipe[0]);
    // The child's stderr *is* the capture channel; whatever the run (or
    // its death throes — sanitizer reports, abort messages) writes lands
    // in the supervisor's bounded tail.
    ::dup2(errPipe[1], STDERR_FILENO);
    ::close(errPipe[1]);
    childMain(resultPipe[1], work, config.limits);
  }

  ::close(resultPipe[1]);
  ::close(errPipe[1]);

  std::unique_ptr<FrameTransport> result = makePipeTransport(resultPipe[0], -1);
  std::string payload;
  std::string frameError;  // first diagnosis; later ones are fallout
  int frames = 0;
  std::size_t partialAtEof = 0;
  std::string tail;
  bool killedByUs = false;

  auto killChild = [&] {
    if (!killedByUs) {
      ::kill(pid, SIGKILL);
      killedByUs = true;
    }
  };

  // Slot 0 is the result pipe, slot 1 stderr; poll(2) skips a slot whose
  // fd is set to -1 once that pipe hits EOF.
  struct pollfd fds[2] = {{resultPipe[0], POLLIN, 0}, {errPipe[0], POLLIN, 0}};
  char buffer[4096];
  while (fds[0].fd >= 0 || fds[1].fd >= 0) {
    if (config.cancel.stopRequested()) {
      killChild();
    }
    const int ready = ::poll(fds, 2, kPollMillis);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    if (fds[0].revents != 0) {
      // Drain everything readable. A corrupt stream is still read to EOF
      // (the reassembler discards it), so a child blocked mid-write can
      // always finish and exit.
      for (;;) {
        if (config.cancel.stopRequested()) {
          killChild();  // a child flooding the pipe still gets killed
        }
        std::string frame;
        const FrameTransport::RecvStatus status = result->recvFrame(frame, 0);
        if (status == FrameTransport::RecvStatus::kTimeout) {
          break;
        }
        if (status == FrameTransport::RecvStatus::kFrame) {
          if (++frames == 1) {
            payload = std::move(frame);
          }
          continue;
        }
        if (status == FrameTransport::RecvStatus::kClosed) {
          partialAtEof = result->partialBytes();
          fds[0].fd = -1;
          break;
        }
        if (frameError.empty()) {
          frameError = result->lastError();
        }
        if (status == FrameTransport::RecvStatus::kError) {
          fds[0].fd = -1;
          break;
        }
      }
    }
    if (fds[1].revents != 0) {
      const ssize_t n = ::read(fds[1].fd, buffer, sizeof buffer);
      if (n > 0) {
        tail.append(buffer, static_cast<std::size_t>(n));
        if (tail.size() > config.stderrTailBytes) {
          tail.erase(0, tail.size() - config.stderrTailBytes);
        }
      } else if (n == 0 || errno != EINTR) {
        fds[1].fd = -1;
      }
    }
  }
  result.reset();
  ::close(errPipe[0]);

  // Both pipes are at EOF, so the child is exiting (or already dead);
  // WNOHANG keeps the supervisor responsive to a late cancellation in
  // the window where a pathological child closed its fds but lingers.
  int status = 0;
  for (;;) {
    const pid_t reaped = ::waitpid(pid, &status, WNOHANG);
    if (reaped == pid) {
      break;
    }
    if (reaped < 0 && errno != EINTR) {
      break;  // nothing left to reap (ECHILD); decode what we have
    }
    if (config.cancel.stopRequested()) {
      killChild();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(kPollMillis));
  }

  const bool exited = WIFEXITED(status);
  const bool signalled = WIFSIGNALED(status);
  const int exitCode = exited ? WEXITSTATUS(status) : -1;
  const int deathSignal = signalled ? WTERMSIG(status) : 0;

  RunOutcome outcome;
  RunFailure& failure = outcome.failure.emplace();
  if (exited && exitCode == 0) {
    // Clean exit: exactly one valid frame holding one valid outcome, and
    // nothing after it, is authoritative; anything else is a child lying
    // about success.
    if (frameError.empty() && frames != 1) {
      frameError = frames == 0 ? "no result frame before EOF"
                               : std::to_string(frames) +
                                     " result frames where one is expected";
    }
    if (frameError.empty() && partialAtEof != 0) {
      frameError = std::to_string(partialAtEof) +
                   " byte(s) after the result frame";
    }
    failure.kind = RunFailureKind::kCrash;
    failure.stderrTail = sanitizeTail(tail);
    if (!frameError.empty()) {
      failure.error = "child exited cleanly but its result frame is "
                      "invalid: " + frameError;
      return outcome;
    }
    auto sent = wire::decodeOutcome(payload);
    if (!sent) {
      failure.error = "child exited cleanly but its result message is "
                      "invalid: " + sent.error().message();
      return outcome;
    }
    if (sent->profile.has_value() == sent->failure.has_value()) {
      failure.error = "child exited cleanly but its result message is "
                      "invalid: it must hold a profile or a failure, not "
                      "both or neither";
      return outcome;
    }
    return std::move(*sent);
  }

  if (killedByUs) {
    failure.kind = RunFailureKind::kCancelled;
    failure.signal = SIGKILL;
    failure.error = "isolated run killed by the supervisor "
                    "(cancellation or deadline)";
    return outcome;
  }

  failure.kind = RunFailureKind::kCrash;
  failure.signal = deathSignal;
  failure.stderrTail = sanitizeTail(tail);
  if (deathSignal == SIGXCPU) {
    failure.rlimit = "cpu";
  } else if (failure.stderrTail.find(fault::kOutOfMemoryMarker) !=
             std::string::npos) {
    failure.rlimit = "address-space";
  }
  if (signalled) {
    failure.error = "child terminated by signal " +
                    std::to_string(deathSignal) + " (" +
                    signalName(deathSignal) + ")";
  } else {
    failure.error = "child exited with status " + std::to_string(exitCode);
  }
  if (!failure.rlimit.empty()) {
    failure.error += " after exceeding its " + failure.rlimit + " limit";
  }
  return outcome;
}

}  // namespace occm::exec
