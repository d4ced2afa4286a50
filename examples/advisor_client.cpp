// Client of the capacity-advisor service: sends one or more pipelined
// queries over framed TCP and prints each typed outcome — ok (with the
// advice summary), shed (with the reason), or error. Exercises every
// rung of the server's overload ladder from the command line:
//
//   advisor_client --port=7077 --workload=EP.S --machine=test-numa4
//   advisor_client --port=7077 --count=32 --deadline-ms=50   # force sheds

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>

#include "common/backoff.hpp"
#include "example_args.hpp"
#include "exec/chaos/chaos_transport.hpp"
#include "exec/frame_transport.hpp"
#include "serve/protocol.hpp"

namespace {

struct Args {
  std::string host = "127.0.0.1";
  int port = 7077;
  std::string workload = "EP.S";
  std::string machine = "test-numa4";
  int coreMin = 0;
  int coreMax = 0;
  std::uint32_t deadlineMs = 0;
  occm::serve::TierPreference tier = occm::serve::TierPreference::kAuto;
  double efficiency = 0.5;
  int count = 1;
  int connectRetries = 0;
  std::uint32_t recvTimeoutMs = 60'000;
  occm::exec::chaos::ChaosConfig chaos;
};

void usage(std::FILE* to, const char* argv0) {
  std::fprintf(
      to,
      "usage: %s [--host=ADDR] [--port=N] [--workload=PROG.CLASS]\n"
      "          [--machine=PRESET] [--cores=A-B] [--deadline-ms=N]\n"
      "          [--tier=auto|0|1] [--efficiency=F] [--count=N]\n"
      "          [--connect-retries=N] [--chaos-seed=N] [--chaos-plan=SPEC]\n"
      "  --cores=A-B      advise over core counts A..B (default: whole "
      "machine)\n"
      "  --deadline-ms=N  per-request deadline (0 = none)\n"
      "  --tier=auto|0|1  tier preference (0 analytic, 1 refined)\n"
      "  --count=N        pipelined copies of the request\n"
      "  --connect-retries=N  transient-connect retries with backoff "
      "(default 0)\n"
      "  --recv-timeout-ms=N  per-response read deadline "
      "(default 60000)\n"
      "  --chaos-seed=N   seeded network-fault schedule on this client's "
      "transport\n"
      "  --chaos-plan=SPEC  explicit chaos plan (see exec/chaos)\n",
      argv0);
}

Args parseArgs(int argc, char** argv) {
  const auto die = [&](const std::string& why) {
    std::fprintf(stderr, "error: %s\n", why.c_str());
    usage(stderr, argv[0]);
    std::exit(2);
  };
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    const auto intValue = [&](long lo, long hi) {
      char* end = nullptr;
      const long v = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || v < lo || v > hi) {
        die("bad value in \"" + arg + "\"");
      }
      return v;
    };
    if (flag == "--help" || flag == "-h") {
      usage(stdout, argv[0]);
      std::exit(0);
    } else if (flag == "--host") {
      args.host = value;
    } else if (flag == "--port") {
      args.port = static_cast<int>(intValue(1, 65535));
    } else if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--machine") {
      args.machine = value;
    } else if (flag == "--cores") {
      const std::size_t dash = value.find('-');
      if (dash == std::string::npos) {
        die("--cores wants A-B, got \"" + arg + "\"");
      }
      args.coreMin = std::atoi(value.substr(0, dash).c_str());
      args.coreMax = std::atoi(value.substr(dash + 1).c_str());
      if (args.coreMin < 1 || args.coreMax < args.coreMin) {
        die("bad core range in \"" + arg + "\"");
      }
    } else if (flag == "--deadline-ms") {
      args.deadlineMs = static_cast<std::uint32_t>(intValue(0, 1 << 30));
    } else if (flag == "--tier") {
      if (value == "auto") {
        args.tier = occm::serve::TierPreference::kAuto;
      } else if (value == "0") {
        args.tier = occm::serve::TierPreference::kTier0;
      } else if (value == "1") {
        args.tier = occm::serve::TierPreference::kTier1;
      } else {
        die("--tier wants auto|0|1, got \"" + arg + "\"");
      }
    } else if (flag == "--efficiency") {
      const std::optional<double> efficiency =
          occm::examples::efficiencyArg(value);
      if (!efficiency.has_value()) {
        die("bad value in \"" + arg + "\" (want a number in (0, 1])");
      }
      args.efficiency = *efficiency;
    } else if (flag == "--count") {
      args.count = static_cast<int>(intValue(1, 1 << 16));
    } else if (flag == "--connect-retries") {
      args.connectRetries = static_cast<int>(intValue(0, 1 << 10));
    } else if (flag == "--recv-timeout-ms") {
      args.recvTimeoutMs = static_cast<std::uint32_t>(intValue(1, 1 << 30));
    } else if (flag == "--chaos-seed") {
      args.chaos.seed = static_cast<std::uint64_t>(intValue(0, 1L << 62));
      args.chaos.plan = occm::exec::chaos::planFromSeed(args.chaos.seed);
    } else if (flag == "--chaos-plan") {
      auto plan = occm::exec::chaos::parseNetFaultPlan(value);
      if (!plan) {
        die(plan.error());
      }
      args.chaos.plan = std::move(*plan);
    } else {
      die("unrecognized argument \"" + arg + "\"");
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace occm;
  // Half-closed peers must surface as typed send failures, not SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  const Args args = parseArgs(argc, argv);

  // Transient-connect retry on the shared backoff policy: bounded
  // attempts, capped exponential delays with seeded jitter, and a typed
  // give-up naming the last error — the worker reconnect loop's shape,
  // applied to the client's first dial.
  const BackoffPolicy retryBackoff{.base = 100, .cap = 2'000,
                                   .jitterPct256 = 64, .seed = args.chaos.seed};
  int attempt = 0;
  Expected<int, std::string> connected = makeUnexpected(std::string());
  for (;;) {
    connected = exec::connectTcp(args.host, args.port, /*timeoutMs=*/5000);
    if (connected) {
      break;
    }
    if (attempt >= args.connectRetries) {
      std::fprintf(stderr, "error: connect gave up after %d attempt%s: %s\n",
                   attempt + 1, attempt == 0 ? "" : "s",
                   connected.error().c_str());
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(
        retryBackoff.delay(static_cast<std::uint32_t>(attempt))));
    ++attempt;
  }
  auto transport =
      args.chaos.enabled()
          ? exec::chaos::makeChaosSocketTransport(*connected, args.chaos,
                                                  /*connectionId=*/0)
          : exec::makeSocketTransport(*connected);

  serve::ServeMessage message;
  message.kind = serve::ServeMessage::Kind::kRequest;
  const std::size_t dot = args.workload.find('.');
  message.request.program =
      dot == std::string::npos ? args.workload : args.workload.substr(0, dot);
  message.request.problemClass =
      dot == std::string::npos ? "" : args.workload.substr(dot + 1);
  message.request.machine = args.machine;
  message.request.coreMin = args.coreMin;
  message.request.coreMax = args.coreMax;
  message.request.deadlineMs = args.deadlineMs;
  message.request.tier = args.tier;
  message.request.efficiencyThreshold = args.efficiency;

  // Pipelined: all requests go out before the first response is read —
  // exactly the burst shape that exercises the server's admission queue.
  for (int i = 0; i < args.count; ++i) {
    message.request.requestId = static_cast<std::uint64_t>(i) + 1;
    if (!transport->sendFrame(serve::encodeServeMessage(message))) {
      std::fprintf(stderr, "error: send: %s\n",
                   transport->lastError().c_str());
      return 1;
    }
  }

  int failures = 0;
  for (int i = 0; i < args.count; ++i) {
    std::string payload;
    const auto status =
        transport->recvFrame(payload, static_cast<int>(args.recvTimeoutMs));
    if (status != exec::FrameTransport::RecvStatus::kFrame) {
      std::fprintf(stderr, "error: recv failed (%s)\n",
                   transport->lastError().c_str());
      return 1;
    }
    const auto decoded = serve::decodeServeMessage(payload);
    if (!decoded ||
        decoded->kind != serve::ServeMessage::Kind::kResponse) {
      std::fprintf(stderr, "error: bad response frame\n");
      return 1;
    }
    const serve::AdvisorResponse& r = decoded->response;
    switch (r.status) {
      case serve::ResponseStatus::kOk:
        std::printf(
            "request %llu: ok tier=%u%s%s cache=%s rows=%zu "
            "best=%dx%.2f efficient<=%d\n",
            static_cast<unsigned long long>(r.requestId), r.tier,
            r.degraded ? " degraded=" : "",
            r.degraded ? toString(r.degradeReason) : "",
            r.cacheHit ? "hit" : "miss", r.rows.size(), r.bestCores,
            r.bestSpeedup, r.efficientCores);
        break;
      case serve::ResponseStatus::kShed:
        std::printf("request %llu: shed %s (queue depth %u)\n",
                    static_cast<unsigned long long>(r.requestId),
                    toString(r.shedReason), r.queueDepth);
        ++failures;
        break;
      case serve::ResponseStatus::kError:
        std::printf("request %llu: error %s\n",
                    static_cast<unsigned long long>(r.requestId),
                    r.error.c_str());
        ++failures;
        break;
    }
  }
  return failures == args.count && args.count > 0 ? 1 : 0;
}
