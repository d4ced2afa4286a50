// Capacity-advisor service (DESIGN.md §15): serves speedup / efficiency /
// C(n) queries over framed TCP with the full overload ladder — bounded
// admission, per-request deadlines, graceful tier-0 degradation, warm
// model cache, SIGTERM drain.
//
//   ./advisor_server --port=7077 &
//   ./advisor_client --port=7077 --workload=EP.S --machine=test-numa4
//   kill -TERM %1   # drain: finish in-flight work, then exit 0
//
// SIGTERM/SIGINT fire the drain token from the signal handler
// (requestStop is async-signal-safe); the server stops accepting, sheds
// new requests with kDraining, completes in-flight work and returns — the
// process then prints the serve.* ground-truth counters and exits 0.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "common/cancellation.hpp"
#include "example_args.hpp"
#include "exec/chaos/chaos_transport.hpp"
#include "serve/advisor_server.hpp"

namespace {

occm::CancellationSource& drainSource() {
  static occm::CancellationSource source;
  return source;
}

void onSignal(int) { drainSource().requestStop(); }

struct Args {
  std::string host = "127.0.0.1";
  int port = 7077;
  std::size_t queueCapacity = 16;
  std::size_t degradeDepth = 8;
  double minSlackMs = 0.0;
  double maxEwmaMs = 0.0;
  std::size_t cacheCapacity = 16;
  int workers = 2;
  std::uint64_t stallTimeoutMs = 10'000;
  std::size_t maxConnections = 256;
  occm::exec::chaos::ChaosConfig chaos;
};

void usage(std::FILE* to, const char* argv0) {
  std::fprintf(
      to,
      "usage: %s [--host=ADDR] [--port=N] [--queue-capacity=N]\n"
      "          [--degrade-depth=N] [--min-slack-ms=F] [--max-ewma-ms=F]\n"
      "          [--cache-capacity=N] [--workers=N]\n"
      "          [--stall-timeout-ms=N] [--max-connections=N]\n"
      "          [--chaos-seed=N] [--chaos-plan=SPEC]\n"
      "  --port=N            listen port; 0 picks an ephemeral port\n"
      "  --queue-capacity=N  admission bound; beyond it requests shed\n"
      "  --degrade-depth=N   queue depth that downgrades to tier 0 "
      "(0=never)\n"
      "  --min-slack-ms=F    deadline slack floor for tier 1 (0=never)\n"
      "  --max-ewma-ms=F     tier-1 latency EWMA ceiling (0=never)\n"
      "  --cache-capacity=N  fitted-model LRU capacity\n"
      "  --workers=N         fit/refinement pool size\n"
      "  --stall-timeout-ms=N  drop connections with no read progress "
      "(slowloris guard; 0=never)\n"
      "  --max-connections=N   admission cap on concurrent connections\n"
      "  --chaos-seed=N      seeded network-fault schedule on every "
      "accepted connection\n"
      "  --chaos-plan=SPEC   explicit chaos plan (see exec/chaos)\n",
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
      const std::optional<long> v =
          occm::wholeInteger(value, lo, hi);
      if (!v.has_value()) {
        die("bad value in \"" + arg + "\"");
      }
      return *v;
    };
    const auto doubleValue = [&]() {
      const std::optional<double> v = occm::examples::nonNegativeArg(value);
      if (!v.has_value()) {
        die("bad value in \"" + arg + "\" (want a finite number >= 0)");
      }
      return *v;
    };
    if (flag == "--help" || flag == "-h") {
      usage(stdout, argv[0]);
      std::exit(0);
    } else if (flag == "--host") {
      if (value.empty()) {
        die("--host needs a value");
      }
      args.host = value;
    } else if (flag == "--port") {
      args.port = static_cast<int>(intValue(0, 65535));
    } else if (flag == "--queue-capacity") {
      args.queueCapacity = static_cast<std::size_t>(intValue(1, 1 << 20));
    } else if (flag == "--degrade-depth") {
      args.degradeDepth = static_cast<std::size_t>(intValue(0, 1 << 20));
    } else if (flag == "--min-slack-ms") {
      args.minSlackMs = doubleValue();
    } else if (flag == "--max-ewma-ms") {
      args.maxEwmaMs = doubleValue();
    } else if (flag == "--cache-capacity") {
      args.cacheCapacity = static_cast<std::size_t>(intValue(1, 1 << 20));
    } else if (flag == "--workers") {
      args.workers = static_cast<int>(intValue(1, 1024));
    } else if (flag == "--stall-timeout-ms") {
      args.stallTimeoutMs = static_cast<std::uint64_t>(intValue(0, 1L << 31));
    } else if (flag == "--max-connections") {
      args.maxConnections = static_cast<std::size_t>(intValue(1, 1 << 20));
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
  const Args args = parseArgs(argc, argv);

  std::signal(SIGTERM, onSignal);
  std::signal(SIGINT, onSignal);
  // Abruptly-closed clients must surface as typed send failures on their
  // own connection, never as a process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  serve::AdvisorServerConfig config;
  config.host = args.host;
  config.port = args.port;
  config.degrade.queueCapacity = args.queueCapacity;
  config.degrade.degradeQueueDepth = args.degradeDepth;
  config.degrade.minTier1SlackMs = args.minSlackMs;
  config.degrade.maxTier1EwmaMs = args.maxEwmaMs;
  config.cacheCapacity = args.cacheCapacity;
  config.workers = args.workers;
  config.readProgressTimeoutMs = args.stallTimeoutMs;
  config.maxConnections = args.maxConnections;
  if (args.chaos.enabled()) {
    // Print the resolved plan so any seeded drill is reproducible from
    // the log alone (--chaos-plan of this spec replays it exactly).
    std::printf("chaos plan: %s\n", args.chaos.plan.toSpec().c_str());
    config.transportFactory = exec::chaos::chaosTransportFactory(args.chaos);
  }
  config.drain = drainSource().token();
  config.onListening = [](int port) {
    std::printf("advisor server listening on port %d\n", port);
    std::fflush(stdout);
  };

  const serve::AdvisorServerStats stats = serve::runAdvisorServer(config);
  if (!stats.error.empty()) {
    std::fprintf(stderr, "error: %s\n", stats.error.c_str());
    return 1;
  }

  std::printf("drained: %s\n", stats.drained ? "yes" : "no");
  std::printf("  connections accepted   %llu\n",
              static_cast<unsigned long long>(stats.connectionsAccepted));
  std::printf("  connections refused    %llu\n",
              static_cast<unsigned long long>(stats.connectionsRefused));
  std::printf("  connections stalled    %llu\n",
              static_cast<unsigned long long>(stats.connectionsStalled));
  std::printf("  requests decoded       %llu\n",
              static_cast<unsigned long long>(stats.requestsDecoded));
  std::printf("  responses sent         %llu\n",
              static_cast<unsigned long long>(stats.responsesSent));
  std::printf("  tier-0 / tier-1 served %llu / %llu\n",
              static_cast<unsigned long long>(stats.tier0Served),
              static_cast<unsigned long long>(stats.tier1Served));
  std::printf("  degraded               %llu\n",
              static_cast<unsigned long long>(stats.degraded));
  std::printf("  shed queue-full        %llu\n",
              static_cast<unsigned long long>(stats.shedQueueFull));
  std::printf("  shed deadline          %llu\n",
              static_cast<unsigned long long>(stats.shedDeadlineInfeasible));
  std::printf("  shed draining          %llu\n",
              static_cast<unsigned long long>(stats.shedDraining));
  std::printf("  shed bad-request       %llu\n",
              static_cast<unsigned long long>(stats.shedBadRequest));
  std::printf("  deadline misses        %llu\n",
              static_cast<unsigned long long>(stats.deadlineMisses));
  std::printf("  max queue depth        %llu\n",
              static_cast<unsigned long long>(stats.maxQueueDepth));
  std::printf("  cache hits/misses      %llu / %llu (evicted %llu, "
              "coalesced %llu)\n",
              static_cast<unsigned long long>(stats.cache.hits),
              static_cast<unsigned long long>(stats.cache.misses),
              static_cast<unsigned long long>(stats.cache.evictions),
              static_cast<unsigned long long>(stats.cache.coalesced));
  std::printf("  tier-1 latency EWMA    %.1f ms\n", stats.tier1EwmaMs);
  return stats.drained ? 0 : 1;
}
