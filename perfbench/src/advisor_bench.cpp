// The advisor workload: an in-process serve::runAdvisorServer (its loop
// thread plus its default two pool workers) driven over loopback by one
// client thread on a seeded open-loop schedule. The client sends each
// request when it is due, drains replies by polling its connections, and
// checks every answer against the benchmark's own fitAdvisorModel and
// runSweep results for that key.

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "analysis/advisor.hpp"
#include "analysis/experiment.hpp"
#include "bench.hpp"
#include "exec/frame_transport.hpp"
#include "schedule.hpp"
#include "serve/advisor_server.hpp"
#include "serve/protocol.hpp"
#include "stats.hpp"
#include "topology/presets.hpp"
#include "workloads/problem.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using occm::serve::AdvisorResponse;
using occm::serve::ResponseStatus;
using occm::serve::ServeMessage;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct AdvisorKey {
  const char* program;
  const char* problemClass;
  const char* machine;
};

/// Small S-class keys, all fitted cold during set-up and asked for tier 0.
constexpr AdvisorKey kKeys[] = {
    {"CG", "S", "test-numa4"}, {"CG", "S", "test-uma4"},
    {"IS", "S", "test-numa4"}, {"IS", "S", "test-uma4"},
    {"EP", "S", "test-numa4"}, {"EP", "S", "test-uma4"},
};
constexpr std::uint32_t kKeyCount = std::size(kKeys);
/// Tier-1 requests use the keys whose sweep takes about 20 ms; a CG.S
/// sweep takes about 700 ms and would dominate the pool.
constexpr std::uint32_t kTier1Keys[] = {2, 3, 4, 5};
constexpr std::uint32_t kTier1KeyCount = std::size(kTier1Keys);

std::uint32_t keyOf(const ScheduledRequest& s) {
  return s.tier1 ? kTier1Keys[s.key] : s.key;
}
/// The open-loop offered rate: busy, but shedding nothing on a 4-core host.
constexpr double kRatePerS = 400.0;
constexpr double kTier1Share = 0.1;
/// Answers slower than this, from their due time, do not count as goodput.
constexpr double kLimitMs = 200.0;
constexpr int kConnections = 4;
constexpr int kSetupRepeats = 5;
/// Share of the run's seconds given to the open-loop phase; the rest is
/// the closed-loop saturation phase.
constexpr double kOpenLoopShare = 2.0 / 3.0;
/// Warm tier-0 requests each connection keeps in flight when saturating.
constexpr int kSaturationWindow = 8;
/// After the last due time, how long to wait for outstanding replies.
constexpr double kGraceS = 5.0;
constexpr int kReplyTimeoutMs = 60'000;

/// The benchmark's own answers for one key, computed directly.
struct Oracle {
  occm::topology::MachineSpec machine;
  occm::workloads::WorkloadSpec spec;
  std::vector<double> tier0Cycles;     ///< [n - 1] = model C(n)
  std::vector<double> measuredCycles;  ///< [n - 1] = runSweep C(n)
  std::vector<int> fitCores;
  double fitS = 0.0;
  double sweepS = 0.0;  ///< the direct runSweep: one tier-1 request's work
  double errPct = 0.0;
};

occm::serve::AdvisorRequest makeRequest(std::uint64_t id,
                                        const AdvisorKey& key, bool tier1) {
  occm::serve::AdvisorRequest request;
  request.requestId = id;
  request.program = key.program;
  request.problemClass = key.problemClass;
  request.machine = key.machine;
  request.tier = tier1 ? occm::serve::TierPreference::kTier1
                       : occm::serve::TierPreference::kTier0;
  return request;
}

std::string encodeRequest(const occm::serve::AdvisorRequest& request) {
  ServeMessage message;
  message.kind = ServeMessage::Kind::kRequest;
  message.request = request;
  return occm::serve::encodeServeMessage(message);
}

/// The server on its own thread; stop() drains it and joins.
class ServerThread {
 public:
  explicit ServerThread(occm::serve::AdvisorServerConfig config)
      : portFuture_(portPromise_.get_future()) {
    config.drain = drain_.token();
    config.onListening = [this](int port) { portPromise_.set_value(port); };
    thread_ = std::thread([this, config = std::move(config)] {
      stats_ = occm::serve::runAdvisorServer(config);
    });
  }
  ~ServerThread() { stop(); }

  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  /// The bound port; throws when the server did not start listening.
  int port() {
    if (port_ >= 0) {
      return port_;
    }
    if (portFuture_.wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
      stop();
      throw std::runtime_error("advisor server did not listen: " +
                               stats_.error);
    }
    port_ = portFuture_.get();
    return port_;
  }

  /// Drains the server and returns its final counters.
  const occm::serve::AdvisorServerStats& stop() {
    if (thread_.joinable()) {
      drain_.requestStop();
      thread_.join();
    }
    return stats_;
  }

 private:
  occm::CancellationSource drain_;
  std::promise<int> portPromise_;
  std::future<int> portFuture_;
  int port_ = -1;
  occm::serve::AdvisorServerStats stats_;
  std::thread thread_;  // last: it uses every member above
};

std::unique_ptr<occm::exec::FrameTransport> connectTo(int port) {
  auto fd = occm::exec::connectTcp("127.0.0.1", port, 5'000);
  if (!fd) {
    throw std::runtime_error("connect to the advisor server: " + fd.error());
  }
  return occm::exec::makeSocketTransport(*fd);
}

std::optional<AdvisorResponse> decodeResponse(const std::string& payload) {
  auto decoded = occm::serve::decodeServeMessage(payload);
  if (!decoded || decoded->kind != ServeMessage::Kind::kResponse) {
    return std::nullopt;
  }
  return std::move(decoded->response);
}

/// Server start plus a cold fit of every key: one tier-0 request per key
/// on a fresh server, until every answer is back.
double coldSetup(const occm::serve::AdvisorServerConfig& config,
                 std::unique_ptr<ServerThread>& server) {
  const auto start = Clock::now();
  server = std::make_unique<ServerThread>(config);
  auto transport = connectTo(server->port());
  for (std::uint32_t k = 0; k < kKeyCount; ++k) {
    if (!transport->sendFrame(encodeRequest(makeRequest(k + 1, kKeys[k],
                                                        false)))) {
      throw std::runtime_error("set-up send: " + transport->lastError());
    }
  }
  for (std::uint32_t k = 0; k < kKeyCount; ++k) {
    std::string payload;
    if (transport->recvFrame(payload, kReplyTimeoutMs) !=
        occm::exec::FrameTransport::RecvStatus::kFrame) {
      throw std::runtime_error("set-up reply: " + transport->lastError());
    }
    const auto response = decodeResponse(payload);
    if (!response || response->status != ResponseStatus::kOk) {
      throw std::runtime_error("set-up: a cold fit was not answered ok");
    }
  }
  return secondsSince(start);
}

Oracle makeOracle(const AdvisorKey& key, std::uint64_t workloadSeed,
                  SpanRecorder& spans) {
  Oracle o;
  o.machine = *occm::topology::presetByName(key.machine);
  o.spec.program = *occm::workloads::parseProgram(key.program);
  o.spec.problemClass = *occm::workloads::parseProblemClass(key.problemClass);
  o.spec.threads = 0;  // the server resolves to the machine's cores too
  o.spec.seed = workloadSeed;

  occm::analysis::AdvisorFitConfig fit;
  fit.machine = o.machine;
  fit.workload = o.spec;
  fit.workers = 1;  // as the server fits: serial inside one pool task
  const auto start = Clock::now();
  auto fitted = [&] {
    const ScopedSpan span(spans, "analysis.fitAdvisorModel");
    return occm::analysis::fitAdvisorModel(fit);
  }();
  o.fitS = secondsSince(start);
  if (!fitted) {
    throw std::runtime_error("oracle fit failed: " +
                             fitted.error().describe());
  }
  o.fitCores = fitted->fitCores;

  occm::analysis::SweepConfig sweep;
  sweep.machine = o.machine;
  sweep.workload = o.spec;
  sweep.parallel.workers = 1;
  const int total = fitted->shape.totalCores();
  for (int n = 1; n <= total; ++n) {
    sweep.coreCounts.push_back(n);
    o.tier0Cycles.push_back(fitted->model.predictCycles(n));
  }
  const auto sweepStart = Clock::now();
  const occm::analysis::SweepResult swept = occm::analysis::runSweep(sweep);
  o.sweepS = secondsSince(sweepStart);
  if (!swept.pendingCoreCounts().empty()) {
    throw std::runtime_error("oracle sweep incomplete: " +
                             swept.diagnostics());
  }
  for (int n = 1; n <= total; ++n) {
    o.measuredCycles.push_back(swept.at(n).totalCyclesD());
  }
  o.errPct = 100.0 * occm::model::validate(fitted->model, swept.points())
                         .meanRelativeError;
  return o;
}

/// Empty when every row is for core count i + 1 and carries exactly the
/// expected cycles with the expected measured flag.
std::string checkRows(const AdvisorResponse& response,
                      const std::vector<double>& expected, bool measured) {
  if (response.rows.size() != expected.size()) {
    return "expected " + std::to_string(expected.size()) + " rows, got " +
           std::to_string(response.rows.size());
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const occm::serve::AdvisorRow& row = response.rows[i];
    if (row.cores != static_cast<std::int32_t>(i + 1) ||
        row.measured != measured || row.cycles != expected[i]) {
      return "row for " + std::to_string(i + 1) + " cores disagrees with " +
             (measured ? "the direct runSweep" : "the direct model fit");
    }
  }
  return {};
}

struct Connection {
  std::unique_ptr<occm::exec::FrameTransport> transport;
  bool dead = false;
};

/// What the load phase saw, for the metrics.
struct LoadOutcome {
  std::vector<double> tier0Ms;
  std::vector<double> tier1Ms;
  std::vector<double> lagMs;
  std::vector<double> encodeUs;
  std::vector<double> decodeUs;
  std::vector<double> sendUs;
  std::uint64_t okWithinLimit = 0;
  std::uint64_t tier1Ok = 0;
  std::uint64_t degraded = 0;
  std::uint64_t framesSent = 0;
  std::uint64_t bytesSent = 0;
  std::uint64_t bytesRecv = 0;
};

LoadOutcome driveLoad(int port, const std::vector<ScheduledRequest>& schedule,
                      const std::vector<Oracle>& oracles, double seconds,
                      SpanRecorder& spans, RunResult& r) {
  LoadOutcome out;
  std::vector<Connection> conns;
  std::vector<pollfd> pfds;
  for (int i = 0; i < kConnections; ++i) {
    conns.push_back({connectTo(port), false});
    pfds.push_back({conns.back().transport->pollFd(), POLLIN, 0});
  }
  std::vector<std::int64_t> requestSpan(schedule.size(), -1);
  std::vector<std::uint64_t> sentNs(schedule.size(), 0);
  std::vector<bool> answered(schedule.size(), false);
  std::vector<bool> ok(schedule.size(), false);
  std::size_t next = 0;
  std::size_t outstanding = 0;

  const auto zero = Clock::now();
  const std::uint64_t zeroNs = spans.nowNs();
  auto elapsed = [&] { return secondsSince(zero); };

  auto send = [&](std::size_t i) {
    const ScheduledRequest& s = schedule[i];
    Connection& conn = conns[i % conns.size()];
    const double sendS = elapsed();
    out.lagMs.push_back((sendS - s.dueS) * 1e3);
    const auto dueNs = zeroNs + static_cast<std::uint64_t>(s.dueS * 1e9);
    requestSpan[i] = spans.add("loadgen.request", dueNs, dueNs, -1, s.id);
    std::uint64_t a = spans.nowNs();
    spans.add("loadgen.lag", dueNs, std::max(dueNs, a), requestSpan[i], s.id);
    auto t = Clock::now();
    const std::string payload =
        encodeRequest(makeRequest(s.id, kKeys[keyOf(s)], s.tier1));
    out.encodeUs.push_back(secondsSince(t) * 1e6);
    std::uint64_t b = spans.nowNs();
    spans.add("serve.encode", a, b, requestSpan[i], s.id);
    t = Clock::now();
    const bool sentOk = !conn.dead && conn.transport->sendFrame(payload);
    out.sendUs.push_back(secondsSince(t) * 1e6);
    a = b;
    b = spans.nowNs();
    spans.add("exec.sendFrame", a, b, requestSpan[i], s.id);
    sentNs[i] = b;
    if (!sentOk) {
      conn.dead = true;
      r.noteFailure("request " + std::to_string(s.id) + ": send failed");
      return;
    }
    ++out.framesSent;
    out.bytesSent += payload.size() + occm::exec::kFrameOverhead;
    ++outstanding;
  };

  auto evaluate = [&](std::size_t i, const AdvisorResponse& response,
                      double doneS) {
    const ScheduledRequest& s = schedule[i];
    const Oracle& o = oracles[keyOf(s)];
    std::string why;
    const bool statusOk = response.status == ResponseStatus::kOk;
    if (!statusOk) {
      why = response.status == ResponseStatus::kShed
                ? std::string("shed: ") +
                      occm::serve::toString(response.shedReason)
                : "error: " + response.error;
    } else if (!s.tier1) {
      why = response.tier != 0 || response.degraded
                ? "tier-0 request not answered from tier 0"
                : checkRows(response, o.tier0Cycles, false);
    } else {
      ++out.tier1Ok;
      if (response.tier == 1) {
        why = checkRows(response, o.measuredCycles, true);
      } else if (response.degraded) {
        ++out.degraded;
        why = checkRows(response, o.tier0Cycles, false);
      } else {
        why = "tier-1 request answered from tier 0 without a degrade flag";
      }
    }
    if (!why.empty()) {
      // A shed or an error is a failed request; an ok answer that
      // disagrees with the benchmark's own result is a wrong one.
      r.wrong += statusOk ? 1 : 0;
      r.noteFailure("request " + std::to_string(s.id) + ": " + why);
      return;
    }
    ok[i] = true;
    const double ms = latencyFromDueMs(s, doneS);
    (s.tier1 ? out.tier1Ms : out.tier0Ms).push_back(ms);
    if (ms <= kLimitMs) {
      ++out.okWithinLimit;
    }
  };

  auto drain = [&](Connection& conn) {
    for (;;) {
      std::string payload;
      const std::uint64_t a = spans.nowNs();
      const auto status = conn.transport->recvFrame(payload, 0);
      if (status == occm::exec::FrameTransport::RecvStatus::kTimeout) {
        return;
      }
      if (status != occm::exec::FrameTransport::RecvStatus::kFrame) {
        conn.dead = true;
        r.noteFailure("connection lost: " + conn.transport->lastError());
        return;
      }
      const std::uint64_t b = spans.nowNs();
      const auto t = Clock::now();
      const auto response = decodeResponse(payload);
      out.decodeUs.push_back(secondsSince(t) * 1e6);
      const std::uint64_t c = spans.nowNs();
      const double doneS = elapsed();
      if (!response || response->requestId == 0 ||
          response->requestId > schedule.size() ||
          answered[response->requestId - 1]) {
        ++r.failed;
        ++r.wrong;
        r.noteFailure("undecodable, unknown or duplicate response frame");
        continue;
      }
      const std::size_t i = response->requestId - 1;
      answered[i] = true;
      --outstanding;
      // From the end of the send to the start of the receive that
      // returned the answer: the server's share, seen from outside.
      spans.add("serve.wait", sentNs[i], std::max(sentNs[i], a),
                requestSpan[i], schedule[i].id);
      spans.add("exec.recvFrame", a, b, requestSpan[i], schedule[i].id);
      spans.add("serve.decode", b, c, requestSpan[i], schedule[i].id);
      spans.finish(requestSpan[i]);
      evaluate(i, *response, doneS);
    }
  };

  const double endS = seconds + kGraceS;
  for (;;) {
    double now = elapsed();
    while (next < schedule.size() && schedule[next].dueS <= now) {
      send(next++);
      now = elapsed();
    }
    if (next == schedule.size() && (outstanding == 0 || now >= endS)) {
      break;
    }
    const double waitS = std::max(
        0.0, next < schedule.size() ? schedule[next].dueS - now : endS - now);
    timespec timeout;
    timeout.tv_sec = static_cast<time_t>(waitS);
    timeout.tv_nsec = static_cast<long>((waitS - std::floor(waitS)) * 1e9);
    for (std::size_t c = 0; c < conns.size(); ++c) {
      pfds[c].fd = conns[c].dead ? -1 : conns[c].transport->pollFd();
      pfds[c].revents = 0;
    }
    if (ppoll(pfds.data(), pfds.size(), &timeout, nullptr) > 0) {
      for (std::size_t c = 0; c < conns.size(); ++c) {
        if (pfds[c].revents != 0) {
          drain(conns[c]);
        }
      }
    }
  }
  for (const Connection& conn : conns) {
    out.bytesRecv += conn.transport->bytesReceived();
  }
  r.attempted += schedule.size();
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (!answered[i]) {
      r.noteFailure("request " + std::to_string(schedule[i].id) +
                    ": no reply");
    }
    if (!ok[i]) {
      ++r.failed;
    }
  }
  return out;
}

/// What the saturation phase saw.
struct SaturationOutcome {
  std::uint64_t sent = 0;
  std::uint64_t correctInWindow = 0;  ///< checked answers before the end
  double seconds = 0.0;
};

/// Closed loop: every connection keeps kSaturationWindow warm tier-0
/// requests in flight and sends the next one as each answer arrives, for
/// `seconds`. Every answer is checked against the key's direct model fit;
/// the requests still in flight at the end are awaited and checked too.
SaturationOutcome driveSaturation(int port, const std::vector<Oracle>& oracles,
                                  std::uint64_t firstId, double seconds,
                                  RunResult& r) {
  SaturationOutcome out;
  std::vector<Connection> conns;
  std::vector<pollfd> pfds;
  for (int i = 0; i < kConnections; ++i) {
    conns.push_back({connectTo(port), false});
    pfds.push_back({conns.back().transport->pollFd(), POLLIN, 0});
  }
  std::unordered_map<std::uint64_t, std::uint32_t> inFlight;  // id -> key
  std::uint64_t nextId = firstId;
  std::uint64_t correct = 0;
  auto sendOne = [&](Connection& conn) {
    const std::uint64_t id = nextId++;
    const auto key = static_cast<std::uint32_t>(id % kKeyCount);
    if (conn.dead || !conn.transport->sendFrame(encodeRequest(
                         makeRequest(id, kKeys[key], false)))) {
      conn.dead = true;
      r.noteFailure("saturation request " + std::to_string(id) +
                    ": send failed");
      return;
    }
    inFlight.emplace(id, key);
    ++out.sent;
  };

  const auto start = Clock::now();
  for (Connection& conn : conns) {
    for (int w = 0; w < kSaturationWindow; ++w) {
      sendOne(conn);
    }
  }
  const double endS = seconds + kGraceS;
  for (;;) {
    const double now = secondsSince(start);
    if (now >= endS || (now >= seconds && inFlight.empty())) {
      break;
    }
    const double waitS = (now < seconds ? seconds : endS) - now;
    const timespec timeout{static_cast<time_t>(waitS),
                           static_cast<long>((waitS - std::floor(waitS)) * 1e9)};
    for (std::size_t c = 0; c < conns.size(); ++c) {
      pfds[c].fd = conns[c].dead ? -1 : conns[c].transport->pollFd();
      pfds[c].revents = 0;
    }
    if (ppoll(pfds.data(), pfds.size(), &timeout, nullptr) <= 0) {
      continue;
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (pfds[c].revents == 0) {
        continue;
      }
      Connection& conn = conns[c];
      for (;;) {
        std::string payload;
        const auto status = conn.transport->recvFrame(payload, 0);
        if (status == occm::exec::FrameTransport::RecvStatus::kTimeout) {
          break;
        }
        if (status != occm::exec::FrameTransport::RecvStatus::kFrame) {
          conn.dead = true;
          r.noteFailure("connection lost: " + conn.transport->lastError());
          break;
        }
        const auto response = decodeResponse(payload);
        const auto it =
            response ? inFlight.find(response->requestId) : inFlight.end();
        if (it == inFlight.end()) {
          ++r.failed;
          ++r.wrong;
          r.noteFailure("undecodable, unknown or duplicate response frame");
          continue;
        }
        const std::string why =
            response->status != ResponseStatus::kOk
                ? "not answered ok"
                : response->tier != 0 || response->degraded
                      ? "not answered from tier 0"
                      : checkRows(*response, oracles[it->second].tier0Cycles,
                                  false);
        inFlight.erase(it);
        if (!why.empty()) {
          // A shed is a failure; an ok answer that disagrees is wrong.
          r.wrong += response->status == ResponseStatus::kOk ? 1 : 0;
          r.noteFailure("saturation request " +
                        std::to_string(response->requestId) + ": " + why);
          continue;
        }
        ++correct;
        if (secondsSince(start) < seconds) {
          ++out.correctInWindow;
          sendOne(conn);
        }
      }
    }
  }
  out.seconds = seconds;
  r.attempted += out.sent;
  r.failed += out.sent - correct;
  return out;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

}  // namespace

void setServingLayersOffPath(RunResult& result) {
  struct LayerMetric {
    const char* name;
    const char* unit;
  };
  static constexpr LayerMetric kServingLayerMetrics[] = {
      {"serve.decode_us", "us"},        {"serve.encode_us", "us"},
      {"serve.cold_fit_s", "s"},        {"serve.cache_hit_ratio", "ratio"},
      {"serve.coalesced", "count"},     {"serve.max_queue_depth", "count"},
      {"serve.shed_queue_full", "count"}, {"serve.deadline_misses", "count"},
      {"serve.tier1_ewma_ms", "ms"},    {"serve.tier0_served", "count"},
      {"serve.tier1_served", "count"},  {"exec.send_us_p50", "us"},
      {"exec.frames_sent", "count"},    {"exec.bytes_sent", "bytes"},
      {"exec.bytes_recv", "bytes"},     {"loadgen.offered_per_s", "1/s"},
      {"loadgen.lag_ms_p99", "ms"},
  };
  for (const LayerMetric& m : kServingLayerMetrics) {
    result.set(m.name, 0.0, m.unit, 0);
  }
}

void runAdvisorWorkload(const BenchOptions& options, SpanRecorder& spans,
                        RunResult& r) {
  occm::serve::AdvisorServerConfig config;
  config.workers = 2;
  config.workloadSeed = options.workloadSeed;

  // Set-up, repeated on fresh servers; the last one serves the load.
  std::unique_ptr<ServerThread> server;
  std::vector<double> setupS;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (server) {
      (void)server->stop();
    }
    setupS.push_back(coldSetup(config, server));
  }

  std::vector<Oracle> oracles;
  for (const AdvisorKey& key : kKeys) {
    oracles.push_back(makeOracle(key, options.workloadSeed, spans));
  }

  ScheduleConfig sc;
  sc.seed = options.arrivalSeed;
  sc.ratePerS = kRatePerS;
  sc.durationS = options.seconds * kOpenLoopShare;
  sc.tier1Share = kTier1Share;
  sc.tier0Keys = kKeyCount;
  sc.tier1Keys = kTier1KeyCount;
  const std::vector<ScheduledRequest> schedule = makeOpenLoopSchedule(sc);
  const LoadOutcome load =
      driveLoad(server->port(), schedule, oracles, sc.durationS, spans, r);
  // Saturation only in untraced runs: the traced server counters describe
  // the open-loop load alone.
  const SaturationOutcome saturation =
      options.traced
          ? SaturationOutcome{}
          : driveSaturation(server->port(), oracles, schedule.size() + 1,
                            options.seconds - sc.durationS, r);
  const occm::serve::AdvisorServerStats stats = server->stop();
  if (!stats.error.empty()) {
    ++r.failed;
    r.noteFailure("advisor server: " + stats.error);
  }

  const Summary t0 = summarize(load.tier0Ms);
  const Summary t1 = summarize(load.tier1Ms);
  std::vector<double> errPct;
  std::vector<double> fitS;
  for (const Oracle& o : oracles) {
    errPct.push_back(o.errPct);
    fitS.push_back(o.fitS);
  }
  const double goodput =
      static_cast<double>(load.okWithinLimit) / sc.durationS;
  auto pName = [](const char* base, double p) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%s_p%g", base, p);
    return std::string(buf);
  };
  if (!options.traced) {
    r.set("setup_s", median(setupS), "s", setupS.size());
    r.set("latency_ms", t0.p50, "ms", t0.n);
    r.set("throughput_per_s",
          static_cast<double>(saturation.correctInWindow) /
              saturation.seconds,
          "1/s", saturation.correctInWindow);
  }
  r.figure("t0_ms_p50", t0.p50, "ms", t0.n);
  r.figure(pName("t0_ms", t0.tailP), t0.tail, "ms", t0.n);
  r.figure("t1_ms_p50", t1.p50, "ms", t1.n);
  r.figure(pName("t1_ms", t1.tailP), t1.tail, "ms", t1.n);
  r.figure("goodput_per_s", goodput, "1/s", schedule.size());
  r.figure("model_err_pct", mean(errPct), "%", errPct.size());
  r.figure("latency_limit_ms", kLimitMs, "ms");
  r.figure("degraded_ratio", load.tier1Ok == 0
                                 ? 0.0
                                 : static_cast<double>(load.degraded) /
                                       static_cast<double>(load.tier1Ok),
           "ratio", load.tier1Ok);
  r.figure("fail_ratio",
           r.attempted == 0 ? 0.0
                            : static_cast<double>(r.failed) /
                                  static_cast<double>(r.attempted),
           "ratio", r.attempted);
  r.figure("loadgen.lag_ms_p99", percentile(load.lagMs, 99.0), "ms",
           load.lagMs.size());
  for (std::size_t k = 0; k < oracles.size(); ++k) {
    r.figure(std::string("oracle_sweep_ms.") + kKeys[k].program + "." +
                 kKeys[k].problemClass + "@" + kKeys[k].machine,
             oracles[k].sweepS * 1e3, "ms");
  }
  r.notes.push_back(
      "model_err_pct: mean over the advisor keys of the fitted model "
      "against a direct sweep of every core count; no paper figure");
  if (!options.traced) {
    return;
  }

  const std::uint64_t looks = stats.cache.hits + stats.cache.misses;
  r.set("serve.decode_us", median(load.decodeUs), "us", load.decodeUs.size());
  r.set("serve.encode_us", median(load.encodeUs), "us", load.encodeUs.size());
  r.set("serve.cold_fit_s", median(fitS), "s", fitS.size());
  r.set("serve.cache_hit_ratio",
        looks == 0 ? 0.0
                   : static_cast<double>(stats.cache.hits) /
                         static_cast<double>(looks),
        "ratio", looks);
  r.set("serve.coalesced", static_cast<double>(stats.cache.coalesced),
        "count");
  r.set("serve.max_queue_depth", static_cast<double>(stats.maxQueueDepth),
        "count");
  r.set("serve.shed_queue_full", static_cast<double>(stats.shedQueueFull),
        "count");
  r.set("serve.deadline_misses", static_cast<double>(stats.deadlineMisses),
        "count");
  r.set("serve.tier1_ewma_ms", stats.tier1EwmaMs, "ms");
  r.set("serve.tier0_served", static_cast<double>(stats.tier0Served),
        "count");
  r.set("serve.tier1_served", static_cast<double>(stats.tier1Served),
        "count");
  r.set("exec.send_us_p50", median(load.sendUs), "us", load.sendUs.size());
  r.set("exec.frames_sent", static_cast<double>(load.framesSent), "count");
  r.set("exec.bytes_sent", static_cast<double>(load.bytesSent), "bytes");
  r.set("exec.bytes_recv", static_cast<double>(load.bytesRecv), "bytes");
  r.set("loadgen.offered_per_s",
        static_cast<double>(schedule.size()) / sc.durationS, "1/s");
  r.set("loadgen.lag_ms_p99", percentile(load.lagMs, 99.0), "ms",
        load.lagMs.size());

  // The simulator layers, on the sweep a tier-1 request for the first key
  // runs inside the server.
  const Oracle& first = oracles.front();
  SweepCase tier1;
  tier1.machine = first.machine;
  tier1.spec = first.spec;
  tier1.spec.threads = first.machine.logicalCores();
  for (int n = 1; n <= first.machine.logicalCores(); ++n) {
    tier1.coreCounts.push_back(n);
  }
  tier1.fitCores = first.fitCores;
  measureSweepLayers(tier1, 1.0, false, spans, r);
  r.set("core.model_err_pct", mean(errPct), "%", errPct.size());
}

}  // namespace perfbench
