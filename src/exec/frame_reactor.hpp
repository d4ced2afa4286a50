#pragma once

// The one poll(2) reactor under the fleet coordinator and the advisor
// server (DESIGN.md §16): listen socket and admission cap, wake pipe,
// connection table with the caller's per-connection State, frame drain
// and reaping. Policy stays with the caller, which calls turn() once per
// loop iteration.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.hpp"
#include "exec/frame_transport.hpp"

namespace occm::exec {

/// What a drain hands the caller: any RecvStatus but kTimeout. After
/// kClosed the link's readEof is set; after kCorrupt or kError it is dead.
using ReactorEvent = FrameTransport::RecvStatus;

/// The reactor-owned half of a connection table entry.
struct ReactorLink {
  std::uint64_t id = 0;  ///< never reused for the reactor's lifetime
  int fd = -1;           ///< poll handle; owned by the transport
  std::unique_ptr<FrameTransport> transport;
  /// Peer sent FIN. Its read side is permanent EOF, so it is no longer
  /// polled (that would spin the loop); sends still work.
  bool readEof = false;
  bool dead = false;  ///< reaped (fd closed) at the start of the next turn
  std::uint64_t acceptedAtMs = 0;
  std::uint64_t lastProgressMs = 0;  ///< last drain that saw new bytes

  /// Sends one frame; false when the link is or becomes dead (EPIPE).
  bool send(std::string_view payload);
};

/// Everything that does not depend on the caller's State.
class FrameReactorBase {
 public:
  /// Longest single poll, so callers re-check their tokens this often.
  static constexpr std::uint64_t kMaxPollMs = 50;

  /// A null factory means makeSocketTransport.
  FrameReactorBase(std::size_t maxConnections, TransportFactory factory);
  ~FrameReactorBase();
  FrameReactorBase(const FrameReactorBase&) = delete;
  FrameReactorBase& operator=(const FrameReactorBase&) = delete;

  /// Binds host:port (0 = ephemeral), opens the wake pipe, returns the
  /// bound port.
  [[nodiscard]] Expected<int, std::string> listen(const std::string& host,
                                                  int port);
  /// Closes the listen socket; live connections keep being served.
  void stopListening();
  /// Makes the current or next poll return. Safe from any thread.
  void wake();
  /// Time since construction — the callers' time axis.
  [[nodiscard]] std::uint64_t nowNs() const;
  [[nodiscard]] std::uint64_t nowMs() const { return nowNs() / 1'000'000; }
  [[nodiscard]] std::uint64_t accepted() const noexcept { return accepted_; }
  /// Accepts closed at the maxConnections cap.
  [[nodiscard]] std::uint64_t refused() const noexcept { return refused_; }
  /// Why the last turn failed.
  [[nodiscard]] const std::string& lastError() const noexcept {
    return lastError_;
  }

 protected:
  using Admit = std::function<ReactorLink&(std::uint64_t id)>;
  using OnLinkEvent =
      std::function<void(ReactorLink&, ReactorEvent, std::string&)>;
  /// Polls, accepts until EAGAIN (`admit` creates each entry under the
  /// cap; `live` entries exist) and drains each ready link.
  bool pollAcceptDrain(const std::vector<ReactorLink*>& watched,
                       std::optional<std::uint64_t> untilDeadlineMs,
                       std::size_t live, const Admit& admit,
                       const OnLinkEvent& onEvent);

 private:
  std::size_t maxConnections_;
  TransportFactory factory_;
  int listenFd_ = -1;
  int wakeRead_ = -1;
  int wakeWrite_ = -1;
  std::uint64_t accepted_ = 0;  ///< also the next connection id
  std::uint64_t refused_ = 0;
  std::string lastError_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

/// The reactor over a caller-defined per-connection session State.
template <typename State>
class FrameReactor : public FrameReactorBase {
 public:
  struct Connection : ReactorLink {
    State state;
  };
  using EventHandler =
      std::function<void(Connection&, ReactorEvent, std::string& payload)>;

  using FrameReactorBase::FrameReactorBase;

  /// The live table by id. Callers mark entries dead; only the reactor
  /// inserts and erases.
  [[nodiscard]] std::map<std::uint64_t, Connection>& connections() noexcept {
    return conns_;
  }
  /// The entry for `id`, or null once it was reaped.
  [[nodiscard]] Connection* find(std::uint64_t id) {
    const auto it = conns_.find(id);
    return it == conns_.end() ? nullptr : &it->second;
  }

  /// One loop iteration: reap dead connections, poll for
  /// min(untilDeadlineMs, kMaxPollMs), accept, then drain each readable
  /// connection into onEvent until it would block or is dead. False when
  /// poll fails (see lastError).
  [[nodiscard]] bool turn(std::optional<std::uint64_t> untilDeadlineMs,
                          const EventHandler& onEvent) {
    std::vector<ReactorLink*> watched;
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (it->second.dead) {
        it = conns_.erase(it);
        continue;
      }
      if (!it->second.readEof) {
        watched.push_back(&it->second);
      }
      ++it;
    }
    return pollAcceptDrain(
        watched, untilDeadlineMs, conns_.size(),
        [this](std::uint64_t id) -> ReactorLink& { return conns_[id]; },
        [&](ReactorLink& link, ReactorEvent event, std::string& payload) {
          onEvent(static_cast<Connection&>(link), event, payload);
        });
  }

 private:
  std::map<std::uint64_t, Connection> conns_;
};

}  // namespace occm::exec
