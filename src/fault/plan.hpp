#pragma once
/// \file plan.hpp
/// \brief `FaultPlan` — the seeded, declarative description of a chaos
///        campaign: which injection sites fire, how often, how hard.
///
/// A plan is pure data; arming it on the `Injector` is what makes it live.
/// Each site carries a probability (per decision), a site-specific magnitude
/// (a delay in nanoseconds, a latency in model time units, a frequency
/// scale), an optional per-key injection cap, and an optional key filter for
/// targeting one actor (e.g. fail-stop exactly process 2).

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace stamp::fault {

/// Where a fault can be injected. Each site is an independent decision
/// stream; adding a site never perturbs the schedule of existing ones.
enum class FaultSite : std::uint8_t {
  StmAbort,         ///< force a transient conflict abort at STM commit
  MsgDrop,          ///< silently drop a mailbox send
  MsgDelay,         ///< delay a mailbox send (magnitude = nanoseconds)
  MsgDuplicate,     ///< deliver a mailbox send twice
  ProcStall,        ///< stall a process at start (magnitude = nanoseconds)
  ProcFailStop,     ///< fail-stop a process (throws ProcessFailure)
  SimLatencySpike,  ///< scale a simulated op's service demand by `magnitude`
  SimCoreFail,      ///< kill a simulated core (replay throws CoreFailure)
  SweepPointFail,   ///< fail a sweep grid-point evaluation (throws
                    ///< SweepPointFailure; key = grid index)
  ServeWorkerFail,  ///< crash a serve worker mid-request (the supervisor
                    ///< retries; key = request id)
  FleetWorkerKill,  ///< kill a fleet sweep worker after it is handed a shard
                    ///< (the coordinator reassigns; key = shard index)
  TestProbe,        ///< test-only site with no production hook: chaos
                    ///< campaign self-tests decide on it explicitly to seed
                    ///< a known invariant violation
};

inline constexpr std::size_t kFaultSiteCount = 12;

[[nodiscard]] constexpr std::size_t site_index(FaultSite s) noexcept {
  return static_cast<std::size_t>(s);
}

/// Stable lowercase name, used for metrics ("fault.<name>"), obs instant
/// events, stamp-schedule/v1 entries, and the stamp-chaos/v2 report.
[[nodiscard]] const char* site_name(FaultSite s) noexcept;

/// Inverse of site_name; empty optional for unknown names.
[[nodiscard]] std::optional<FaultSite> site_from_name(
    std::string_view name) noexcept;

/// Configuration of one injection site.
struct SiteSpec {
  double probability = 0;  ///< chance per decision, in [0, 1]
  double magnitude = 0;    ///< site-specific intensity (see FaultSite)
  /// Injections per key stop after this many (decisions keep advancing the
  /// counter, so the schedule of other keys is unaffected).
  std::uint64_t max_per_key = std::numeric_limits<std::uint64_t>::max();
  /// Restrict injection to exactly this key; -1 targets every key.
  std::int64_t only_key = -1;

  [[nodiscard]] bool armed() const noexcept { return probability > 0; }
};

/// A seeded set of site specs. Same plan + same logical decision streams =>
/// same fault schedule, at any thread count.
struct FaultPlan {
  std::uint64_t seed = 0;
  std::array<SiteSpec, kFaultSiteCount> sites{};

  /// Builder-style: arm one site. `max_per_key` caps injections per key;
  /// `only_key` targets a single key (-1 = all).
  FaultPlan& with(
      FaultSite site, double probability, double magnitude = 0,
      std::uint64_t max_per_key = std::numeric_limits<std::uint64_t>::max(),
      std::int64_t only_key = -1);

  [[nodiscard]] const SiteSpec& spec(FaultSite site) const noexcept {
    return sites[site_index(site)];
  }

  /// True iff any site has a positive probability.
  [[nodiscard]] bool any_armed() const noexcept;

  /// Throws std::invalid_argument on probabilities outside [0, 1] or
  /// negative magnitudes.
  void validate() const;
};

}  // namespace stamp::fault
