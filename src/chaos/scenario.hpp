#pragma once
/// \file scenario.hpp
/// \brief `chaos::Scenario` — a pluggable, invariant-bearing workload the
///        campaign engine explores fault schedules against.
///
/// A scenario is the campaign's unit of truth: `run()` executes one bounded
/// workload under the calling thread's current injector
/// (`fault::Injector::current()`) and returns a small *invariant artifact* —
/// a string that must be byte-identical to the uninjected reference run's
/// whenever the workload's resilience machinery (STM retries, mailbox
/// resends, supervised failover, simulator re-placement) masked the injected
/// faults. Anything schedule-dependent (timings, retry counts, abort counts)
/// is deliberately excluded from the artifact; a mismatch therefore means a
/// real invariant violation, not noise.
///
/// Every thread a scenario starts (executor processes, server workers and
/// readers, fleet coordinators) must draw from the trial thread's injector,
/// so concurrent trials never see each other's faults.
///
/// Scenarios must be thread-safe as objects (campaign trials run
/// concurrently, each on its own thread with its own injector override) and
/// deterministic modulo the armed schedule.

#include "fault/plan.hpp"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace stamp::chaos {

/// One fault site a scenario's workload reaches, declared once. The seeded
/// suite (`stamp_chaos run`) arms `spec` as is; campaign enumeration takes
/// only its magnitude. A zero-probability spec exposes the site to campaign
/// enumeration alone.
struct ScenarioSite {
  fault::FaultSite site = fault::FaultSite::StmAbort;
  fault::SiteSpec spec{};
};

class Scenario {
 public:
  virtual ~Scenario() = default;

  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// The fault sites this scenario's workload reaches, each with its spec.
  /// Campaign enumeration sweeps these (filtered by `--sites`).
  [[nodiscard]] virtual std::vector<ScenarioSite> sites() const = 0;

  /// Run the workload once under the calling thread's current injector and
  /// return the invariant artifact. May throw (an escaped exception is a
  /// trial failure in its own right); must terminate for every schedule that
  /// injects at most a handful of faults.
  [[nodiscard]] virtual std::string run() const = 0;
};

/// Registered scenario names, in registry order.
[[nodiscard]] std::vector<std::string> scenario_names();

/// Construct a scenario by name; nullptr for unknown names.
[[nodiscard]] std::shared_ptr<const Scenario> make_scenario(
    std::string_view name);

}  // namespace stamp::chaos
