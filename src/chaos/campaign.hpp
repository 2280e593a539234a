#pragma once
/// \file campaign.hpp
/// \brief `chaos::Campaign` — deterministic enumeration of a scenario's
///        fault space, trial-by-trial invariant checking, and failing-
///        schedule collection.
///
/// A campaign first runs the scenario once under an empty replay schedule
/// ("observe" mode): nothing fires, but the injector counts every decision
/// stream — the census of the reachable fault space. It then enumerates
/// single-injection schedules (per selected site, per observed stream, per
/// decision index up to `budget`) and, from the singles that actually fired,
/// guided pair-wise combinations — each trial replayed verbatim through a
/// private `fault::Injector` on its own thread (`InjectorScope`), watched by
/// a `RetryPolicy`-clock watchdog, and judged by artifact byte-identity
/// against the uninjected reference.
///
/// Trials are parallelized over a `sweep::Pool`; results are keyed by trial
/// index and the report contains no wall-clock data, so the
/// `stamp-campaign/v1` artifact is byte-identical at any `--jobs`.

#include "chaos/scenario.hpp"
#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "sweep/pool.hpp"

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace stamp::chaos {

enum class TrialOutcome : std::uint8_t {
  Pass,   ///< artifact matched the uninjected reference
  Fail,   ///< artifact diverged — an invariant violation
  Error,  ///< the scenario threw (also an invariant violation)
  Hang,   ///< the watchdog expired before the trial finished
};

[[nodiscard]] const char* outcome_name(TrialOutcome outcome) noexcept;

/// Everything one trial produced.
struct TrialRun {
  TrialOutcome outcome = TrialOutcome::Pass;
  std::string artifact;  ///< scenario artifact (empty on error/hang)
  std::string error;     ///< what() of an escaped exception / watchdog note
  fault::Schedule fired;                   ///< injections that actually fired
  std::vector<fault::StreamStats> streams;  ///< decision-stream census
};

/// What a trial's private injector is armed with: a schedule replayed
/// verbatim (an empty one observes: nothing fires, every stream is counted)
/// or a seeded probabilistic plan.
using TrialArming = std::variant<fault::Schedule, fault::FaultPlan>;

/// Per-trial hang budget the tools use unless told otherwise.
inline constexpr int kDefaultWatchdogMs = 20000;

/// Run `scenario` once under `arming` on a dedicated thread with a private
/// injector. `reference` is the expected artifact (nullptr skips the
/// comparison — used for the reference run itself). `watchdog_ms <= 0`
/// disables the watchdog. Never throws for scenario failures; those come
/// back as the outcome.
[[nodiscard]] TrialRun run_trial(
    const std::shared_ptr<const Scenario>& scenario, const TrialArming& arming,
    int watchdog_ms, const std::string* reference);

struct CampaignOptions {
  /// Restrict enumeration to these sites (empty = every site the scenario
  /// declares). Sites the scenario does not declare sweep with magnitude 0.
  std::vector<fault::FaultSite> sites;
  std::uint64_t budget = 16;       ///< decision indices swept per stream
  std::uint64_t max_trials = 2048; ///< cap on single-injection trials
  std::uint64_t pair_budget = 64;  ///< cap on pair-wise trials
  int watchdog_ms = kDefaultWatchdogMs;  ///< trial hang budget (<= 0: none)
  bool shrink = false;             ///< ddmin failing schedules
  int shrink_failures = 4;         ///< shrink at most this many failures
  std::uint64_t shrink_trial_cap = 256;  ///< ddmin trial budget per failure
};

struct TrialResult {
  fault::Schedule schedule;  ///< what the trial was asked to replay
  fault::Schedule fired;     ///< what actually fired
  TrialOutcome outcome = TrialOutcome::Pass;
  std::string artifact;  ///< only kept for non-pass trials
  std::string error;
};

/// A failing trial's schedule after delta-debugging.
struct ShrunkFailure {
  std::size_t trial = 0;  ///< index into CampaignResult::trials
  fault::Schedule minimal;
  std::uint64_t trials_used = 0;  ///< ddmin probe trials spent
  bool verified = false;  ///< the minimal schedule re-ran and still failed
};

struct CampaignResult {
  std::string scenario;
  std::string reference;  ///< the uninjected invariant artifact
  std::vector<fault::FaultSite> sites;  ///< sites actually enumerated
  std::uint64_t budget = 0;
  std::uint64_t singles = 0;  ///< single-injection trials run
  std::uint64_t pairs = 0;    ///< pair-wise trials run
  std::uint64_t dropped = 0;  ///< enumerated beyond max_trials/pair_budget
  std::vector<TrialResult> trials;       ///< singles then pairs, stable order
  std::vector<std::size_t> failures;     ///< indices of non-pass trials
  std::vector<ShrunkFailure> minimal;    ///< shrunk failures (when enabled)
};

class Campaign {
 public:
  Campaign(std::shared_ptr<const Scenario> scenario, CampaignOptions options);

  /// Enumerate and run the whole campaign, parallelizing trials over `pool`.
  /// Throws std::runtime_error when the uninjected reference run itself
  /// fails (the scenario is broken — no trial verdict is meaningful).
  [[nodiscard]] CampaignResult run(sweep::Pool& pool) const;

 private:
  std::shared_ptr<const Scenario> scenario_;
  CampaignOptions options_;
};

/// Serialize as the `stamp-campaign/v1` JSON document (newline-terminated).
/// Pure function of the result — no timing data, byte-identical at any
/// worker count.
void write_campaign_json(std::ostream& os, const CampaignResult& result);

}  // namespace stamp::chaos
