#pragma once
/// \file injector.hpp
/// \brief The fault injector: deterministic, seeded decisions behind one
///        relaxed atomic branch (the same disabled-is-free pattern as
///        `src/obs/`).
///
/// Instrumented subsystems ask `injection_enabled()` (one relaxed load) and,
/// only when armed, call `Injector::current().decide(site, key)`. A decision
/// is a pure function of (plan seed, site, key, per-(site,key) decision
/// index): per-key counters make the schedule independent of thread
/// interleaving as long as each actor's own decision sequence is
/// deterministic — which it is, because an actor's decisions follow its
/// program order. Same seed => same fault schedule at any worker count.
///
/// `Injector::current()` resolves to a thread-local override installed by
/// `InjectorScope` (how chaos trials, seeded or replayed, run concurrently
/// with private injectors) and falls back to the process-wide
/// `Injector::global()` that `Evaluator::with_faults` arms (`stamp_sweep
/// --fail-seed`, `stamp_serve`'s fault flags).
///
/// Two modes:
///  - probabilistic (`arm`): a `FaultPlan` draws per-decision from the
///    counter PRNG; every fired injection is recorded into a
///    `fault::Schedule` readable via `recorded()`.
///  - replay (`arm_replay`): a schedule is replayed verbatim — injections
///    fire at exactly the recorded (site, key, decision) triples, carrying
///    the recorded magnitudes, and nowhere else. An empty schedule is
///    "observe" mode: every decision stream is counted (see
///    `observed_streams()`) but nothing fires.
///
/// Every injection emits an `obs` instant event (when tracing is on) and a
/// `fault.<site>` metrics counter (when metrics are on), plus always-on
/// internal counters. Suppressed injections (armed
/// site filtered by `only_key` or capped by `max_per_key`) are counted too,
/// so a campaign can tell "site never reached" from "reached but capped".

#include "fault/plan.hpp"
#include "fault/prng.hpp"
#include "fault/schedule.hpp"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace stamp::fault {

/// Thrown by a fail-stop injection inside an executor process body; the
/// supervised executor catches it and re-runs on the surviving placement.
class ProcessFailure : public std::runtime_error {
 public:
  explicit ProcessFailure(int process)
      : std::runtime_error("injected fail-stop in process " +
                           std::to_string(process)),
        process_(process) {}

  [[nodiscard]] int process() const noexcept { return process_; }

 private:
  int process_;
};

/// Thrown by the machine simulator when a SimCoreFail decision fires for an
/// occupied core: the replay cannot continue on the dead core. Callers
/// re-place around the core (PlacementMap::fill_first_excluding) and replay
/// again — the simulated twin of the supervised executor's failover.
class CoreFailure : public std::runtime_error {
 public:
  explicit CoreFailure(int core)
      : std::runtime_error("injected core failure on core " +
                           std::to_string(core)),
        core_(core) {}

  [[nodiscard]] int core() const noexcept { return core_; }

 private:
  int core_;
};

/// Thrown by the sweep engine when a SweepPointFail decision fires for a grid
/// point (key = grid index). The pool records it as the loop's first error
/// and rethrows after draining, so every other in-flight point still
/// completes (and journals) before the sweep fails — which is what makes the
/// kill-and-resume loop deterministic.
class SweepPointFailure : public std::runtime_error {
 public:
  explicit SweepPointFailure(std::size_t index)
      : std::runtime_error("injected failure at sweep grid point " +
                           std::to_string(index)),
        index_(index) {}

  [[nodiscard]] std::size_t index() const noexcept { return index_; }

 private:
  std::size_t index_;
};

/// What a fired decision tells the hook site.
struct Injection {
  double magnitude = 0;  ///< the site spec's (or replayed entry's) magnitude
};

/// One observed (site, key) decision stream — the census `observe` mode (an
/// empty replay) produces, which is what the campaign enumerates over.
struct StreamStats {
  FaultSite site = FaultSite::StmAbort;
  std::uint64_t key = 0;
  std::uint64_t decisions = 0;  ///< decisions taken on this stream
  std::uint64_t injected = 0;   ///< injections fired on this stream
};

namespace detail {
/// Count of armed injectors in the process (global + per-trial overrides).
/// Hook sites only pay more than one relaxed load when it is non-zero.
extern std::atomic<int> g_armed_injectors;
}  // namespace detail

/// The branch every hook site takes: one relaxed load. True iff at least one
/// injector in the process is armed (replay/observe mode counts: observation
/// needs the decision streams walked even when nothing fires).
[[nodiscard]] inline bool injection_enabled() noexcept {
  return detail::g_armed_injectors.load(std::memory_order_relaxed) > 0;
}

class Injector {
 public:
  enum class Mode : std::uint8_t { Probabilistic, Replay };

  Injector();
  ~Injector();

  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  /// Install `plan` and reset all decision state. Not thread-safe against
  /// in-flight decisions: arm/disarm between workloads, not during them.
  void arm(const FaultPlan& plan);

  /// Install `schedule` for verbatim replay and reset all decision state.
  /// Only the recorded (site, key, decision) triples fire, carrying their
  /// recorded magnitudes; plan gating (probability, only_key, max_per_key)
  /// does not apply. An empty schedule observes: streams are counted,
  /// nothing fires.
  void arm_replay(const Schedule& schedule);

  /// Stop injecting; decision state is kept so reports can still be read,
  /// and cleared by the next `arm`/`arm_replay`.
  void disarm() noexcept;

  [[nodiscard]] bool armed() const noexcept { return armed_; }
  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// One decision for `key`'s stream at `site`. Returns the injection (with
  /// its magnitude) when it fires, nullopt otherwise. Deterministic in
  /// (seed, site, key, decision index); never fires when disarmed.
  std::optional<Injection> decide(FaultSite site, std::uint64_t key);

  /// Like `decide`, keyed by the calling thread's actor key (see ActorScope).
  /// Hook sites with no process/task id at hand use this.
  std::optional<Injection> decide_here(FaultSite site);

  /// Always-on counters since the last arm (deterministic under the same
  /// guarantee as the decisions themselves).
  [[nodiscard]] std::uint64_t injected(FaultSite site) const noexcept;
  [[nodiscard]] std::uint64_t decisions(FaultSite site) const noexcept;

  /// Injections an armed site wanted to fire but could not: the decision was
  /// filtered by `only_key` or the per-key `max_per_key` budget was already
  /// spent. Distinguishes "site never reached" (decisions == 0) from
  /// "reached but capped" (suppressed > 0).
  [[nodiscard]] std::uint64_t suppressed(FaultSite site) const noexcept;

  /// (site name, injected count) for every site with a non-zero count, in
  /// site declaration order.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  injected_by_site() const;

  /// Every injection fired since the last arm, as a canonical Schedule —
  /// the replayable record of what actually happened.
  [[nodiscard]] Schedule recorded() const;

  /// Every (site, key) stream touched since the last arm, sorted by
  /// (site declaration index, key) — the census campaign enumeration uses.
  [[nodiscard]] std::vector<StreamStats> observed_streams() const;

  /// The process-wide injector `Evaluator::with_faults` arms.
  [[nodiscard]] static Injector& global();

  /// The injector hook sites consult: the calling thread's `InjectorScope`
  /// override when one is active, else `global()`.
  [[nodiscard]] static Injector& current() noexcept;

 private:
  struct KeyState {
    FaultSite site = FaultSite::StmAbort;
    std::uint64_t key = 0;
    std::uint64_t decisions = 0;
    std::uint64_t injected = 0;
  };
  struct Shard {
    std::mutex mutex;
    std::unordered_map<std::uint64_t, KeyState> keys;
    std::vector<ScheduleEntry> fired;  ///< record of this shard's injections
  };

  static constexpr std::size_t kShardCount = 16;

  [[nodiscard]] Shard& shard_for(std::uint64_t stream) noexcept;
  void reset_state();
  void set_enabled_contribution(bool on) noexcept;
  void note_suppressed(FaultSite site);

  FaultPlan plan_{};
  Mode mode_ = Mode::Probabilistic;
  bool armed_ = false;
  bool contributing_ = false;  ///< counted in detail::g_armed_injectors
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Replay mode: stream hash -> (decision index -> magnitude), built once
  /// at arm_replay and read without locks during decide.
  std::unordered_map<std::uint64_t, std::map<std::uint64_t, double>> replay_;
  std::array<std::atomic<std::uint64_t>, kFaultSiteCount> injected_{};
  std::array<std::atomic<std::uint64_t>, kFaultSiteCount> decisions_{};
  std::array<std::atomic<std::uint64_t>, kFaultSiteCount> suppressed_{};
};

/// RAII thread-local override for `Injector::current()`. A chaos trial
/// installs its private injector on the trial thread, and the threads a
/// scenario starts inherit it (the executor's process threads, a
/// `serve::Server`'s workers and readers), so concurrent trials never share
/// decision state.
class InjectorScope {
 public:
  explicit InjectorScope(Injector& injector) noexcept;
  ~InjectorScope();

  InjectorScope(const InjectorScope&) = delete;
  InjectorScope& operator=(const InjectorScope&) = delete;

 private:
  Injector* previous_;
};

/// RAII thread-local actor key for `decide_here`. The executor scopes each
/// process thread to its process id; chaos scenarios scope each logical
/// task to its task id — which is what makes mailbox-level decisions
/// deterministic at any worker count.
class ActorScope {
 public:
  explicit ActorScope(std::uint64_t key) noexcept;
  ~ActorScope();

  ActorScope(const ActorScope&) = delete;
  ActorScope& operator=(const ActorScope&) = delete;

 private:
  std::uint64_t previous_;
};

/// The calling thread's actor key (0 when no ActorScope is active).
[[nodiscard]] std::uint64_t current_actor() noexcept;

}  // namespace stamp::fault
