#pragma once
/// \file evaluator.hpp
/// \brief `stamp::Evaluator` — the single public entry point to the STAMP
///        stack.
///
/// Callers used to thread five subsystem types by hand: a `MachineModel`
/// into `runtime::run_distributed`, its `RunResult` plus a `PlacementMap`
/// into the cost model, per-process powers into the envelope checker,
/// synthesized traces into `machine::replay`, and a `SweepConfig` plus a
/// `Pool` into the sweep engine. The Evaluator owns the machine and the
/// objective once and exposes each workflow as one call — and because every
/// evaluation funnels through it, the observability layer (`src/obs/`) hangs
/// off the same object: construct with `tracing`/`metrics` on (or flip them
/// later) and every simulator replay, executor run, pool loop, and cache
/// access records spans and metrics you can export as Chrome trace JSON.
///
/// The layers underneath (`sweep::run_sweep`, `search::run_search`,
/// `place_best`, `runtime::run_processes`) stay public for code that drives
/// one subsystem directly; the Evaluator is the one place that turns a thread
/// count into a pool.

#include "api/search_types.hpp"
#include "core/core.hpp"
#include "fault/fault.hpp"
#include "machine/simulator.hpp"
#include "machine/trace.hpp"
#include "obs/obs.hpp"
#include "runtime/executor.hpp"
#include "sweep/sweep.hpp"

#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace stamp {

/// Everything an Evaluator pins down at construction.
struct EvaluatorOptions {
  MachineModel machine = presets::niagara();
  Objective objective = Objective::EDP;
  /// Enable the process-wide span recorder / metrics registry on
  /// construction. Both default off; when off, the instrumented subsystems
  /// pay one relaxed atomic load per site and record nothing.
  bool tracing = false;
  bool metrics = false;
};

/// Full model evaluation of one execution (or one profile set) on the
/// Evaluator's machine.
struct Evaluation {
  std::vector<Cost> process_costs;  ///< per-process analytic cost
  Cost total;                       ///< parallel composition (max T, sum E)
  Metrics metrics;                  ///< D / PDP / EDP / ED²P of `total`
  double objective_value = 0;       ///< metric_value(total, objective)
  SystemCheck envelope;             ///< hierarchical power feasibility
  bool feasible = false;            ///< envelope.feasible
};

/// A run together with the placement that shaped its costs.
struct RunOutcome {
  runtime::RunResult run;
  runtime::PlacementMap placement;
};

class Evaluator {
 public:
  Evaluator() : Evaluator(EvaluatorOptions{}) {}
  explicit Evaluator(EvaluatorOptions options);

  [[nodiscard]] const MachineModel& machine() const noexcept {
    return options_.machine;
  }
  [[nodiscard]] Objective objective() const noexcept {
    return options_.objective;
  }

  // -- execute ---------------------------------------------------------------

  /// Run `body` as `processes` STAMP processes placed per `distribution` on
  /// the Evaluator's machine topology. Blocks until all processes complete.
  [[nodiscard]] RunOutcome run(int processes, Distribution distribution,
                               const runtime::ProcessBody& body) const;

  // -- evaluate --------------------------------------------------------------

  /// Price a finished run's recorded counters under `placement` with the
  /// machine's cost model, and check the power envelope.
  [[nodiscard]] Evaluation evaluate(const runtime::RunResult& run,
                                    const runtime::PlacementMap& placement) const;

  /// Convenience: run, then evaluate under the same placement.
  [[nodiscard]] std::pair<RunOutcome, Evaluation> run_and_evaluate(
      int processes, Distribution distribution,
      const runtime::ProcessBody& body) const;

  /// Like `run`, but supervised: an injected fail-stop retires the hosting
  /// processor and the whole program re-runs on the surviving placement
  /// (fill-first over the remaining processors, same process count).
  [[nodiscard]] runtime::SupervisedResult run_supervised(
      int processes, Distribution distribution,
      const runtime::ProcessBody& body, int max_failovers = 1) const;

  // -- fault injection -------------------------------------------------------

  /// Arm `plan` on the process-wide fault injector (shared by all Evaluators,
  /// like the obs recorders: the hook sites it drives are process-wide). With
  /// no plan armed every hook site costs one relaxed atomic load. Same seed
  /// => same fault schedule at any thread count.
  static void with_faults(const fault::FaultPlan& plan) {
    fault::Injector::global().arm(plan);
  }
  /// Stop injecting; counters stay readable until the next `with_faults`.
  static void clear_faults() noexcept { fault::Injector::global().disarm(); }
  [[nodiscard]] static bool faults_armed() noexcept {
    return fault::Injector::global().armed();
  }
  /// The process-wide injector (for reading injection counters).
  [[nodiscard]] static fault::Injector& injector() noexcept {
    return fault::Injector::global();
  }

  // -- decide ----------------------------------------------------------------

  /// Best placement of `profiles` on the machine under the Evaluator's
  /// objective: best of {fill-first, round-robin, greedy, exact-if-uniform}.
  [[nodiscard]] PlacementResult best_placement(
      std::span<const ProcessProfile> profiles) const;

  // -- simulate --------------------------------------------------------------

  /// Replay per-process traces on the explicit-resource machine simulator.
  [[nodiscard]] machine::SimResult simulate(
      const std::vector<machine::ProcessTrace>& traces,
      const runtime::PlacementMap& placement,
      const machine::SimConfig& config = {}) const;

  /// Synthesize traces from a finished run's recorders (preserving the
  /// S-unit/S-round structure) and replay them.
  [[nodiscard]] machine::SimResult simulate_run(
      const runtime::RunResult& run, const runtime::PlacementMap& placement,
      CommMode comm = CommMode::Synchronous,
      const machine::SimConfig& config = {}) const;

  // -- sweep -----------------------------------------------------------------

  /// Evaluate a parameter grid exhaustively. `options` carries everything
  /// that shapes the run: worker threads (`options.threads` > 1 uses a
  /// work-stealing pool and produces a byte-identical artifact to the serial
  /// run), a write-ahead journal of completed points, resume from a previous
  /// journal, cooperative cancellation, and a per-point deadline — see
  /// `sweep::SweepOptions`. Evaluation streams through the batch evaluator
  /// (sweep/batch.hpp): the grid is decoded lazily in structure-of-arrays
  /// chunks, so a 10⁶–10⁸-point config (e.g. `SweepConfig::large()`) costs
  /// memory only for its records. The config's own base machine and
  /// objective apply (a sweep explores many machines; the Evaluator's
  /// machine is not forced onto it). The pool is cached on the Evaluator and
  /// reused by later `sweep`/`optimize` calls of the same width, so a loop
  /// of sweeps spawns its worker threads once, not per call.
  [[nodiscard]] sweep::SweepResult sweep(
      const sweep::SweepConfig& config,
      const sweep::SweepOptions& options = {}) const;

  // -- search ----------------------------------------------------------------

  /// Find the grid's optimum without pricing every point. Dispatches on
  /// `request.method` (src/search/search.hpp): branch-and-bound returns the
  /// bit-identical winning record the exhaustive sweep's argmin would pick
  /// while expanding only the subtrees its admissible bounds cannot prune;
  /// annealing is a seeded heuristic; exhaustive is the oracle. Leaf pricing
  /// reuses the Evaluator's cached pool when `request.threads` > 1.
  [[nodiscard]] SearchResult optimize(const SearchRequest& request) const;

  // -- observability ---------------------------------------------------------

  /// Flip the process-wide recorders (shared by all Evaluators by design:
  /// the subsystems they observe are process-wide too).
  static void set_tracing(bool on) noexcept { obs::set_tracing_enabled(on); }
  [[nodiscard]] static bool tracing() noexcept { return obs::tracing_enabled(); }
  static void set_metrics(bool on) noexcept { obs::set_metrics_enabled(on); }
  [[nodiscard]] static bool metrics_on() noexcept {
    return obs::metrics_enabled();
  }

  /// Export everything recorded so far as Chrome trace_event JSON
  /// (chrome://tracing, Perfetto).
  static void write_trace(std::ostream& os);
  [[nodiscard]] static std::string trace_json();
  /// Drop recorded spans (thread registrations survive).
  static void clear_trace();

  /// The process-wide metrics registry and its flat JSON export.
  [[nodiscard]] static obs::MetricsRegistry& metrics_registry() noexcept {
    return obs::MetricsRegistry::global();
  }
  static void write_metrics(std::ostream& os);

 private:
  /// Returns the cached pool, rebuilding it when the width changed. The
  /// caller must hold `sweep_pool_mutex_` (and keep holding it for the
  /// duration of the parallel loop using the pool).
  [[nodiscard]] sweep::Pool* pool_for(int threads) const;

  EvaluatorOptions options_;
  /// Sweep-pool cache: rebuilt only when a pooled `sweep`/`optimize` call
  /// asks for a different width; a single-threaded call never touches it.
  /// Mutable because pooling threads is a caching detail of the
  /// logically-const sweep; the mutex serializes concurrent pooled calls on
  /// one Evaluator (the pool itself allows only one loop at a time anyway).
  mutable std::mutex sweep_pool_mutex_;
  mutable std::unique_ptr<sweep::Pool> sweep_pool_;
};

}  // namespace stamp
