#pragma once
/// \file executor.hpp
/// \brief Real multithreaded execution of STAMP programs with per-process
///        instrumentation.
///
/// The executor runs one OS thread per STAMP process (processes are
/// abstractions of hardware threads, and the algorithms we run use modest
/// process counts). Each process receives a `Context` giving its id, its
/// logical placement, and its private `Recorder`. After the run, the
/// per-process counter records feed the analytic cost model — this is the
/// "measured" column of the benches.

#include "core/cost_model.hpp"
#include "runtime/instrument.hpp"
#include "runtime/placement_map.hpp"

#include <chrono>
#include <functional>
#include <vector>

namespace stamp::runtime {

/// Everything a STAMP process body may touch.
class Context {
 public:
  Context(int id, Recorder& recorder, const PlacementMap& placement)
      : id_(id), recorder_(&recorder), placement_(&placement) {}

  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] int process_count() const noexcept {
    return placement_->process_count();
  }
  [[nodiscard]] Recorder& recorder() const noexcept { return *recorder_; }
  [[nodiscard]] const PlacementMap& placement() const noexcept {
    return *placement_;
  }

  /// True iff `peer` is co-located on this process's processor — the
  /// classification every substrate uses to charge intra vs inter.
  [[nodiscard]] bool intra_with(int peer) const {
    return placement_->same_processor(id_, peer);
  }

  /// Count local work (the body still performs the real computation; these
  /// record what the model charges).
  void fp_ops(double n) const noexcept { recorder_->count_fp(n); }
  void int_ops(double n) const noexcept { recorder_->count_int(n); }

 private:
  int id_;
  Recorder* recorder_;
  const PlacementMap* placement_;
};

/// The body of a STAMP process.
using ProcessBody = std::function<void(Context&)>;

/// Result of one execution: per-process recorders plus wall-clock time.
struct RunResult {
  std::vector<Recorder> recorders;
  std::chrono::nanoseconds wall_time{0};

  /// Per-process model cost, evaluated with each process's placement-derived
  /// ProcessCounts.
  [[nodiscard]] std::vector<Cost> process_costs(const PlacementMap& placement,
                                                const MachineParams& mp,
                                                const EnergyParams& ep) const;

  /// Parallel composition of the per-process costs (max time, total energy).
  [[nodiscard]] Cost total_cost(const PlacementMap& placement,
                                const MachineParams& mp,
                                const EnergyParams& ep) const;

  /// Sum of all counters over all processes.
  [[nodiscard]] CostCounters total_counters() const;
};

/// Runs `body` once per process under `placement`; blocks until all complete.
/// Any exception escaping a process body is rethrown (first one wins) after
/// all threads have been joined.
[[nodiscard]] RunResult run_processes(const PlacementMap& placement,
                                      const ProcessBody& body);

/// What `run_supervised` did to complete the run.
struct SupervisedResult {
  RunResult result;       ///< the successful run (failed attempts discarded)
  PlacementMap placement; ///< the placement the successful run used
  std::vector<int> failed_processes;    ///< fail-stopped process ids, in order
  std::vector<int> excluded_processors; ///< processors retired across failovers

  [[nodiscard]] bool failed_over() const noexcept {
    return !failed_processes.empty();
  }
};

/// Supervised execution: like `run_processes`, but an injected fail-stop
/// (fault::ProcessFailure) retires the hosting processor and re-runs the
/// whole program on the surviving placement (same process count, fill-first
/// over the remaining processors). Gives up — rethrowing the failure — after
/// `max_failovers` re-placements, or when the survivors cannot host all
/// processes. Other exceptions propagate unchanged.
[[nodiscard]] SupervisedResult run_supervised(const PlacementMap& placement,
                                              const ProcessBody& body,
                                              int max_failovers = 1);

/// Convenience: place `n` processes per `distribution` on `topology`, run.
/// `Evaluator::run` does the same on the Evaluator's machine.
[[nodiscard]] RunResult run_distributed(const Topology& topology, int n,
                                        Distribution distribution,
                                        const ProcessBody& body);

}  // namespace stamp::runtime
