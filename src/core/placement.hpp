#pragma once
/// \file placement.hpp
/// \brief Thread-placement optimization under power envelopes — the
///        "systematic way of optimizing the overall performance ... based on
///        the complexity estimates" the paper names as the model's purpose.
///
/// The distribution attribute trades time against power: co-locating STAMP
/// processes on one processor makes their mutual communication intra-processor
/// (cheap in time) but stacks their power against the per-processor cap;
/// spreading them makes communication inter-processor (expensive in time) but
/// spreads power over many envelopes.
///
/// We model a process by *distribution-agnostic* per-S-unit counters: total
/// shared-memory reads/writes and message sends/receives, without committing
/// them to the `_a` or `_e` columns. Under a concrete placement, assuming a
/// uniform communication pattern among the N processes, the fraction of a
/// process's communication that is intra-processor equals the fraction of its
/// peers co-located with it; the counters split accordingly and the standard
/// cost formulas apply.

#include "core/cost_model.hpp"
#include "core/envelope.hpp"
#include "core/metrics.hpp"

#include <span>
#include <string>
#include <vector>

namespace stamp {

/// Distribution-agnostic communication profile of one STAMP process.
struct ProcessProfile {
  double c_fp = 0;    ///< local fp ops per S-unit
  double c_int = 0;   ///< local int ops per S-unit
  double d_r = 0;     ///< shared-memory reads per S-unit (total, both dists)
  double d_w = 0;     ///< shared-memory writes per S-unit
  double m_s = 0;     ///< message sends per S-unit
  double m_r = 0;     ///< message receives per S-unit
  double kappa = 0;   ///< serialization/rollback bound per S-unit
  double units = 1;   ///< number of S-units the process executes

  /// Split the agnostic counters into intra/inter columns given the fraction
  /// of this process's communication that is intra-processor.
  [[nodiscard]] CostCounters split(double intra_fraction) const noexcept;
};

/// A concrete placement: processor id per process, processors numbered
/// chip-major over the machine topology.
struct Placement {
  std::vector<int> processor_of;

  [[nodiscard]] int group_size(int processor) const noexcept;
  [[nodiscard]] int processors_used() const noexcept;
};

/// Full evaluation of a placement: per-process costs, the parallel
/// composition, the chosen objective value, and envelope feasibility.
struct PlacementEvaluation {
  Placement placement;
  std::vector<Cost> process_costs;
  Cost total;            ///< parallel composition: max time, total energy
  double objective = 0;  ///< metric_value(total, objective)
  SystemCheck envelope;  ///< hierarchical power feasibility
  bool feasible = false;
};

/// Per-process cost when the process sits in a group of `group_size` out of
/// `total` processes under the uniform communication pattern assumption: the
/// intra fraction is (group_size - 1) / (total - 1), the counters split
/// accordingly, and the closed forms price one S-round scaled by the
/// profile's units. This is the kernel every placement evaluation reduces
/// to; the sweep's batch evaluator calls it directly to price uniform
/// placements without materializing per-process profile vectors.
[[nodiscard]] Cost process_cost_in_group(const ProcessProfile& prof,
                                         int group_size, int total,
                                         const MachineModel& machine) noexcept;

/// Evaluate `placement` of `profiles` on `machine` under `objective`.
/// Each process's intra fraction is (co-located peers)/(all peers).
[[nodiscard]] PlacementEvaluation evaluate_placement(
    std::span<const ProcessProfile> profiles, const Placement& placement,
    const MachineModel& machine, Objective objective);

/// Placement strategies. All return an evaluated placement; `feasible` is
/// false when no power-feasible assignment was found (the returned placement
/// is then the least-violating one examined).
struct PlacementResult {
  PlacementEvaluation eval;
  std::string strategy;
  long long placements_examined = 0;
};

/// Baseline: pack processes onto processor 0, 1, ... filling each to its
/// hardware thread count regardless of power.
[[nodiscard]] PlacementResult place_fill_first(
    std::span<const ProcessProfile> profiles, const MachineModel& machine,
    Objective objective);

/// Baseline: deal processes round-robin over all processors.
[[nodiscard]] PlacementResult place_round_robin(
    std::span<const ProcessProfile> profiles, const MachineModel& machine,
    Objective objective);

/// Greedy power-aware packing: fill processors with as many processes as the
/// per-processor envelope admits (re-evaluating power as co-location changes
/// communication costs), then spill to the next processor.
[[nodiscard]] PlacementResult place_greedy(
    std::span<const ProcessProfile> profiles, const MachineModel& machine,
    Objective objective);

/// Exact search over group-size compositions (valid when all profiles are
/// identical, which makes placements exchangeable). Throws ParamError for
/// heterogeneous profiles or more than `max_processes` (default 64) processes.
[[nodiscard]] PlacementResult place_exact_uniform(
    std::span<const ProcessProfile> profiles, const MachineModel& machine,
    Objective objective, int max_processes = 64);

/// Best of {fill-first, round-robin, greedy, exact-if-uniform} under
/// `objective`: feasible placements win over infeasible ones, then the lower
/// objective value. `Evaluator::best_placement` applies it on the
/// Evaluator's machine.
[[nodiscard]] PlacementResult place_best(std::span<const ProcessProfile> profiles,
                                         const MachineModel& machine,
                                         Objective objective);

}  // namespace stamp
