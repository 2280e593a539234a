#pragma once
/// \file sweep.hpp
/// \brief The parameter-sweep engine: evaluate the STAMP cost model (and the
///        classical baselines) over a Cartesian grid of machine parameters
///        and thread placements, on the calling thread or a work-stealing
///        pool, with deterministic, gate-able JSON artifacts.
///
/// Each grid point describes one machine configuration (cores, hardware
/// threads per core, inter-processor ℓ / L / g), one workload serialization
/// bound κ, and one placement strategy. Evaluating a point answers the
/// paper's selection question for that configuration: the total workload is
/// strong-scaled across candidate process counts (1, 2, 4, ... up to the
/// point's hardware thread count), each candidate's placement is evaluated,
/// and the best count under the sweep objective wins. All four selection
/// metrics (D, PDP, EDP, ED²P) derive from that one winning (T, E) pair.
/// When the grid repeats a tuple, that pair is memoized per canonical
/// parameter tuple and the cache is probed once per point; when every tuple
/// is distinct, no probe could hit and the sweep runs without a cache.
/// Records are stored by grid index, which makes an N-thread sweep
/// byte-identical to a 1-thread sweep.
///
/// Evaluation itself runs through the batch evaluator (batch.hpp): workers
/// claim contiguous index ranges, stream-decode them into structure-of-arrays
/// scratch, and price them in closed-form loops — grids are never
/// materialized, so a 10⁶–10⁸-point sweep streams at constant memory (plus
/// the records themselves).

#include "core/cancel.hpp"
#include "core/metrics.hpp"
#include "core/params.hpp"
#include "core/placement.hpp"
#include "models/models.hpp"
#include "sweep/cache.hpp"
#include "sweep/grid.hpp"
#include "sweep/pool.hpp"

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace stamp::sweep {

/// Placement strategies a sweep can compare. Axis values are the enum's
/// numeric codes.
enum class PlacementStrategy : int { FillFirst = 0, RoundRobin = 1, Greedy = 2 };

[[nodiscard]] std::string_view to_string(PlacementStrategy s) noexcept;

/// Canonical axis names the engine understands. An axis that is absent from
/// the grid keeps the base machine's (or profile's) value for every point.
namespace axes {
inline constexpr std::string_view kCores = "cores";
inline constexpr std::string_view kThreadsPerCore = "threads_per_core";
inline constexpr std::string_view kEllE = "ell_e";
inline constexpr std::string_view kLE = "L_e";
inline constexpr std::string_view kGShE = "g_sh_e";
inline constexpr std::string_view kKappa = "kappa";
inline constexpr std::string_view kPlacement = "placement";
/// Upper bound on the process counts tried at the point (overrides
/// `SweepConfig::processes`; still clamped to the point's hardware threads).
inline constexpr std::string_view kProcesses = "processes";
}  // namespace axes

struct SweepConfig {
  ParamGrid grid;

  /// Non-swept machine parameters (name, chips, intra-processor latencies,
  /// energy weights, power envelope) come from here.
  MachineModel base = presets::niagara();

  /// The *total* workload of the job; at each candidate process count n the
  /// additive counters split n ways (strong scaling). `kappa` is a
  /// per-location bound, so it is not divided; the κ axis overrides it.
  ProcessProfile profile;

  /// Upper bound on the process counts tried per point (further clamped to
  /// the point's hardware thread count). Candidates are the powers of two up
  /// to the bound, plus the bound itself.
  int processes = 64;

  /// Objective handed to the placement strategy (all four metrics are
  /// recorded regardless).
  Objective objective = Objective::EDP;

  std::string workload = "uniform-comm";

  /// Bound on each CostCache shard (0 = unbounded). Only grids that repeat a
  /// tuple build a cache (`ParamGrid::tuples_distinct`); a huge streaming
  /// grid with repeats should bound it instead of letting memoization grow
  /// with the grid. Eviction never changes results — only recompute rates.
  std::size_t cache_entries_per_shard = 0;

  /// The checked-in baseline configuration: a 576-point grid
  /// (4 cores × 3 threads/core × 2 ℓ_e × 2 L_e × 2 g_sh_e × 2 κ ×
  /// 3 placements) over a Niagara-like chip with a communicating workload.
  [[nodiscard]] static SweepConfig canonical();

  /// A 16-point grid for smoke tests.
  [[nodiscard]] static SweepConfig tiny();

  /// A 1,179,648-point streaming grid (the canonical machine axes refined
  /// with linspace, crossed with κ, placement and process-bound axes) for
  /// scaling benchmarks: large enough that per-point work dominates pool
  /// overhead, never materialized (decoded on the fly). Its tuples are all
  /// distinct, so it runs without a cache.
  [[nodiscard]] static SweepConfig large();
};

/// Everything one grid point pins down: the machine the point describes, the
/// total workload profile with the point's κ, the process-count bound, and
/// the placement strategy. Public so tools can re-derive a point's
/// configuration — e.g. to replay its winning placement on the machine
/// simulator.
struct PointSetup {
  MachineModel machine;
  ProcessProfile profile;  ///< total workload (strong-scale before placing)
  int processes = 0;
  PlacementStrategy strategy = PlacementStrategy::FillFirst;
};

/// Resolve a grid point's axis values against the sweep's base machine and
/// profile. `values` must follow the grid's axis order (`grid.point(i)`).
[[nodiscard]] PointSetup setup_point(const SweepConfig& cfg,
                                     std::span<const double> values);

/// Split the total workload over n processes: additive counters divide,
/// kappa (a per-location bound) and units do not.
[[nodiscard]] ProcessProfile strong_scaled(const ProcessProfile& total, int n);

/// One evaluated grid point.
struct SweepRecord {
  std::size_t index = 0;           ///< grid index (records stay sorted by it)
  std::vector<double> params;      ///< axis values, grid-axis order
  int processes = 0;               ///< selected process count
  bool feasible = false;           ///< power-envelope feasibility
  Metrics metrics{};               ///< D / PDP / EDP / ED²P of the placement
  std::array<double, models::kModelKindCount> classical{};  ///< round times

  friend bool operator==(const SweepRecord&, const SweepRecord&) = default;
};

/// `cache_hits + cache_misses` is the number of points priced this run plus
/// the resumed points seeded into the cache. A sweep without a cache
/// (`cache_bypassed`) counts every point it priced as a miss.
struct SweepStats {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  /// True when every tuple of the grid is distinct, so the sweep priced each
  /// point directly instead of through a CostCache that could never hit.
  bool cache_bypassed = false;
  std::uint64_t pool_steals = 0;
  std::uint64_t resumed_points = 0;    ///< replayed verbatim from a journal
  std::uint64_t journaled_points = 0;  ///< appended to the journal this run
  std::uint64_t skipped_points = 0;    ///< left unevaluated by cancellation

  friend bool operator==(const SweepStats&, const SweepStats&) = default;
};

struct SweepResult {
  std::vector<std::string> axis_names;
  std::string workload;
  Objective objective = Objective::EDP;
  std::vector<SweepRecord> records;  ///< one per grid point, by index
  SweepStats stats;                  ///< not serialized (runtime detail)
  /// True when a CancelToken tripped before every point completed: the
  /// records of skipped points are default-initialized, so the result must
  /// not be serialized as a finished artifact. Not serialized itself.
  bool cancelled = false;
};

class Journal;      // journal.hpp
class ResumeState;  // journal.hpp

/// Durability and lifecycle knobs for a sweep run. All default to "off".
struct SweepOptions {
  /// Cooperative cancellation: checked per grid point (and per claimed pool
  /// batch). In-flight points finish and are journaled; unstarted points are
  /// skipped and the result comes back with `cancelled = true`.
  const core::CancelToken* cancel = nullptr;
  /// Write-ahead journal: every completed point is appended (checksummed,
  /// fsync-batched) before the sweep finishes, so a crash loses at most the
  /// unsynced tail, never the whole run.
  Journal* journal = nullptr;
  /// Replay state from a previous journal: completed points are copied into
  /// the result verbatim (byte-identical serialization) and, when the grid
  /// repeats a tuple, their memoized costs pre-seed the CostCache; only
  /// missing points are evaluated.
  const ResumeState* resume = nullptr;
  /// Per-point watchdog (0 = none): an evaluation that takes longer than
  /// this fails the sweep with fault::DeadlineExceeded once it returns,
  /// instead of silently wedging a production run. Uses the same clock
  /// plumbing as fault::RetryPolicy.
  std::chrono::nanoseconds point_deadline{0};
  /// Worker threads `Evaluator::sweep` (api/evaluator.hpp) evaluates with:
  /// <= 1 runs on the calling thread, > 1 uses the evaluator's cached pool.
  /// `run_sweep` ignores this field; it runs on the pool it is handed.
  int threads = 1;
};

/// Evaluate every grid point on `pool`, or on the calling thread when `pool`
/// is nullptr — the engine layer under `Evaluator::sweep`. Output is
/// identical (including byte-identical JSON) for every pool width and
/// without one, and a resumed-and-completed sweep yields an artifact
/// byte-identical to an uninterrupted run. A failing point does not stop the
/// sweep: every other point is evaluated and journaled, then the first
/// failure is rethrown (see `BatchEvaluator::run`).
[[nodiscard]] SweepResult run_sweep(const SweepConfig& cfg, Pool* pool,
                                    const SweepOptions& options = {});

/// Serialize in the stable `stamp-sweep/v1` schema: fixed key order, records
/// sorted by grid index, numbers via JsonWriter's canonical formatting.
/// Throws std::runtime_error when the stream reports failure (ENOSPC, a
/// closed pipe): an artifact emitter must never "succeed" silently on a
/// torn write.
void write_json(const SweepResult& result, std::ostream& os);

/// Convenience: the artifact as a string.
[[nodiscard]] std::string to_json(const SweepResult& result);

}  // namespace stamp::sweep
