#pragma once
/// \file batch.hpp
/// \brief The structure-of-arrays batch evaluator behind every grid
///        evaluation (sweep, search, serve) — the hot path for streaming
///        million-point grids.
///
/// The scalar path paid, per grid point: one `grid.point()` allocation,
/// eight axis-name lookups, a full `MachineModel` copy + `validate()`, four
/// `CostCache` probes for one computation, a per-candidate profile-vector
/// assign inside `place_*`, and five scalar classical-model calls. None of
/// that work changes the artifact — so the batch evaluator restructures it
/// without changing a single output bit:
///
///  - a claimed index range is decoded in one `ParamGrid::decode_chunk` call
///    into thread-local structure-of-arrays scratch (zero per-batch
///    allocation once warm);
///  - consecutive points that share machine-axis values (the grid's slow
///    axes) reuse one validated `MachineModel` instead of copy+validate per
///    point;
///  - a grid whose tuples are all distinct (`ParamGrid::tuples_distinct`) is
///    priced with no `CostCache` at all, since no probe could ever hit; any
///    other grid probes its cache once per point (all four metrics derive
///    from the one memoized `(T, E)` pair), not once per metric;
///  - the price of each candidate process count is memoized per thread while
///    the machine, κ and strategy stay the same, so a point whose process
///    bound is 64 reuses the candidates n <= 16 its bound-16 neighbour
///    priced;
///  - uniform-profile placements (the only kind a sweep evaluates — every
///    candidate strong-scales one total profile into n identical processes)
///    are priced by `process_cost_in_group` over a per-group-size table
///    computed in a tight closed-form loop, replicating `place_fill_first` /
///    `place_round_robin` / `place_greedy` arithmetic exactly but without
///    materializing profile vectors, `Placement` objects, or per-process
///    cost vectors;
///  - classical baselines are evaluated per machine-group run with
///    `models::round_time_batch` (loop-invariant parameters, contiguous
///    per-point data).
///
/// Bit-identity with the scalar reference is the contract, not an
/// aspiration: the tests keep the original scalar pipeline alive as an
/// oracle and compare every record of real grids against it, and CI's sweep
/// gate still `cmp`s artifacts against `sweeps/baseline.json` at several
/// pool widths. Durability semantics survive per-index: resume-completed
/// points are skipped, the fault-injection site and deadline watchdog fire
/// per index, every completed point reaches the journal, and cancellation
/// is honored between points.

#include "core/metrics.hpp"
#include "sweep/cache.hpp"
#include "sweep/pool.hpp"
#include "sweep/sweep.hpp"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

namespace stamp::sweep {

/// `CostCache` shard count for an evaluation on `pool` (nullptr = the
/// calling thread alone): enough shards that workers rarely share a lock.
[[nodiscard]] std::size_t cache_shards(const Pool* pool) noexcept;

/// The cost cache for evaluating all of `cfg`'s grid on `pool`: none when
/// every tuple is distinct (`ParamGrid::tuples_distinct`), since no probe
/// could hit; otherwise `cache_shards(pool)` shards bounded by
/// `cfg.cache_entries_per_shard`. The decision reads only the grid's values.
[[nodiscard]] std::optional<CostCache> grid_cache(const SweepConfig& cfg,
                                                  const Pool* pool);

/// Evaluates contiguous grid-index ranges into a pre-sized record array.
/// One instance serves all workers of a sweep: per-thread scratch (SoA
/// buffers, placement tables, the machine-group cache) lives in
/// thread-local storage keyed to the evaluator instance, so concurrent
/// workers never share mutable state.
class BatchEvaluator {
 public:
  /// Points decoded and staged per sub-batch. Large enough to amortize the
  /// chunk decode and classical-model loops, small enough that the scratch
  /// stays cache-resident (a sub-batch is ~14 SoA doubles per point).
  static constexpr std::size_t kBatch = 256;

  /// `cfg`, `cache`, and everything `options` points at must outlive the
  /// evaluator. `cache` may be nullptr: every point is then priced directly,
  /// which is what a grid whose tuples are all distinct wants (see
  /// `ParamGrid::tuples_distinct`). `record_offset` rebases the record
  /// array: grid index `i` lands in `records[i - record_offset]`. The sweep
  /// passes 0 with a full-grid array; the guided search prices contiguous
  /// leaf windows into block-local buffers by offsetting at the window's
  /// first index.
  BatchEvaluator(const SweepConfig& cfg, CostCache* cache,
                 const SweepOptions& options, std::size_t record_offset = 0);

  /// Evaluate grid indices [begin, end) into `records` (indexed by grid
  /// index minus the constructor's `record_offset`) — on `pool`'s workers,
  /// or inline on the calling thread when `pool` is nullptr. Records are
  /// keyed by index, so the result is identical either way.
  /// Resume-completed points are skipped; cancellation is checked per point;
  /// each completed point is appended to the journal (in index order within
  /// a claimed range). Returns the number of points journaled.
  ///
  /// Error policy: a failing point leaves a default record and every other
  /// point still runs (and reaches the journal); after the drain the journal
  /// is synced and the first failure is rethrown. The set of journaled
  /// points therefore never depends on the pool, which is what makes
  /// kill-and-resume deterministic.
  std::uint64_t run(Pool* pool, std::size_t begin, std::size_t end,
                    std::span<SweepRecord> records);

  /// Points priced without a cache over every `run` so far: each is the miss
  /// a cache would have counted. Always 0 when the evaluator has a cache.
  [[nodiscard]] std::uint64_t uncached_points() const noexcept {
    return uncached_.load(std::memory_order_relaxed);
  }

 private:
  struct Scratch;
  struct Failure;

  [[nodiscard]] Scratch& scratch() const;
  std::uint64_t run_range(std::size_t begin, std::size_t end,
                          std::span<SweepRecord> records, Failure& failure);
  std::uint64_t run_subbatch(std::size_t begin, std::size_t end,
                             std::span<SweepRecord> records, Failure& failure,
                             Scratch& sc);
  void evaluate_one(std::size_t index, std::size_t slot, std::size_t count,
                    SweepRecord& rec, Scratch& sc);
  void setup_current(const SweepRecord& rec, Scratch& sc) const;
  [[nodiscard]] PointCost compute_uniform_point(Scratch& sc) const;
  [[nodiscard]] PointCost uniform_placement_cost(int n, Scratch& sc) const;
  void greedy_assign(int n, Scratch& sc) const;
  void finalize_classical(std::size_t base, std::size_t count,
                          std::span<SweepRecord> records, Scratch& sc);

  const SweepConfig* cfg_;
  CostCache* cache_;  ///< nullptr = price every point directly
  SweepOptions options_;
  std::atomic<std::uint64_t> uncached_{0};  ///< summed once per claimed range
  std::uint64_t id_;   ///< distinguishes evaluators sharing a thread's scratch
  std::size_t offset_;  ///< records[] rebase: grid index i -> records[i - offset_]
  std::size_t naxes_;
  // Axis positions resolved once (the scalar path re-ran the name lookups
  // for every point).
  int ax_cores_;
  int ax_tpc_;
  int ax_ell_;
  int ax_le_;
  int ax_gsh_;
  int ax_kappa_;
  int ax_place_;
  int ax_procs_;
};

}  // namespace stamp::sweep
