#pragma once
/// \file search_types.hpp
/// \brief The decide-layer request/result types of `Evaluator::optimize` —
///        one request object describing *what* to find and *how*, one result
///        object carrying the winner, the search statistics, and a
///        deterministic trace.
///
/// A `SearchRequest` wraps the same `sweep::SweepConfig` a sweep evaluates,
/// but instead of pricing every grid point it asks the search subsystem
/// (`src/search/`) for the argmin only: branch-and-bound over axis prefixes
/// with admissible lower bounds (exact — bit-identical winner to the
/// exhaustive sweep), simulated annealing + greedy local search (heuristic,
/// a pure function of `seed`), or the exhaustive scan itself (the oracle the
/// other two are verified against). Results serialize as the stable
/// `stamp-search/v1` artifact, byte-identical at any thread count.

#include "core/cancel.hpp"
#include "sweep/sweep.hpp"

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace stamp {

/// How `Evaluator::optimize` explores the grid.
enum class SearchMethod : int {
  /// Depth-first branch-and-bound over grid-axis prefixes. Exact: returns
  /// the bit-identical winning record of the exhaustive sweep, visiting (on
  /// discriminating objectives) a small fraction of the points.
  BranchAndBound = 0,
  /// Simulated annealing over single-axis steps with a greedy local-search
  /// polish. Heuristic: no optimality guarantee, but the whole run is a pure
  /// function of `seed` (counter-based PRNG, no shared generator state).
  Anneal = 1,
  /// Price every point and scan for the argmin — the oracle.
  Exhaustive = 2,
};

[[nodiscard]] std::string_view to_string(SearchMethod m) noexcept;

struct SearchRequest {
  /// The grid, base machine, total-workload profile, and objective to
  /// optimize — exactly what `Evaluator::sweep` would evaluate exhaustively.
  sweep::SweepConfig config;

  SearchMethod method = SearchMethod::BranchAndBound;

  /// Seed of the deterministic counter-based PRNG (src/fault/prng.hpp) that
  /// drives annealing moves and the branch-and-bound warm start. Two runs
  /// with the same request produce byte-identical artifacts.
  std::uint64_t seed = 1;

  /// Worker threads `Evaluator::optimize` prices leaf blocks (BranchAndBound)
  /// and the exhaustive scan with; <= 1 runs on the calling thread. The
  /// search trajectory itself is always expanded serially, so the artifact
  /// does not depend on this.
  int threads = 1;

  /// BranchAndBound: seed the incumbent with a short annealing run before
  /// expanding, so deep subtrees prune from the first comparison.
  bool warm_start = true;

  /// Annealing chain length (also caps the warm-start chain at 512).
  std::uint64_t anneal_iterations = 4096;

  /// BranchAndBound: subtrees of at most this many points are priced
  /// exactly (batch evaluator) instead of expanded further.
  std::size_t leaf_block = 64;

  /// Record per-event search history into `SearchResult::trace`. The first
  /// `max_trace_events` events are kept; recording is deterministic, so a
  /// truncated trace is still byte-identical across runs and thread counts.
  bool record_trace = true;
  std::size_t max_trace_events = 100000;

  /// Cooperative cancellation, checked per node expansion / annealing step /
  /// leaf point. A cancelled search returns its best-so-far with
  /// `SearchResult::cancelled = true`.
  const core::CancelToken* cancel = nullptr;
};

/// One step of the search history. Field meaning by kind:
///  - `expand`: a node (axis prefix of `depth` values, grid-index range
///    [begin, end)) was expanded; `bound` is its admissible lower bound.
///  - `prune`: the node was discarded — every point in it provably loses to
///    the incumbent (`incumbent` carries the incumbent's value).
///  - `leaf`: the range [begin, end) was priced exactly.
///  - `incumbent`: the point at grid index `begin` became the best-so-far
///    with objective value `incumbent`.
struct SearchTraceEvent {
  enum class Kind : int { Expand = 0, Prune = 1, Leaf = 2, Incumbent = 3 };

  Kind kind = Kind::Expand;
  int depth = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  double bound = 0;
  double incumbent = 0;

  friend bool operator==(const SearchTraceEvent&,
                         const SearchTraceEvent&) = default;
};

[[nodiscard]] std::string_view to_string(SearchTraceEvent::Kind k) noexcept;

/// Counters of the work a search performed. Everything here is a
/// deterministic function of the request (the expansion is serial); cache
/// statistics, which depend on thread interleaving, are deliberately not
/// part of this struct or the artifact.
struct SearchStats {
  std::uint64_t nodes_expanded = 0;
  std::uint64_t nodes_pruned = 0;
  std::uint64_t leaf_blocks = 0;       ///< subtrees priced exactly
  std::uint64_t points_evaluated = 0;  ///< exact point evaluations
  std::uint64_t bound_evaluations = 0;
  std::uint64_t incumbent_updates = 0;
  bool trace_truncated = false;

  friend bool operator==(const SearchStats&, const SearchStats&) = default;
};

struct SearchResult {
  std::vector<std::string> axis_names;  ///< grid axes, in order
  std::string workload;
  Objective objective = Objective::EDP;
  SearchMethod method = SearchMethod::BranchAndBound;
  std::uint64_t seed = 0;
  std::size_t grid_points = 0;

  /// The winner: for BranchAndBound and Exhaustive, the bit-identical record
  /// the exhaustive sweep's argmin produces (feasible preferred, then lower
  /// objective value, ties to the lowest grid index); for Anneal, the best
  /// record the chain visited.
  sweep::SweepRecord best{};
  bool found = false;  ///< false for an empty grid or an immediate cancel

  SearchStats stats;
  std::vector<SearchTraceEvent> trace;
  bool cancelled = false;
};

}  // namespace stamp
