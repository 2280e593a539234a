#pragma once
/// \file search.hpp
/// \brief Guided search over a sweep grid: find the optimal point without
///        pricing the whole Cartesian product.
///
/// Three engines behind one request/result API (api/search_types.hpp):
///
///  - `search_bnb` — depth-first branch-and-bound over grid-axis prefixes.
///    A subtree of a prefix is a *contiguous* grid-index range (decoding is
///    row-major, last axis fastest), so exact leaf pricing streams through
///    the same `sweep::BatchEvaluator` the exhaustive sweep uses and the
///    winner is the bit-identical record the sweep's argmin would produce:
///    children are expanded best-bound-first, a subtree is pruned only when
///    its admissible bound (search/bound.hpp) proves every point in it loses
///    to the incumbent — including the first-lowest-index tie-break.
///  - `search_anneal` — simulated annealing over single-axis steps with a
///    greedy local-search polish. Heuristic, and a pure function of the
///    request seed: every random decision is a counter-based draw
///    (fault::counter_draw), never shared-generator state.
///  - `search_exhaustive` — price everything, scan for the argmin. The
///    oracle the property tests compare the other two against.
///
/// Determinism contract: the search trajectory (expansion order, pruning
/// decisions, incumbent updates, the trace) is computed serially; worker
/// threads only price leaf blocks into index-keyed records. The
/// `stamp-search/v1` artifact is therefore byte-identical across thread
/// counts and repeated runs of the same request.

#include "api/search_types.hpp"
#include "sweep/pool.hpp"

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>

namespace stamp::search {

/// True when record `a` beats record `b` under the sweep's winner ordering:
/// feasible beats infeasible, then lower objective value, then lower grid
/// index. This is exactly the argmin `tools/stamp_sweep` (and the gate)
/// computes over a finished sweep — search and sweep must never disagree on
/// what "best" means.
[[nodiscard]] bool record_beats(const sweep::SweepRecord& a,
                                const sweep::SweepRecord& b,
                                Objective objective) noexcept;

/// Index (into `records`) of the winner under `record_beats`; `records.size()`
/// when `records` is empty. Skips never-evaluated records (processes == 0
/// with an all-default payload) only if `skip_unevaluated` is set — a
/// cancelled sweep leaves such holes.
[[nodiscard]] std::size_t best_record_index(
    std::span<const sweep::SweepRecord> records, Objective objective,
    bool skip_unevaluated = false) noexcept;

/// Run the method `request.method` asks for. `pool` (optional) prices leaf
/// blocks / the exhaustive scan in parallel; when null they run on the
/// calling thread (`request.threads` is read by `Evaluator::optimize`, which
/// owns the pool). Annealing is always serial. Throws what point evaluation
/// throws (invalid axis values), like the sweep engine.
[[nodiscard]] SearchResult run_search(const SearchRequest& request,
                                      sweep::Pool* pool = nullptr);

/// The individual engines (run_search dispatches to these).
[[nodiscard]] SearchResult search_bnb(const SearchRequest& request,
                                      sweep::Pool* pool = nullptr);
[[nodiscard]] SearchResult search_anneal(const SearchRequest& request);
[[nodiscard]] SearchResult search_exhaustive(const SearchRequest& request,
                                             sweep::Pool* pool = nullptr);

/// Serialize in the stable `stamp-search/v1` schema: fixed key order,
/// numbers via JsonWriter's canonical formatting, trace events in recording
/// order. Throws std::runtime_error when the stream reports failure.
void write_json(const SearchResult& result, std::ostream& os);

/// Convenience: the artifact as a string.
[[nodiscard]] std::string to_json(const SearchResult& result);

}  // namespace stamp::search
