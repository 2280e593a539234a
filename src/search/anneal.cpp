#include "fault/prng.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "search/detail.hpp"
#include "search/search.hpp"
#include "sweep/batch.hpp"
#include "sweep/cache.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

namespace stamp::search {
namespace {

// PRNG streams: each random decision is counter_draw(seed, stream, counter),
// so the whole chain is a pure function of the request seed — no generator
// state to share or misorder.
constexpr std::uint64_t kStreamInit = 1;    ///< starting point digits
constexpr std::uint64_t kStreamMove = 2;    ///< axis pick + step direction
constexpr std::uint64_t kStreamAccept = 3;  ///< Metropolis acceptance

// Geometric cooling schedule over the chain, in *relative* objective delta:
// a move 50% worse is routinely accepted early, essentially never at the
// end. Relative deltas make the schedule unit-free across objectives.
constexpr double kTempHi = 0.5;
constexpr double kTempLo = 1e-4;

/// Cap on greedy-polish passes; each pass moves to the steepest-descent
/// neighbor, so the cap only matters on pathological plateaus.
constexpr std::size_t kMaxPolishSteps = 1024;

/// Exact single-point pricing through the batch evaluator, memoized by grid
/// index (the chain revisits points). Returns nullopt when the point was
/// skipped by cancellation.
class PointEval {
 public:
  PointEval(const sweep::SweepConfig& cfg, sweep::CostCache& cache,
            const core::CancelToken* cancel, std::uint64_t* evaluated)
      : cfg_(cfg), cache_(cache), evaluated_(evaluated) {
    opts_.cancel = cancel;
  }

  [[nodiscard]] std::optional<sweep::SweepRecord> eval(std::size_t index) {
    auto it = memo_.find(index);
    if (it == memo_.end()) {
      sweep::SweepRecord rec;
      const std::span<sweep::SweepRecord> one(&rec, 1);
      sweep::BatchEvaluator evaluator(cfg_, &cache_, opts_,
                                      /*record_offset=*/index);
      evaluator.run(nullptr, index, index + 1, one);
      if (rec.processes == 0) return std::nullopt;  // cancelled
      ++*evaluated_;
      it = memo_.emplace(index, std::move(rec)).first;
    }
    return it->second;
  }

 private:
  const sweep::SweepConfig& cfg_;
  sweep::CostCache& cache_;
  sweep::SweepOptions opts_;
  std::uint64_t* evaluated_;
  std::unordered_map<std::size_t, sweep::SweepRecord> memo_;
};

}  // namespace

namespace detail {

AnnealOutcome anneal_chain(const SearchRequest& request,
                           sweep::CostCache& cache, std::uint64_t iterations,
                           SearchResult& result) {
  AnnealOutcome out;
  const sweep::SweepConfig& cfg = request.config;
  const auto& axes = cfg.grid.axes();
  const std::size_t naxes = axes.size();
  if (cfg.grid.size() == 0) return out;

  const std::uint64_t seed = request.seed;
  auto& incumbent_gauge =
      obs::MetricsRegistry::global().gauge("search.incumbent");
  const auto cancelled = [&] {
    return request.cancel != nullptr && request.cancel->cancelled();
  };

  // Row-major digit <-> index arithmetic over the axis sizes.
  std::vector<std::size_t> sizes(naxes), suffix(naxes, 1);
  for (std::size_t a = 0; a < naxes; ++a) sizes[a] = axes[a].values.size();
  for (std::size_t a = naxes; a-- > 1;) suffix[a - 1] = suffix[a] * sizes[a];
  const auto index_of = [&](const std::vector<std::size_t>& digits) {
    std::size_t idx = 0;
    for (std::size_t a = 0; a < naxes; ++a) idx += digits[a] * suffix[a];
    return idx;
  };
  std::vector<std::size_t> movable;  // axes a single step can change
  for (std::size_t a = 0; a < naxes; ++a)
    if (sizes[a] > 1) movable.push_back(a);

  PointEval eval(cfg, cache, request.cancel, &result.stats.points_evaluated);
  const auto note_best = [&](const sweep::SweepRecord& rec) {
    if (out.found && !record_beats(rec, out.best, cfg.objective)) return;
    out.best = rec;
    out.found = true;
    ++result.stats.incumbent_updates;
    const double value = metric_value(rec.metrics, cfg.objective);
    incumbent_gauge.set(value);
    push_event(request, result,
               {SearchTraceEvent::Kind::Incumbent, 0, rec.index,
                rec.index + 1, 0.0, value});
  };

  // Seeded starting point.
  std::vector<std::size_t> digits(naxes, 0);
  for (std::size_t a = 0; a < naxes; ++a)
    digits[a] = fault::counter_draw(seed, kStreamInit, a) % sizes[a];
  std::optional<sweep::SweepRecord> cur = eval.eval(index_of(digits));
  if (!cur) {
    out.cancelled = true;
    return out;
  }
  note_best(*cur);

  // Metropolis chain: one single-axis step per iteration, reflecting at the
  // axis ends so every proposal is a valid neighbor.
  for (std::uint64_t k = 0; k < iterations && !movable.empty(); ++k) {
    if (cancelled()) {
      out.cancelled = true;
      return out;
    }
    const std::size_t axis =
        movable[fault::counter_draw(seed, kStreamMove, 2 * k) %
                movable.size()];
    const bool up = (fault::counter_draw(seed, kStreamMove, 2 * k + 1) & 1) != 0;
    std::vector<std::size_t> cand_digits = digits;
    std::size_t& d = cand_digits[axis];
    if (up)
      d = d + 1 < sizes[axis] ? d + 1 : sizes[axis] - 2;
    else
      d = d > 0 ? d - 1 : 1;

    const std::optional<sweep::SweepRecord> cand =
        eval.eval(index_of(cand_digits));
    if (!cand) {
      out.cancelled = true;
      return out;
    }

    bool accept = record_beats(*cand, *cur, cfg.objective);
    if (!accept) {
      const double vc = metric_value(cur->metrics, cfg.objective);
      const double va = metric_value(cand->metrics, cfg.objective);
      double rel = (va - vc) / std::max(std::abs(vc), 1e-12);
      // Stepping from feasible to infeasible is worse than any value delta
      // the schedule routinely accepts; the reverse direction was already
      // accepted above via record_beats.
      if (cur->feasible && !cand->feasible) rel += 1.0;
      const double frac =
          iterations > 1 ? static_cast<double>(k) / (iterations - 1) : 1.0;
      const double temp = kTempHi * std::pow(kTempLo / kTempHi, frac);
      accept = fault::u01(fault::counter_draw(seed, kStreamAccept, k)) <
               std::exp(-rel / temp);
    }
    if (accept) {
      digits = cand_digits;
      cur = cand;
      note_best(*cur);
    }
  }

  // Greedy steepest-descent polish from the chain's best point: scan all
  // single-axis neighbors, move to the best strictly-improving one, repeat.
  if (out.found && !movable.empty()) {
    std::size_t best_index = out.best.index;
    for (std::size_t a = 0; a < naxes; ++a) {
      digits[a] = (best_index / suffix[a]) % sizes[a];
    }
    for (std::size_t step = 0; step < kMaxPolishSteps; ++step) {
      std::optional<sweep::SweepRecord> best_neighbor;
      std::vector<std::size_t> best_digits;
      for (const std::size_t axis : movable) {
        for (const int dir : {-1, +1}) {
          if (cancelled()) {
            out.cancelled = true;
            return out;
          }
          if (dir < 0 && digits[axis] == 0) continue;
          if (dir > 0 && digits[axis] + 1 >= sizes[axis]) continue;
          std::vector<std::size_t> cand_digits = digits;
          cand_digits[axis] += static_cast<std::size_t>(dir);
          const std::optional<sweep::SweepRecord> cand =
              eval.eval(index_of(cand_digits));
          if (!cand) {
            out.cancelled = true;
            return out;
          }
          if (!record_beats(*cand, out.best, cfg.objective)) continue;
          if (!best_neighbor ||
              record_beats(*cand, *best_neighbor, cfg.objective)) {
            best_neighbor = cand;
            best_digits = std::move(cand_digits);
          }
        }
      }
      if (!best_neighbor) break;
      digits = best_digits;
      note_best(*best_neighbor);
    }
  }
  return out;
}

}  // namespace detail

SearchResult search_anneal(const SearchRequest& request) {
  auto span = obs::ScopedSpan::if_enabled("search.anneal", "search");
  SearchResult res = detail::make_shell(request);
  if (res.grid_points == 0) return res;
  sweep::CostCache cache(16, request.config.cache_entries_per_shard);
  detail::AnnealOutcome out =
      detail::anneal_chain(request, cache, request.anneal_iterations, res);
  res.best = out.best;
  res.found = out.found;
  res.cancelled =
      out.cancelled ||
      (request.cancel != nullptr && request.cancel->cancelled());
  return res;
}

}  // namespace stamp::search
