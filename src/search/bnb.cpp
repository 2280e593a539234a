#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "search/bound.hpp"
#include "search/detail.hpp"
#include "search/search.hpp"
#include "sweep/batch.hpp"
#include "sweep/cache.hpp"
#include "sweep/pool.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace stamp::search {
namespace {

/// Leaf blocks at least this large are priced through the worker pool;
/// smaller ones are cheaper to run inline than to hand out.
constexpr std::size_t kPoolThreshold = 2 * sweep::BatchEvaluator::kBatch;

/// Depth-first best-bound-first exact search. Everything that shapes the
/// result — child ordering, pruning, incumbent updates, the trace — runs on
/// the calling thread; the pool only prices leaf records keyed by grid
/// index, so the artifact is identical at every thread count.
class BnbEngine {
 public:
  BnbEngine(const SearchRequest& request, SearchResult& result,
            sweep::Pool* pool)
      : req_(request),
        res_(result),
        cfg_(request.config),
        ctx_(request.config),
        cache_(sweep::cache_shards(pool),
               request.config.cache_entries_per_shard),
        pool_(pool),
        expand_counter_(obs::MetricsRegistry::global().counter("search.expand")),
        prune_counter_(obs::MetricsRegistry::global().counter("search.prune")),
        incumbent_gauge_(
            obs::MetricsRegistry::global().gauge("search.incumbent")) {
    eval_opts_.cancel = request.cancel;
    const auto& axes = cfg_.grid.axes();
    // suffix_[d] = number of grid points fixed-prefix-of-depth-d spans.
    // Row-major decode (last axis fastest) makes every such subtree a
    // contiguous index range.
    suffix_.assign(axes.size() + 1, 1);
    for (std::size_t d = axes.size(); d-- > 0;)
      suffix_[d] = suffix_[d + 1] * axes[d].values.size();
    prefix_.resize(axes.size());
  }

  void run() {
    const std::size_t total = cfg_.grid.size();
    if (total == 0) return;

    if (req_.warm_start) {
      // A short annealing chain seeds the incumbent so deep subtrees prune
      // from the first bound comparison. It shares the cost cache, so any
      // point it priced is free when a leaf block revisits it.
      const std::uint64_t iters =
          std::min<std::uint64_t>(req_.anneal_iterations, 512);
      detail::AnnealOutcome warm =
          detail::anneal_chain(req_, cache_, iters, res_);
      if (warm.found) {
        // The chain already counted its own incumbent updates/events.
        res_.best = warm.best;
        res_.found = true;
      }
      if (warm.cancelled) return;
    }

    ++res_.stats.bound_evaluations;
    expand(0, 0, ctx_.lower_bound({}));
  }

 private:
  [[nodiscard]] bool cancelled() const {
    return req_.cancel != nullptr && req_.cancel->cancelled();
  }

  /// Every point in [first_index, ...) of a subtree with bound `bound`
  /// provably loses to the incumbent: worse value, or an exact tie that the
  /// lower-index incumbent wins anyway. Only a *feasible* incumbent prunes —
  /// the winner ordering prefers feasibility over value, so an infeasible
  /// incumbent can be beaten by an arbitrarily expensive feasible point.
  [[nodiscard]] bool prunable(double bound, std::size_t first_index) const {
    if (!res_.found || !res_.best.feasible) return false;
    const double inc = metric_value(res_.best.metrics, cfg_.objective);
    if (bound > inc) return true;
    return bound == inc && res_.best.index < first_index;
  }

  void expand(std::size_t depth, std::size_t base, double bound) {
    if (cancelled()) return;
    const std::size_t count = suffix_[depth];
    const auto& axes = cfg_.grid.axes();
    if (depth == axes.size() || count <= req_.leaf_block) {
      price_leaf(static_cast<int>(depth), base, count);
      return;
    }

    ++res_.stats.nodes_expanded;
    expand_counter_.add();
    detail::push_event(req_, res_,
                       {SearchTraceEvent::Kind::Expand,
                        static_cast<int>(depth), base, base + count, bound,
                        incumbent_value()});

    // Bound every child, then visit best-bound-first (ties to grid order):
    // a strong early incumbent is what makes later siblings prunable.
    const auto& values = axes[depth].values;
    std::vector<std::pair<double, std::size_t>> order;
    order.reserve(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      prefix_[depth] = values[i];
      ++res_.stats.bound_evaluations;
      order.push_back({ctx_.lower_bound({prefix_.data(), depth + 1}), i});
    }
    std::sort(order.begin(), order.end());

    for (const auto& [child_bound, i] : order) {
      if (cancelled()) return;
      const std::size_t child_base = base + i * suffix_[depth + 1];
      if (prunable(child_bound, child_base)) {
        ++res_.stats.nodes_pruned;
        prune_counter_.add();
        detail::push_event(req_, res_,
                           {SearchTraceEvent::Kind::Prune,
                            static_cast<int>(depth + 1), child_base,
                            child_base + suffix_[depth + 1], child_bound,
                            incumbent_value()});
        continue;
      }
      prefix_[depth] = values[i];
      expand(depth + 1, child_base, child_bound);
    }
  }

  void price_leaf(int depth, std::size_t base, std::size_t count) {
    if (count == 0) return;
    ++res_.stats.leaf_blocks;
    detail::push_event(req_, res_,
                       {SearchTraceEvent::Kind::Leaf, depth, base,
                        base + count, 0.0, incumbent_value()});

    if (leaf_.size() < count) leaf_.resize(count);
    // A cancelled point keeps processes == 0; reset so a record left over
    // from a previous block can never masquerade as freshly evaluated.
    for (std::size_t i = 0; i < count; ++i) leaf_[i].processes = 0;

    const std::span<sweep::SweepRecord> records(leaf_.data(), count);
    sweep::BatchEvaluator eval(cfg_, &cache_, eval_opts_,
                               /*record_offset=*/base);
    eval.run(count >= kPoolThreshold ? pool_ : nullptr, base, base + count,
             records);

    // Serial scan in index order — the argmin the exhaustive sweep computes.
    for (std::size_t i = 0; i < count; ++i) {
      const sweep::SweepRecord& rec = leaf_[i];
      if (rec.processes == 0) continue;  // skipped by cancellation
      ++res_.stats.points_evaluated;
      if (!res_.found || record_beats(rec, res_.best, cfg_.objective)) {
        res_.best = rec;
        res_.found = true;
        ++res_.stats.incumbent_updates;
        const double value = metric_value(rec.metrics, cfg_.objective);
        incumbent_gauge_.set(value);
        detail::push_event(req_, res_,
                           {SearchTraceEvent::Kind::Incumbent, depth,
                            rec.index, rec.index + 1, 0.0, value});
      }
    }
  }

  [[nodiscard]] double incumbent_value() const {
    return res_.found ? metric_value(res_.best.metrics, cfg_.objective) : 0.0;
  }

  const SearchRequest& req_;
  SearchResult& res_;
  const sweep::SweepConfig& cfg_;
  BoundContext ctx_;
  sweep::CostCache cache_;
  sweep::Pool* pool_;
  sweep::SweepOptions eval_opts_;
  obs::Counter& expand_counter_;
  obs::Counter& prune_counter_;
  obs::Gauge& incumbent_gauge_;
  std::vector<std::size_t> suffix_;  ///< subtree sizes per depth
  std::vector<double> prefix_;       ///< fixed axis values down the DFS path
  std::vector<sweep::SweepRecord> leaf_;  ///< leaf pricing buffer
};

}  // namespace

SearchResult search_bnb(const SearchRequest& request, sweep::Pool* pool) {
  auto span = obs::ScopedSpan::if_enabled("search.bnb", "search");
  SearchResult res = detail::make_shell(request);
  BnbEngine engine(request, res, pool);
  engine.run();
  res.cancelled = request.cancel != nullptr && request.cancel->cancelled();
  return res;
}

}  // namespace stamp::search
