#include "search/search.hpp"

#include "models/models.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "report/json.hpp"
#include "search/detail.hpp"
#include "sweep/batch.hpp"
#include "sweep/cache.hpp"

#include <cstdint>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace stamp {

std::string_view to_string(SearchMethod m) noexcept {
  switch (m) {
    case SearchMethod::BranchAndBound:
      return "bnb";
    case SearchMethod::Anneal:
      return "anneal";
    case SearchMethod::Exhaustive:
      return "exhaustive";
  }
  return "unknown";
}

std::string_view to_string(SearchTraceEvent::Kind k) noexcept {
  switch (k) {
    case SearchTraceEvent::Kind::Expand:
      return "expand";
    case SearchTraceEvent::Kind::Prune:
      return "prune";
    case SearchTraceEvent::Kind::Leaf:
      return "leaf";
    case SearchTraceEvent::Kind::Incumbent:
      return "incumbent";
  }
  return "unknown";
}

}  // namespace stamp

namespace stamp::search {

namespace detail {

SearchResult make_shell(const SearchRequest& request) {
  SearchResult res;
  res.axis_names.reserve(request.config.grid.axes().size());
  for (const auto& axis : request.config.grid.axes())
    res.axis_names.push_back(axis.name);
  res.workload = request.config.workload;
  res.objective = request.config.objective;
  res.method = request.method;
  res.seed = request.seed;
  res.grid_points = request.config.grid.size();
  return res;
}

void push_event(const SearchRequest& request, SearchResult& result,
                const SearchTraceEvent& event) {
  if (!request.record_trace) return;
  if (result.trace.size() >= request.max_trace_events) {
    result.stats.trace_truncated = true;
    return;
  }
  result.trace.push_back(event);
}

}  // namespace detail

bool record_beats(const sweep::SweepRecord& a, const sweep::SweepRecord& b,
                  Objective objective) noexcept {
  if (a.feasible != b.feasible) return a.feasible;
  const double va = metric_value(a.metrics, objective);
  const double vb = metric_value(b.metrics, objective);
  if (va != vb) return va < vb;
  return a.index < b.index;
}

std::size_t best_record_index(std::span<const sweep::SweepRecord> records,
                              Objective objective,
                              bool skip_unevaluated) noexcept {
  std::size_t best = records.size();
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (skip_unevaluated && records[i].processes == 0) continue;
    if (best == records.size() ||
        record_beats(records[i], records[best], objective))
      best = i;
  }
  return best;
}

SearchResult search_exhaustive(const SearchRequest& request,
                               sweep::Pool* pool) {
  auto span = obs::ScopedSpan::if_enabled("search.exhaustive", "search");
  SearchResult res = detail::make_shell(request);
  const sweep::SweepConfig& cfg = request.config;
  const std::size_t total = cfg.grid.size();
  if (total == 0) return res;

  // The oracle holds the whole grid's records at once (like a sweep run) —
  // fine for the test grids it exists for, deliberate for large ones.
  std::vector<sweep::SweepRecord> records(total);
  std::optional<sweep::CostCache> cache = sweep::grid_cache(cfg, pool);
  sweep::SweepOptions opts;
  opts.cancel = request.cancel;
  sweep::BatchEvaluator eval(cfg, cache ? &*cache : nullptr, opts);
  eval.run(pool, 0, total, records);

  // Serial argmin scan in index order: identical incumbent history (and
  // artifact) at every thread count.
  auto& incumbent_gauge =
      obs::MetricsRegistry::global().gauge("search.incumbent");
  for (std::size_t i = 0; i < total; ++i) {
    const sweep::SweepRecord& rec = records[i];
    if (rec.processes == 0) continue;  // skipped by cancellation
    ++res.stats.points_evaluated;
    if (!res.found || record_beats(rec, res.best, cfg.objective)) {
      res.best = rec;
      res.found = true;
      ++res.stats.incumbent_updates;
      const double value = metric_value(rec.metrics, cfg.objective);
      incumbent_gauge.set(value);
      detail::push_event(request, res,
                         {SearchTraceEvent::Kind::Incumbent, 0, rec.index,
                          rec.index + 1, 0.0, value});
    }
  }
  res.stats.leaf_blocks = 1;
  res.cancelled = request.cancel != nullptr && request.cancel->cancelled();
  return res;
}

SearchResult run_search(const SearchRequest& request, sweep::Pool* pool) {
  // Annealing is strictly serial; the other engines only use the pool for
  // exact leaf pricing, never for the search trajectory itself.
  switch (request.method) {
    case SearchMethod::BranchAndBound:
      return search_bnb(request, pool);
    case SearchMethod::Anneal:
      return search_anneal(request);
    case SearchMethod::Exhaustive:
      return search_exhaustive(request, pool);
  }
  throw std::invalid_argument("search: unknown SearchMethod");
}

void write_json(const SearchResult& result, std::ostream& os) {
  report::JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "stamp-search/v1");
  w.kv("workload", result.workload);
  w.kv("objective", to_string(result.objective));
  w.kv("method", to_string(result.method));
  w.kv("seed", static_cast<long long>(result.seed));
  w.kv("grid_points", static_cast<long long>(result.grid_points));
  w.key("axes").begin_array();
  for (const std::string& name : result.axis_names) w.value(name);
  w.end_array();
  w.key("best");
  if (!result.found) {
    w.null();
  } else {
    const sweep::SweepRecord& rec = result.best;
    w.begin_object();
    w.kv("index", static_cast<long long>(rec.index));
    w.key("params").begin_object();
    for (std::size_t a = 0;
         a < result.axis_names.size() && a < rec.params.size(); ++a)
      w.kv(result.axis_names[a], rec.params[a]);
    w.end_object();
    w.kv("processes", rec.processes);
    w.kv("feasible", rec.feasible);
    w.key("metrics").begin_object();
    w.kv("D", rec.metrics.D);
    w.kv("PDP", rec.metrics.PDP);
    w.kv("EDP", rec.metrics.EDP);
    w.kv("ED2P", rec.metrics.ED2P);
    w.end_object();
    w.key("models").begin_object();
    for (int k = 0; k < models::kModelKindCount; ++k)
      w.kv(models::to_string(static_cast<models::ModelKind>(k)),
           rec.classical[static_cast<std::size_t>(k)]);
    w.end_object();
    w.end_object();
  }
  w.key("stats").begin_object();
  w.kv("nodes_expanded", static_cast<long long>(result.stats.nodes_expanded));
  w.kv("nodes_pruned", static_cast<long long>(result.stats.nodes_pruned));
  w.kv("leaf_blocks", static_cast<long long>(result.stats.leaf_blocks));
  w.kv("points_evaluated",
       static_cast<long long>(result.stats.points_evaluated));
  w.kv("bound_evaluations",
       static_cast<long long>(result.stats.bound_evaluations));
  w.kv("incumbent_updates",
       static_cast<long long>(result.stats.incumbent_updates));
  w.kv("trace_truncated", result.stats.trace_truncated);
  w.end_object();
  w.kv("cancelled", result.cancelled);
  w.key("trace").begin_array();
  for (const SearchTraceEvent& e : result.trace) {
    w.begin_object();
    w.kv("kind", to_string(e.kind));
    w.kv("depth", e.depth);
    w.kv("begin", static_cast<long long>(e.begin));
    w.kv("end", static_cast<long long>(e.end));
    w.kv("bound", e.bound);
    w.kv("incumbent", e.incumbent);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
  os.flush();
  if (!os.good())
    throw std::runtime_error(
        "search: writing stamp-search/v1 artifact failed (output stream "
        "error)");
}

std::string to_json(const SearchResult& result) {
  std::ostringstream os;
  write_json(result, os);
  return os.str();
}

}  // namespace stamp::search
