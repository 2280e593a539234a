#include "sweep/sweep.hpp"

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "report/json.hpp"
#include "sweep/batch.hpp"
#include "sweep/journal.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace stamp::sweep {
namespace {

double axis_or(const SweepConfig& cfg, std::span<const double> vals,
               std::string_view name, double fallback) {
  const int i = cfg.grid.axis_index(name);
  return i >= 0 ? vals[static_cast<std::size_t>(i)] : fallback;
}

/// An integer-coded axis value. The grid stores doubles, so validate before
/// the narrowing cast: a non-finite or out-of-int-range value would make the
/// cast undefined behavior, not just a nonsense parameter.
int axis_int(const SweepConfig& cfg, std::span<const double> vals,
             std::string_view name, int fallback) {
  const double v = axis_or(cfg, vals, name, static_cast<double>(fallback));
  if (!std::isfinite(v) ||
      v < static_cast<double>(std::numeric_limits<int>::min()) ||
      v > static_cast<double>(std::numeric_limits<int>::max()))
    throw std::invalid_argument("sweep: axis '" + std::string(name) +
                                "' value is not representable as int");
  return static_cast<int>(v);
}

}  // namespace

PointSetup setup_point(const SweepConfig& cfg, std::span<const double> vals) {
  PointSetup s;
  s.machine = cfg.base;
  Topology& t = s.machine.topology;
  t.processors_per_chip =
      axis_int(cfg, vals, axes::kCores, t.processors_per_chip);
  t.threads_per_processor =
      axis_int(cfg, vals, axes::kThreadsPerCore, t.threads_per_processor);
  MachineParams& p = s.machine.params;
  p.ell_e = axis_or(cfg, vals, axes::kEllE, p.ell_e);
  p.L_e = axis_or(cfg, vals, axes::kLE, p.L_e);
  p.g_sh_e = axis_or(cfg, vals, axes::kGShE, p.g_sh_e);
  s.machine.validate();  // rejects nonsense grids (e.g. inter < intra)

  s.profile = cfg.profile;
  s.profile.kappa = axis_or(cfg, vals, axes::kKappa, s.profile.kappa);

  const int proc_bound = axis_int(cfg, vals, axes::kProcesses, cfg.processes);
  if (proc_bound < 1)
    throw std::invalid_argument(
        "sweep: processes axis value must be >= 1, got " +
        std::to_string(proc_bound));
  s.processes = std::min(proc_bound, t.total_threads());

  const int code =
      axis_int(cfg, vals, axes::kPlacement,
               static_cast<int>(PlacementStrategy::FillFirst));
  if (code < 0 || code > static_cast<int>(PlacementStrategy::Greedy))
    throw std::invalid_argument("sweep: unknown placement strategy code " +
                                std::to_string(code));
  s.strategy = static_cast<PlacementStrategy>(code);
  return s;
}

ProcessProfile strong_scaled(const ProcessProfile& total, int n) {
  ProcessProfile p = total;
  const double inv = 1.0 / n;
  p.c_fp *= inv;
  p.c_int *= inv;
  p.d_r *= inv;
  p.d_w *= inv;
  p.m_s *= inv;
  p.m_r *= inv;
  return p;
}

namespace {

SweepResult make_result_shell(const SweepConfig& cfg) {
  SweepResult out;
  out.axis_names.reserve(cfg.grid.axes().size());
  for (const GridAxis& a : cfg.grid.axes()) out.axis_names.push_back(a.name);
  out.workload = cfg.workload;
  out.objective = cfg.objective;
  out.records.resize(cfg.grid.size());
  return out;
}

/// Replay the resume state's completed points into the result (verbatim —
/// byte-identical serialization is the contract) and, when the sweep has a
/// cost cache, pre-seed it with their memoized placement evaluations, so a
/// still-missing point that shares a replayed point's canonical parameter
/// tuple hits instead of recomputing. Without a cache (all tuples distinct)
/// no missing point can share a replayed tuple, so there is nothing to seed.
void seed_from_resume(SweepResult& out, CostCache* cache,
                      const ResumeState& resume) {
  if (resume.grid_points() != out.records.size())
    throw std::invalid_argument(
        "sweep: resume state covers " + std::to_string(resume.grid_points()) +
        " grid points but the sweep has " +
        std::to_string(out.records.size()));
  for (std::size_t i = 0; i < out.records.size(); ++i) {
    if (!resume.completed(i)) continue;
    const SweepRecord& rec = resume.record(i);
    out.records[i] = rec;
    if (cache != nullptr) {
      const PointCost pc{Cost{rec.metrics.D, rec.metrics.PDP}, rec.feasible,
                         rec.processes};
      (void)cache->get_or_compute(rec.params, [&] { return pc; });
    }
    ++out.stats.resumed_points;
  }
  if (out.stats.resumed_points > 0 && obs::metrics_enabled())
    obs::MetricsRegistry::global()
        .counter("sweep.resume.replayed")
        .add(out.stats.resumed_points);
}

}  // namespace

std::string_view to_string(PlacementStrategy s) noexcept {
  switch (s) {
    case PlacementStrategy::FillFirst: return "fill-first";
    case PlacementStrategy::RoundRobin: return "round-robin";
    case PlacementStrategy::Greedy: return "greedy";
  }
  return "?";
}

SweepConfig SweepConfig::canonical() {
  SweepConfig c;
  c.grid.axis(std::string(axes::kCores), {2, 4, 8, 16})
      .axis(std::string(axes::kThreadsPerCore), {1, 2, 4})
      .axis(std::string(axes::kEllE), {12, 40})
      .axis(std::string(axes::kLE), {24, 96})
      .axis(std::string(axes::kGShE), {2, 8})
      .axis(std::string(axes::kKappa), {0, 8})
      .axis(std::string(axes::kPlacement), {0, 1, 2});
  c.base = presets::niagara();
  // A communicating job whose distribution genuinely trades time against
  // power: real local work plus both substrates' traffic. These are *total*
  // counts, strong-scaled over the candidate process counts.
  c.profile.c_fp = 2000;
  c.profile.c_int = 4000;
  c.profile.d_r = 1024;
  c.profile.d_w = 256;
  c.profile.m_s = 128;
  c.profile.m_r = 128;
  c.profile.units = 4;
  c.processes = 64;
  c.objective = Objective::EDP;
  c.workload = "uniform-comm";
  return c;
}

SweepConfig SweepConfig::tiny() {
  SweepConfig c = canonical();
  c.grid = ParamGrid{};
  c.grid.axis(std::string(axes::kCores), {2, 4})
      .axis(std::string(axes::kThreadsPerCore), {1, 2})
      .axis(std::string(axes::kKappa), {0, 4})
      .axis(std::string(axes::kPlacement), {0, 1});
  c.workload = "uniform-comm-tiny";
  return c;
}

SweepConfig SweepConfig::large() {
  SweepConfig c = canonical();
  c.grid = ParamGrid{};
  // 4 × 3 × 16 × 16 × 8 × 8 × 3 × 2 = 1,179,648 points. The refined machine
  // axes stay within the base preset's validity region (inter-processor
  // ℓ/L/g never drop below the intra-processor values).
  c.grid.axis(std::string(axes::kCores), {2, 4, 8, 16})
      .axis(std::string(axes::kThreadsPerCore), {1, 2, 4})
      .axis(std::string(axes::kEllE), linspace(8, 40, 16))
      .axis(std::string(axes::kLE), linspace(16, 96, 16))
      .axis(std::string(axes::kGShE), linspace(1, 8, 8))
      .axis(std::string(axes::kKappa), linspace(0, 14, 8))
      .axis(std::string(axes::kPlacement), {0, 1, 2})
      .axis(std::string(axes::kProcesses), {16, 64});
  c.workload = "uniform-comm-large";
  // Every tuple is distinct, so this sweep builds no cache at all; the bound
  // applies to grids derived from this one that repeat an axis value (and
  // then keeps memoization from growing with the grid: evictions change
  // recompute rates, never results).
  c.cache_entries_per_shard = 4096;
  return c;
}

SweepResult run_sweep(const SweepConfig& cfg, Pool* pool,
                      const SweepOptions& options) {
  obs::ScopedSpan span = obs::ScopedSpan::if_enabled("sweep.run", "sweep");
  span.arg("points", static_cast<double>(cfg.grid.size()));
  span.arg("threads", pool != nullptr ? pool->threads() : 1.0);
  SweepResult out = make_result_shell(cfg);
  std::optional<CostCache> cache = grid_cache(cfg, pool);
  CostCache* const cache_ptr = cache ? &*cache : nullptr;
  if (options.resume != nullptr)
    seed_from_resume(out, cache_ptr, *options.resume);
  const std::uint64_t steals_before = pool != nullptr ? pool->steals() : 0;
  // Records are written by grid index into a pre-sized vector, so completion
  // order (which is scheduling-dependent) never shows in the output.
  BatchEvaluator evaluator(cfg, cache_ptr, options);
  out.stats.journaled_points =
      evaluator.run(pool, 0, out.records.size(), out.records);
  out.stats.cache_bypassed = !cache;
  if (cache) {
    out.stats.cache_hits = cache->hits();
    out.stats.cache_misses = cache->misses();
    out.stats.cache_evictions = cache->evictions();
  } else {
    out.stats.cache_misses = evaluator.uncached_points();
  }
  if (pool != nullptr) out.stats.pool_steals = pool->steals() - steals_before;
  out.cancelled = options.cancel != nullptr && options.cancel->cancelled();
  if (out.cancelled) {
    // An evaluated record always selects >= 1 process; a skipped one keeps
    // the default 0, so the two are distinguishable without extra state.
    for (const SweepRecord& rec : out.records)
      if (rec.processes == 0) ++out.stats.skipped_points;
  }
  return out;
}

void write_json(const SweepResult& result, std::ostream& os) {
  report::JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "stamp-sweep/v1");
  w.kv("workload", result.workload);
  w.kv("objective", to_string(result.objective));
  w.key("axes").begin_array();
  for (const std::string& name : result.axis_names) w.value(name);
  w.end_array();
  w.key("points").begin_array();
  for (const SweepRecord& rec : result.records) {
    w.begin_object();
    w.key("params").begin_object();
    for (std::size_t a = 0; a < result.axis_names.size(); ++a)
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
  w.end_array();
  w.end_object();
  os << "\n";
  os.flush();
  if (!os.good())
    throw std::runtime_error(
        "sweep: writing stamp-sweep/v1 artifact failed (output stream error)");
}

std::string to_json(const SweepResult& result) {
  std::ostringstream ss;
  write_json(result, ss);
  return ss.str();
}

}  // namespace stamp::sweep
