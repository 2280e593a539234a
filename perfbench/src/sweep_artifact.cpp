/// \file sweep_artifact.cpp
/// \brief Workload `sweep_artifact`: what `stamp_sweep --out FILE` does.
///
/// A seeded, fully Cartesian grid of the large preset's shape in which every
/// tuple is distinct is evaluated by `Evaluator::sweep` on the pool and
/// written as `stamp-sweep/v1` through `report::AtomicFileWriter`. Most of
/// the time goes to serialization, and the CostCache never hits, so this is
/// where a faster JSON writer, streamed records or a cache bypass show.

#include "bench.hpp"

#include "api/evaluator.hpp"

#include <memory>

namespace perfbench {

namespace {
/// Set-up is built again after every this many iterations (see `Setup`).
constexpr std::size_t kSetupEvery = 10;
}  // namespace

Outcome run_sweep_artifact(const RunContext& ctx) {
  Outcome out;
  Tracer tracer;
  const std::filesystem::path artifact = ctx.work_dir / "sweep_artifact.json";
  const std::filesystem::path canonical = ctx.work_dir / "sweep_canonical.json";

  stamp::sweep::SweepConfig cfg;
  std::unique_ptr<stamp::Evaluator> ev;
  std::uint64_t reference = 0;
  std::string baseline;
  double serial_s = 0;
  Setup setup([&] {
    cfg = seeded_config(ctx.seed, ctx.smoke, /*repeat_fast_axis=*/false);
    ev = std::make_unique<stamp::Evaluator>();
    // Finish lazy set-up before timing: the evaluator's pool.
    (void)ev->sweep(stamp::sweep::SweepConfig::tiny(), {.threads = kPoolWidth});
    // The digest this seed must produce, from the serial reference path
    // (one thread, no file).
    const Clock::time_point t0 = Clock::now();
    const stamp::sweep::SweepResult serial = ev->sweep(cfg, {.threads = 1});
    serial_s = seconds_between(t0, Clock::now());
    reference = stream_digest(
        [&](std::ostream& os) { stamp::sweep::write_json(serial, os); });
    baseline = read_file(ctx.root / "sweeps" / "baseline.json");
    if (ctx.inject == "digest") reference ^= 0x5a5a;
    if (ctx.inject == "baseline") baseline.back() ^= 1;
  }, [&] { ev.reset(); });
  setup.repeat(kSetupRepeats);
  record_grid(out, cfg, static_cast<std::size_t>(kPoolWidth) * 8);
  out.input("reference_digest", hex64(reference));

  stamp::sweep::SweepStats stats{};
  std::vector<double> rss_evaluate, rss_write;
  std::uint64_t bytes = 0;
  std::size_t iterations = 0;
  auto op = [&] {
    stamp::sweep::SweepResult result;
    {
      auto span = tracer.scope("sweep.evaluate");
      result = ev->sweep(cfg, {.threads = kPoolWidth});
    }
    const bool traced = tracer.enabled();
    if (traced) rss_evaluate.push_back(rss_mb());
    bytes = write_artifact(tracer, artifact, [&](std::ostream& os) {
      stamp::sweep::write_json(result, os);
    });
    if (traced) {
      rss_write.push_back(rss_mb());
      stats.cache_hits += result.stats.cache_hits;
      stats.cache_misses += result.stats.cache_misses;
      stats.cache_evictions += result.stats.cache_evictions;
      stats.pool_steals += result.stats.pool_steals;
    }
    auto span = tracer.scope("sweep.result.free");
    result = {};
  };
  auto verify = [&] {
    out.check(file_digest(artifact) == reference,
              "sweep_artifact: artifact digest differs from the serial "
              "reference for seed " + std::to_string(ctx.seed));
    if (++iterations % kSetupEvery == 0) setup.repeat();
  };
  const Passes passes =
      measure(ctx, tracer, ctx.smoke ? 1 : 3, op, verify);

  // The canonical preset's artifact through the same path must be the
  // checked-in baseline, byte for byte.
  {
    const stamp::sweep::SweepResult canon =
        ev->sweep(stamp::sweep::SweepConfig::canonical(), {.threads = kPoolWidth});
    Tracer off;
    (void)write_artifact(off, canonical, [&](std::ostream& os) {
      stamp::sweep::write_json(canon, os);
    });
    out.check(read_file(canonical) == baseline,
              "sweep_artifact: canonical artifact differs from "
              "sweeps/baseline.json");
  }
  out.input("artifact_bytes", static_cast<double>(bytes));

  if (!ctx.trace) {
    report_batch(out, passes, cfg.grid.size(), setup);
  } else {
    const double n = static_cast<double>(passes.traced.size());
    probe_grid_decode(tracer, out, cfg.grid);
    report_artifact_layers(tracer, out, n, static_cast<double>(bytes));
    const double evaluate_s = tracer.total("sweep.evaluate") / n;
    out.metric("sweep.evaluate_s", evaluate_s, "s");
    out.metric("sweep.evaluate_serial_s", serial_s, "s");
    out.metric("sweep.pool.efficiency", serial_s / (kPoolWidth * evaluate_s),
               "frac");
    out.metric("sweep.pool.steals", static_cast<double>(stats.pool_steals) / n,
               "count");
    report_cache(out, stats.cache_hits, stats.cache_misses,
                 stats.cache_evictions, n);
    out.metric("sweep.result.free_s", tracer.total("sweep.result.free") / n, "s");
    out.metric("rss.after_evaluate_mb", median(rss_evaluate), "MB");
    out.metric("rss.after_write_mb", median(rss_write), "MB");
    out.metric("trace_overhead_frac",
               median(passes.traced) / median(passes.untraced) - 1, "frac");
    reconcile(tracer, out);
    tracer.write_json(ctx.work_dir / "trace_sweep_artifact.json");
  }
  std::filesystem::remove(artifact);
  std::filesystem::remove(canonical);
  return out;
}

}  // namespace perfbench
