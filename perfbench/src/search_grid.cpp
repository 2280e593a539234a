/// \file search_grid.cpp
/// \brief Workload `search_grid`: what `stamp_search` does.
///
/// A seeded grid of the sweep_artifact shape whose fastest axis repeats one
/// value, so a quarter of the points hit the CostCache three indices after
/// their first probe. `Evaluator::optimize` prices it exhaustively and writes
/// the one-line `stamp-search/v1` artifact, then answers a batch of seeded
/// branch-and-bound (BnB) requests. Bound by evaluation, with almost no
/// serialization: a serialization change must not move it, while a change to
/// placement pricing or the cost cache must.

#include "bench.hpp"

#include "api/evaluator.hpp"
#include "search/search.hpp"

#include <memory>

namespace perfbench {

namespace {

constexpr std::size_t kBnbRequests = 32;

stamp::SearchRequest request_for(const stamp::sweep::SweepConfig& cfg,
                                 stamp::SearchMethod method,
                                 std::uint64_t seed, int threads) {
  stamp::SearchRequest r;
  r.config = cfg;
  r.method = method;
  r.seed = seed;
  r.threads = threads;
  return r;
}

}  // namespace

Outcome run_search_grid(const RunContext& ctx) {
  Outcome out;
  Tracer tracer;
  const std::filesystem::path artifact = ctx.work_dir / "search_artifact.json";
  const std::size_t requests = ctx.smoke ? 2 : kBnbRequests;

  stamp::sweep::SweepConfig cfg;
  std::unique_ptr<stamp::Evaluator> ev;
  std::vector<stamp::SearchRequest> bnb;
  stamp::SearchRequest exhaustive;
  std::size_t reference = 0;
  Setup setup([&] {
    cfg = seeded_config(ctx.seed, ctx.smoke, /*repeat_fast_axis=*/true);
    ev = std::make_unique<stamp::Evaluator>();
    (void)ev->sweep(stamp::sweep::SweepConfig::tiny(), {.threads = kPoolWidth});
    exhaustive = request_for(cfg, stamp::SearchMethod::Exhaustive, ctx.seed,
                             kPoolWidth);
    // BnB expands serially; pricing its 64-point leaves serially too keeps
    // each request's latency free of pool hand-offs, which on a shared
    // machine add more jitter than they save time.
    bnb.clear();
    for (std::size_t i = 0; i < requests; ++i)
      bnb.push_back(request_for(cfg, stamp::SearchMethod::BranchAndBound,
                                ctx.seed * 1000 + i, 1));
    // The winner every request must find, from the serial exhaustive scan.
    reference = ev->optimize(request_for(cfg, stamp::SearchMethod::Exhaustive,
                                         ctx.seed, 1))
                    .best.index;
    if (ctx.inject == "bnb") reference += 1;
  }, [&] { ev.reset(); });
  setup.repeat(kSetupRepeats);
  record_grid(out, cfg, static_cast<std::size_t>(kPoolWidth) * 8);
  out.input("bnb_requests_per_iteration", static_cast<double>(requests));

  // Process CPU time of each exhaustive scan and each BnB batch, and the
  // wall time of each BnB request.
  std::vector<double> exhaustive_cpu, batch_cpu, latencies;
  std::vector<double> rss_evaluate, rss_write;
  std::vector<std::size_t> winners;
  stamp::SearchStats bnb_stats{};
  std::size_t exhaustive_winner = 0;
  std::uint64_t bytes = 0;
  auto op = [&] {
    const bool traced = tracer.enabled();
    stamp::SearchResult ex;
    const double ex0 = process_cpu_s();
    {
      auto span = tracer.scope("search.exhaustive");
      ex = ev->optimize(exhaustive);
    }
    if (!traced) exhaustive_cpu.push_back(process_cpu_s() - ex0);
    exhaustive_winner = ex.best.index;
    if (traced) rss_evaluate.push_back(rss_mb());
    bytes = write_artifact(tracer, artifact, [&](std::ostream& os) {
      stamp::search::write_json(ex, os);
    });
    if (traced) rss_write.push_back(rss_mb());
    winners.clear();
    const double batch0 = process_cpu_s();
    auto batch = tracer.scope("search.bnb");
    for (const stamp::SearchRequest& r : bnb) {
      const Clock::time_point t0 = Clock::now();
      const stamp::SearchResult res = ev->optimize(r);
      if (!traced) latencies.push_back(seconds_between(t0, Clock::now()));
      winners.push_back(res.found ? res.best.index : ~std::size_t{0});
      if (traced) {
        bnb_stats.points_evaluated += res.stats.points_evaluated;
        bnb_stats.nodes_expanded += res.stats.nodes_expanded;
        bnb_stats.nodes_pruned += res.stats.nodes_pruned;
      }
    }
    if (!traced) batch_cpu.push_back(process_cpu_s() - batch0);
  };
  auto verify = [&] {
    out.check(exhaustive_winner == reference,
              "search_grid: pooled exhaustive winner " +
                  std::to_string(exhaustive_winner) +
                  " differs from the serial reference " +
                  std::to_string(reference));
    for (std::size_t i = 0; i < winners.size(); ++i)
      out.check(winners[i] == reference,
                "search_grid: BnB request seed " +
                    std::to_string(bnb[i].seed) + " found " +
                    std::to_string(winners[i]) + ", exhaustive winner is " +
                    std::to_string(reference));
  };
  const Passes passes =
      measure(ctx, tracer, ctx.smoke ? 1 : 3, op, verify);
  out.input("artifact_bytes", static_cast<double>(bytes));

  if (!ctx.trace) {
    // The exhaustive scan is the points figure; the BnB requests are the
    // operations and the wall latency sample.
    // Set-up is not rebuilt while measuring: the BnB requests right after a
    // rebuild run on a cold evaluator. It is built again after the measured
    // phase instead, as serve_open's.
    setup.repeat(kSetupRepeats);
    report_setup(out, setup);
    out.metric("points_per_cpu_s",
               static_cast<double>(cfg.grid.size()) / median(exhaustive_cpu),
               "1/cpu_s");
    out.metric("ops_per_cpu_s", static_cast<double>(requests) / median(batch_cpu),
               "1/cpu_s");
    record_wall_latency(out, median(latencies) * 1e3,
                        windowed(latencies, 0.99) * 1e3, latencies.size());
  } else {
    const double n = static_cast<double>(passes.traced.size());
    const double per_request = n * static_cast<double>(requests);
    out.metric("search.exhaustive_s", tracer.total("search.exhaustive") / n, "s");
    out.metric("search.bnb_s", tracer.total("search.bnb") / n, "s");
    out.metric("search.bnb.points_evaluated",
               static_cast<double>(bnb_stats.points_evaluated) / per_request,
               "count");
    out.metric("search.bnb.nodes_expanded",
               static_cast<double>(bnb_stats.nodes_expanded) / per_request,
               "count");
    out.metric("search.bnb.nodes_pruned",
               static_cast<double>(bnb_stats.nodes_pruned) / per_request,
               "count");
    out.metric("search.bnb.frac_priced",
               static_cast<double>(bnb_stats.points_evaluated) / per_request /
                   static_cast<double>(cfg.grid.size()),
               "frac");
    report_artifact_layers(tracer, out, n, static_cast<double>(bytes));
    out.metric("rss.after_evaluate_mb", median(rss_evaluate), "MB");
    out.metric("rss.after_write_mb", median(rss_write), "MB");
    out.metric("trace_overhead_frac",
               median(passes.traced) / median(passes.untraced) - 1, "frac");
    reconcile(tracer, out);

    // Layer probes outside the iterations: the grid decode, and the same
    // grid swept on the pool and serially, for the evaluation time and the
    // exact cache and pool counts the search result does not carry.
    probe_grid_decode(tracer, out, cfg.grid);
    tracer.set_enabled(true);
    stamp::sweep::SweepStats stats;
    {
      auto span = tracer.scope("sweep.evaluate");
      stats = ev->sweep(cfg, {.threads = kPoolWidth}).stats;
    }
    {
      auto span = tracer.scope("sweep.evaluate_serial");
      (void)ev->sweep(cfg, {.threads = 1});
    }
    tracer.set_enabled(false);
    const double evaluate_s = tracer.total("sweep.evaluate");
    const double serial_s = tracer.total("sweep.evaluate_serial");
    out.metric("sweep.evaluate_s", evaluate_s, "s");
    out.metric("sweep.evaluate_serial_s", serial_s, "s");
    out.metric("sweep.pool.efficiency", serial_s / (kPoolWidth * evaluate_s),
               "frac");
    out.metric("sweep.pool.steals", static_cast<double>(stats.pool_steals),
               "count");
    report_cache(out, stats.cache_hits, stats.cache_misses,
                 stats.cache_evictions, 1);
    tracer.write_json(ctx.work_dir / "trace_search_grid.json");
  }
  std::filesystem::remove(artifact);
  return out;
}

}  // namespace perfbench
