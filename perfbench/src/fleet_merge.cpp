/// \file fleet_merge.cpp
/// \brief Workload `fleet_merge`: what `stamp_fleet` does, without the
///        process spawning that dominates the tool's own wall time.
///
/// Two in-process `serve::Server` workers, started during set-up, answer a
/// `dist::Coordinator` that shards the canonical grid over them into a fresh
/// write-ahead journal each time; the journal is merged through an
/// `Evaluator::sweep` resume and the artifact written through
/// `report::AtomicFileWriter`. The only workload that goes through the
/// `dist` wire decoding and `sweep::Journal` append and replay.

#include "bench.hpp"

#include "api/evaluator.hpp"
#include "dist/coordinator.hpp"
#include "serve/server.hpp"
#include "sweep/journal.hpp"

#include <memory>

namespace perfbench {

namespace {

constexpr std::size_t kFleetWorkers = 2;
/// Worker threads inside each fleet server: the coordinator keeps one
/// shard in flight per server.
constexpr int kThreadsPerServer = 1;
/// A `serve::Server` keeps every connection it accepted, and its reader
/// thread, until it drains, and every coordinator run connects afresh. So
/// the fleet is set up again (see `Setup`) after this many iterations: the
/// peak resident set then stops growing once that many have run, instead
/// of growing with however many a run fits in its time.
constexpr std::size_t kSetupEvery = 50;

struct Fleet {
  std::vector<std::unique_ptr<stamp::serve::Server>> servers;
  std::unique_ptr<stamp::dist::Coordinator> coordinator;
  std::unique_ptr<stamp::Evaluator> evaluator;

  ~Fleet() {
    for (auto& s : servers) s->drain();
  }
};

}  // namespace

Outcome run_fleet_merge(const RunContext& ctx) {
  Outcome out;
  Tracer tracer;
  const std::filesystem::path journal_path = ctx.work_dir / "fleet.journal";
  const std::filesystem::path artifact = ctx.work_dir / "fleet_artifact.json";
  const stamp::sweep::SweepConfig cfg = stamp::sweep::SweepConfig::canonical();

  std::unique_ptr<Fleet> fleet;
  std::string baseline;
  // One fleet run into the journal, merged into the artifact. Returns the
  // coordinator's statistics.
  auto run_once = [&] {
    std::filesystem::remove(journal_path);
    std::unique_ptr<stamp::sweep::Journal> journal;
    stamp::dist::FleetStats fs;
    {
      auto span = tracer.scope("sweep.journal.open");
      journal = std::make_unique<stamp::sweep::Journal>(journal_path.string(), cfg);
    }
    {
      auto span = tracer.scope("dist.coordinator.run");
      fs = fleet->coordinator->run(*journal, nullptr);
    }
    {
      auto span = tracer.scope("sweep.journal.sync");
      journal.reset();
    }
    std::unique_ptr<stamp::sweep::ResumeState> merged;
    {
      auto span = tracer.scope("sweep.journal.load");
      merged = std::make_unique<stamp::sweep::ResumeState>(
          stamp::sweep::ResumeState::load(journal_path.string(), cfg));
    }
    stamp::sweep::SweepResult result;
    {
      auto span = tracer.scope("sweep.merge");
      result = fleet->evaluator->sweep(cfg, {.resume = merged.get(), .threads = 1});
    }
    (void)write_artifact(tracer, artifact, [&](std::ostream& os) {
      stamp::sweep::write_json(result, os);
    });
    auto span = tracer.scope("sweep.result.free");
    result = {};
    merged.reset();
    return fs;
  };

  // Start the servers and fill their caches, as a long-lived fleet's are.
  Setup setup([&] {
    fleet = std::make_unique<Fleet>();
    stamp::dist::FleetOptions options;
    for (std::size_t i = 0; i < kFleetWorkers; ++i) {
      stamp::serve::ServerOptions so;
      so.workers = kThreadsPerServer;
      so.engine.grid = "canonical";
      fleet->servers.push_back(std::make_unique<stamp::serve::Server>(so));
      fleet->servers.back()->start();
      options.ports.push_back(fleet->servers.back()->port());
    }
    fleet->coordinator = std::make_unique<stamp::dist::Coordinator>(cfg, options);
    fleet->evaluator = std::make_unique<stamp::Evaluator>(
        stamp::EvaluatorOptions{.machine = cfg.base, .objective = cfg.objective});
    (void)run_once();
    baseline = read_file(ctx.root / "sweeps" / "baseline.json");
    if (ctx.inject == "fleet") baseline.back() ^= 1;
  }, [&] { fleet.reset(); });
  setup.repeat(kSetupRepeats);
  record_grid(out, cfg, 16);
  out.input("fleet_servers", static_cast<double>(kFleetWorkers));
  out.input("threads_per_server", kThreadsPerServer);

  stamp::dist::FleetStats totals;
  std::uint64_t journal_bytes = 0;
  std::size_t iterations = 0;
  auto op = [&] {
    const stamp::dist::FleetStats fs = run_once();
    if (tracer.enabled()) {
      totals.shards += fs.shards;
      totals.dispatched += fs.dispatched;
      totals.reconnects += fs.reconnects;
      journal_bytes = std::filesystem::file_size(journal_path);
    }
  };
  auto verify = [&] {
    out.check(read_file(artifact) == baseline,
              "fleet_merge: merged artifact differs from sweeps/baseline.json");
    if (++iterations % kSetupEvery == 0) setup.repeat();
  };
  const Passes passes =
      measure(ctx, tracer, ctx.smoke ? 1 : kSetupEvery, op, verify);
  out.input("iterations", static_cast<double>(iterations));
  out.input("setup_every_iterations", static_cast<double>(kSetupEvery));

  if (!ctx.trace) {
    report_batch(out, passes, cfg.grid.size(), setup);
  } else {
    const double n = static_cast<double>(passes.traced.size());
    out.metric("dist.coordinator.run_s", tracer.total("dist.coordinator.run") / n, "s");
    out.metric("dist.shards", static_cast<double>(totals.shards) / n, "count");
    out.metric("dist.dispatched", static_cast<double>(totals.dispatched) / n, "count");
    out.metric("dist.reconnects", static_cast<double>(totals.reconnects) / n, "count");
    out.metric("sweep.journal.open_s", tracer.total("sweep.journal.open") / n, "s");
    out.metric("sweep.journal.sync_s", tracer.total("sweep.journal.sync") / n, "s");
    out.metric("sweep.journal.load_s", tracer.total("sweep.journal.load") / n, "s");
    out.metric("sweep.journal.bytes", static_cast<double>(journal_bytes), "bytes");
    out.metric("sweep.merge_s", tracer.total("sweep.merge") / n, "s");
    out.metric("sweep.result.free_s", tracer.total("sweep.result.free") / n, "s");
    report_artifact_layers(tracer, out, n,
                           static_cast<double>(std::filesystem::file_size(artifact)));
    std::uint64_t hits = 0, misses = 0, evictions = 0;
    for (const auto& s : fleet->servers) {
      hits += s->engine().cache().hits();
      misses += s->engine().cache().misses();
      evictions += s->engine().cache().evictions();
    }
    // The current fleet's caches, per coordinator run since its set-up
    // (whose warm-up run is one of them).
    report_cache(out, hits, misses, evictions,
                 static_cast<double>(iterations % kSetupEvery + 1));
    out.metric("trace_overhead_frac",
               median(passes.traced) / median(passes.untraced) - 1, "frac");
    reconcile(tracer, out);
    tracer.write_json(ctx.work_dir / "trace_fleet_merge.json");
  }
  std::filesystem::remove(journal_path);
  std::filesystem::remove(artifact);
  return out;
}

}  // namespace perfbench
