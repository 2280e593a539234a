#include "api/stamp.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace stamp {
namespace {

/// A deterministic little STAMP program: every process records the same
/// counter pattern, so two separate executions produce identical model costs.
void tiny_body(runtime::Context& ctx) {
  const runtime::UnitScope unit(ctx.recorder());
  {
    const runtime::RoundScope round(ctx.recorder());
    ctx.fp_ops(10);
    ctx.int_ops(5);
  }
}

TEST(Evaluator, DefaultsToNiagaraAndEdp) {
  const Evaluator eval;
  EXPECT_EQ(eval.machine().name, presets::niagara().name);
  EXPECT_EQ(eval.objective(), Objective::EDP);
}

TEST(Evaluator, RunMatchesManualRuntimeWorkflow) {
  const MachineModel machine = presets::niagara();
  const Evaluator eval({.machine = machine});

  const RunOutcome outcome = eval.run(4, Distribution::IntraProc, tiny_body);
  const runtime::RunResult manual = runtime::run_distributed(
      machine.topology, 4, Distribution::IntraProc, tiny_body);
  const runtime::PlacementMap placement =
      runtime::PlacementMap::for_distribution(machine.topology, 4,
                                              Distribution::IntraProc);

  ASSERT_EQ(outcome.run.recorders.size(), manual.recorders.size());
  EXPECT_EQ(outcome.run.total_counters(), manual.total_counters());
  EXPECT_EQ(outcome.placement.process_count(), placement.process_count());
  for (int p = 0; p < 4; ++p)
    EXPECT_EQ(outcome.placement.slot_of(p), placement.slot_of(p));
}

TEST(Evaluator, EvaluateMatchesManualCostAndEnvelope) {
  const MachineModel machine = presets::niagara();
  const Evaluator eval({.machine = machine, .objective = Objective::ED2P});
  const auto [outcome, evaluation] =
      eval.run_and_evaluate(4, Distribution::IntraProc, tiny_body);

  const Cost manual_total = outcome.run.total_cost(
      outcome.placement, machine.params, machine.energy);
  EXPECT_EQ(evaluation.total, manual_total);
  EXPECT_EQ(evaluation.process_costs,
            outcome.run.process_costs(outcome.placement, machine.params,
                                      machine.energy));
  EXPECT_DOUBLE_EQ(evaluation.objective_value,
                   metric_value(manual_total, Objective::ED2P));
  EXPECT_DOUBLE_EQ(evaluation.metrics.D, metrics_from(manual_total).D);
  EXPECT_EQ(evaluation.feasible, evaluation.envelope.feasible);
}

TEST(Evaluator, BestPlacementMatchesPlaceBest) {
  const MachineModel machine = presets::niagara();
  const Evaluator eval({.machine = machine, .objective = Objective::EDP});
  ProcessProfile profile;
  profile.c_fp = 100;
  profile.c_int = 20;
  profile.d_r = 8;
  profile.d_w = 4;
  const std::vector<ProcessProfile> profiles(6, profile);

  const PlacementResult a = eval.best_placement(profiles);
  const PlacementResult b = place_best(profiles, machine, Objective::EDP);
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_DOUBLE_EQ(a.eval.objective, b.eval.objective);
  EXPECT_EQ(a.eval.placement.processor_of, b.eval.placement.processor_of);
}

TEST(Evaluator, SweepMatchesEngineAndThreadCountIsInvisible) {
  const Evaluator eval;
  const sweep::SweepConfig cfg = sweep::SweepConfig::tiny();
  const std::string serial = sweep::to_json(eval.sweep(cfg));
  const std::string threaded =
      sweep::to_json(eval.sweep(cfg, sweep::SweepOptions{.threads = 4}));
  const std::string engine = sweep::to_json(sweep::run_sweep(cfg, nullptr));
  EXPECT_EQ(serial, engine);
  EXPECT_EQ(serial, threaded);
}

TEST(Evaluator, SerialSweepRunsWithoutAPoolLoop) {
  // threads <= 1 evaluates on the calling thread: after a pooled sweep has
  // cached a pool, a serial sweep must leave it alone and run no pool loop.
  const Evaluator eval;
  const sweep::SweepConfig cfg = sweep::SweepConfig::tiny();
  Evaluator::set_metrics(true);
  obs::Counter& loops = Evaluator::metrics_registry().counter("pool.loops");
  const std::string pooled =
      sweep::to_json(eval.sweep(cfg, sweep::SweepOptions{.threads = 2}));
  const std::uint64_t loops_after_pooled = loops.value();
  const std::string serial =
      sweep::to_json(eval.sweep(cfg, sweep::SweepOptions{.threads = 1}));
  EXPECT_EQ(loops.value(), loops_after_pooled);
  Evaluator::set_metrics(false);
  EXPECT_EQ(serial, pooled);
}

TEST(Evaluator, TracingDoesNotPerturbTheSweepArtifact) {
  const Evaluator eval;
  const sweep::SweepConfig cfg = sweep::SweepConfig::tiny();

  ASSERT_FALSE(Evaluator::tracing());
  const sweep::SweepOptions two_threads{.threads = 2};
  const std::string untraced = sweep::to_json(eval.sweep(cfg, two_threads));

  Evaluator::set_tracing(true);
  Evaluator::set_metrics(true);
  const std::string traced = sweep::to_json(eval.sweep(cfg, two_threads));
  Evaluator::set_tracing(false);
  Evaluator::set_metrics(false);
  Evaluator::clear_trace();

  EXPECT_EQ(traced, untraced);  // byte-identical artifact either way
}

TEST(Evaluator, TraceCoversSimulatorPoolAndCacheLayers) {
  const Evaluator eval;
  Evaluator::set_tracing(true);
  Evaluator::clear_trace();

  // Sweep on a pool: sweep + pool spans. The tiny grid's tuples are all
  // distinct, so it runs without a cache; a grid that repeats a value keeps
  // one and adds the cache spans.
  (void)eval.sweep(sweep::SweepConfig::tiny(), sweep::SweepOptions{.threads = 2});
  sweep::SweepConfig repeated = sweep::SweepConfig::tiny();
  repeated.grid = sweep::ParamGrid{};
  repeated.grid.axis(std::string(sweep::axes::kCores), {2, 4, 2});
  (void)eval.sweep(repeated, sweep::SweepOptions{.threads = 2});
  // Execute and replay a run: runtime + sim spans.
  const RunOutcome outcome = eval.run(2, Distribution::IntraProc, tiny_body);
  (void)eval.simulate_run(outcome.run, outcome.placement);

  const std::string json = Evaluator::trace_json();
  Evaluator::set_tracing(false);
  Evaluator::clear_trace();

  const obs::TraceSummary summary = obs::summarize_chrome_trace(json);
  std::set<std::string> categories;
  for (const auto& [category, count] : summary.events_by_category)
    categories.insert(category);
  EXPECT_TRUE(categories.contains("sweep"));
  EXPECT_TRUE(categories.contains("pool"));
  EXPECT_TRUE(categories.contains("cache"));
  EXPECT_TRUE(categories.contains("sim"));
  EXPECT_TRUE(categories.contains("runtime"));
  EXPECT_GT(summary.complete_spans, 0u);
}

TEST(Evaluator, SimulateRunAgreesWithDirectReplay) {
  const Evaluator eval;
  const RunOutcome outcome = eval.run(2, Distribution::IntraProc, tiny_body);

  std::vector<machine::ProcessTrace> traces;
  for (const runtime::Recorder& r : outcome.run.recorders)
    traces.push_back(machine::trace_of_recorder(r, CommMode::Synchronous));
  const machine::SimResult direct =
      machine::replay(traces, outcome.placement, eval.machine());
  const machine::SimResult facade =
      eval.simulate_run(outcome.run, outcome.placement);
  EXPECT_DOUBLE_EQ(facade.makespan, direct.makespan);
  EXPECT_DOUBLE_EQ(facade.energy, direct.energy);
}

TEST(Evaluator, ConstructorOptionsEnableRecorders) {
  ASSERT_FALSE(Evaluator::tracing());
  ASSERT_FALSE(Evaluator::metrics_on());
  {
    const Evaluator eval({.tracing = true, .metrics = true});
    EXPECT_TRUE(Evaluator::tracing());
    EXPECT_TRUE(Evaluator::metrics_on());
  }
  Evaluator::set_tracing(false);
  Evaluator::set_metrics(false);
  Evaluator::clear_trace();
}

TEST(Evaluator, MetricsRegistryIsTheGlobalOne) {
  EXPECT_EQ(&Evaluator::metrics_registry(), &obs::MetricsRegistry::global());
}

}  // namespace
}  // namespace stamp
