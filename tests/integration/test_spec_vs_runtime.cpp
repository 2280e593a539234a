/// Integration: the three evaluation layers must agree end to end —
/// declarative specs (no execution), the instrumented runtime, and the
/// placement optimizer fed from measured profiles.

#include "algo/jacobi.hpp"
#include "core/core.hpp"
#include "machine/governor.hpp"
#include "machine/simulator.hpp"
#include "runtime/profile.hpp"

#include <gtest/gtest.h>

namespace stamp {
namespace {

TEST(SpecVsRuntime, JacobiSpecPredictsMeasuredRuntimeCost) {
  // Spec evaluation and the measured run must price the Jacobi S-rounds
  // identically when the spec's symbolic counters equal the real counts and
  // the placements coincide.
  const int n = 8;
  MachineModel m;
  m.topology = {.chips = 1, .processors_per_chip = 1,
                .threads_per_processor = 8};  // one wide core: all intra
  m.params = {.ell_a = 0, .ell_e = 0, .g_sh_a = 0, .g_sh_e = 0,
              .L_a = 5, .L_e = 5, .g_mp_a = 0.5, .g_mp_e = 0.5};
  m.validate();

  const algo::LinearSystem sys = algo::make_diagonally_dominant_system(n, 41);
  algo::JacobiOptions opt;
  opt.processes = n;
  const auto dist = algo::jacobi_distributed(sys, m.topology, opt);
  const int iters = dist.solution.iterations;

  spec::Program prog;
  prog.add(spec::ProcessBuilder("jacobi",
                                Attributes{Distribution::IntraProc,
                                           ExecMode::Asynchronous,
                                           CommMode::Synchronous})
               .replicas(n)
               .loop(analysis::jacobi_round_counters(n),
                     static_cast<std::size_t>(iters), 0, 3));
  const spec::Evaluation eval = prog.evaluate(m);

  const Cost measured = dist.run.total_cost(dist.placement, m.params, m.energy);
  EXPECT_NEAR(eval.total.time, measured.time, 1e-9);
  EXPECT_NEAR(eval.total.energy, measured.energy, 1e-9);
}

TEST(SpecVsRuntime, MeasuredProfilesFeedThePlacementOptimizer) {
  // Run Jacobi, extract profiles from the recorders, and check the optimizer
  // reproduces the co-location decision the paper's intra_proc keyword makes.
  const int n = 4;
  MachineModel m = presets::niagara();
  m.envelope = PowerEnvelope{};

  const algo::LinearSystem sys = algo::make_diagonally_dominant_system(n, 43);
  algo::JacobiOptions opt;
  opt.processes = n;
  const auto dist = algo::jacobi_distributed(sys, m.topology, opt);

  const std::vector<ProcessProfile> profiles =
      runtime::profiles_from_run(dist.run);
  ASSERT_EQ(profiles.size(), static_cast<std::size_t>(n));
  // Per-unit counts match the paper's per-round counts (plus the outside
  // checks folded in by the unit structure).
  EXPECT_DOUBLE_EQ(profiles[0].m_s + profiles[0].m_r, 2.0 * (n - 1));

  const PlacementResult best = place_best(profiles, m, Objective::D);
  EXPECT_TRUE(best.eval.feasible);
  // Communication-heavy Jacobi wants full co-location when power allows.
  EXPECT_EQ(best.eval.placement.group_size(best.eval.placement.processor_of[0]),
            n);
}

TEST(SpecVsRuntime, ProfileNormalizesPerUnit) {
  runtime::Recorder rec;
  for (int u = 0; u < 5; ++u) {
    runtime::UnitScope unit(rec);
    runtime::RoundScope round(rec);
    rec.count_fp(10);
    rec.msg_send(true, 3);
    rec.msg_recv(false, 3);
    rec.observe_kappa(u);
  }
  const ProcessProfile p = runtime::profile_from_recorder(rec);
  EXPECT_DOUBLE_EQ(p.units, 5);
  EXPECT_DOUBLE_EQ(p.c_fp, 10);
  EXPECT_DOUBLE_EQ(p.m_s, 3);
  EXPECT_DOUBLE_EQ(p.m_r, 3);
  EXPECT_DOUBLE_EQ(p.kappa, 4);  // max, not averaged
}

TEST(GovernorVsSimulator, FittedFrequenciesRespectEnvelopeInSimulation) {
  // Close the DVFS loop: measure Jacobi, compute per-core nominal power from
  // the model, fit frequencies to a tight envelope, replay on the simulator
  // at those operating points, and verify simulated power per core fits.
  const int n = 8;
  MachineModel m = presets::niagara();
  m.envelope = PowerEnvelope{};

  const algo::LinearSystem sys = algo::make_diagonally_dominant_system(n, 47);
  algo::JacobiOptions opt;
  opt.processes = n;
  opt.distribution = Distribution::InterProc;  // one per core
  const auto dist = algo::jacobi_distributed(sys, m.topology, opt);

  const std::vector<Cost> costs =
      dist.run.process_costs(dist.placement, m.params, m.energy);
  std::vector<double> core_power(
      static_cast<std::size_t>(m.topology.total_processors()), 0.0);
  for (int i = 0; i < n; ++i)
    core_power[static_cast<std::size_t>(dist.placement.processor_of(i))] +=
        costs[static_cast<std::size_t>(i)].power();

  PowerEnvelope tight;
  tight.per_processor = 0.5 * *std::max_element(core_power.begin(),
                                                core_power.end());
  const machine::GovernorResult fit =
      machine::fit_envelope(core_power, m.topology, tight);
  ASSERT_TRUE(fit.feasible);
  EXPECT_LT(fit.min_frequency_used, 1.0);

  // Scaled model power per core must now fit the cap.
  for (std::size_t c = 0; c < core_power.size(); ++c)
    EXPECT_LE(machine::scaled_power(core_power[c], fit.points[c]),
              tight.per_processor + 1e-9);

  // And the simulator agrees directionally: whole-machine average power
  // drops under the fitted operating points.
  std::vector<machine::ProcessTrace> traces;
  for (const auto& rec : dist.run.recorders)
    traces.push_back(machine::trace_of_recorder(rec, CommMode::Synchronous));
  const machine::SimResult nominal =
      machine::replay(traces, dist.placement, m);
  machine::SimConfig cfg;
  cfg.operating_points = fit.points;
  const machine::SimResult fitted =
      machine::replay(traces, dist.placement, m, cfg);
  EXPECT_LT(fitted.power(), nominal.power());
  EXPECT_GT(fitted.makespan, nominal.makespan);
}

}  // namespace
}  // namespace stamp
