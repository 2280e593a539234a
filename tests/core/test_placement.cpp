#include "core/placement.hpp"

#include <gtest/gtest.h>

namespace stamp {
namespace {

MachineModel machine_no_cap() {
  MachineModel m = presets::niagara();
  m.envelope = PowerEnvelope{};  // unconstrained
  return m;
}

ProcessProfile chatty_profile() {
  ProcessProfile p;
  p.c_fp = 100;
  p.c_int = 20;
  p.m_s = 6;
  p.m_r = 6;
  p.units = 10;
  return p;
}

ProcessProfile compute_profile() {
  ProcessProfile p;
  p.c_fp = 1000;
  p.c_int = 100;
  p.units = 10;
  return p;
}

TEST(ProcessProfile, SplitPartitionsCommunication) {
  ProcessProfile p;
  p.d_r = 10;
  p.d_w = 4;
  p.m_s = 6;
  p.m_r = 8;
  const CostCounters c = p.split(0.25);
  EXPECT_DOUBLE_EQ(c.d_r_a, 2.5);
  EXPECT_DOUBLE_EQ(c.d_r_e, 7.5);
  EXPECT_DOUBLE_EQ(c.d_w_a, 1);
  EXPECT_DOUBLE_EQ(c.d_w_e, 3);
  EXPECT_DOUBLE_EQ(c.m_s_a + c.m_s_e, 6);
  EXPECT_DOUBLE_EQ(c.m_r_a + c.m_r_e, 8);
}

TEST(ProcessProfile, SplitClampsFraction) {
  ProcessProfile p;
  p.d_r = 10;
  EXPECT_DOUBLE_EQ(p.split(2.0).d_r_a, 10);
  EXPECT_DOUBLE_EQ(p.split(-1.0).d_r_a, 0);
}

TEST(Placement, GroupSizeAndProcessorsUsed) {
  Placement pl;
  pl.processor_of = {0, 0, 1, 3, 3, 3};
  EXPECT_EQ(pl.group_size(0), 2);
  EXPECT_EQ(pl.group_size(1), 1);
  EXPECT_EQ(pl.group_size(2), 0);
  EXPECT_EQ(pl.group_size(3), 3);
  EXPECT_EQ(pl.processors_used(), 3);
}

TEST(EvaluatePlacement, CoLocationMakesCommunicationIntra) {
  const MachineModel m = machine_no_cap();
  const std::vector<ProcessProfile> profiles(4, chatty_profile());

  Placement together;
  together.processor_of = {0, 0, 0, 0};
  Placement apart;
  apart.processor_of = {0, 1, 2, 3};

  const auto eval_together =
      evaluate_placement(profiles, together, m, Objective::D);
  const auto eval_apart = evaluate_placement(profiles, apart, m, Objective::D);

  // Intra-processor communication is faster: co-location wins on time.
  EXPECT_LT(eval_together.total.time, eval_apart.total.time);
}

TEST(EvaluatePlacement, RejectsOversizedGroups) {
  const MachineModel m = machine_no_cap();  // 4 threads per processor
  const std::vector<ProcessProfile> profiles(5, chatty_profile());
  Placement pl;
  pl.processor_of = {0, 0, 0, 0, 0};
  EXPECT_THROW(evaluate_placement(profiles, pl, m, Objective::D),
               std::invalid_argument);
}

TEST(EvaluatePlacement, PowerCapViolationDetected) {
  MachineModel m = machine_no_cap();
  // Make the cap just below 2x the per-process power of a co-located pair.
  const std::vector<ProcessProfile> profiles(2, compute_profile());
  Placement pair;
  pair.processor_of = {0, 0};
  auto eval = evaluate_placement(profiles, pair, m, Objective::D);
  const double per_process = eval.process_costs[0].power();
  m.envelope.per_processor = 1.5 * per_process;
  m.envelope.per_chip = 0;
  m.envelope.system = 0;
  eval = evaluate_placement(profiles, pair, m, Objective::D);
  EXPECT_FALSE(eval.feasible);

  Placement spread;
  spread.processor_of = {0, 1};
  eval = evaluate_placement(profiles, spread, m, Objective::D);
  EXPECT_TRUE(eval.feasible);
}

TEST(Strategies, FillFirstCoLocates) {
  const MachineModel m = machine_no_cap();
  const std::vector<ProcessProfile> profiles(4, chatty_profile());
  const PlacementResult r = place_fill_first(profiles, m, Objective::D);
  EXPECT_EQ(r.eval.placement.group_size(0), 4);
  EXPECT_EQ(r.eval.placement.processors_used(), 1);
}

TEST(Strategies, RoundRobinSpreads) {
  const MachineModel m = machine_no_cap();
  const std::vector<ProcessProfile> profiles(4, chatty_profile());
  const PlacementResult r = place_round_robin(profiles, m, Objective::D);
  EXPECT_EQ(r.eval.placement.processors_used(), 4);
}

TEST(Strategies, CapacityGuards) {
  const MachineModel m = machine_no_cap();  // 32 threads total
  const std::vector<ProcessProfile> profiles(33, chatty_profile());
  EXPECT_THROW(place_fill_first(profiles, m, Objective::D), ParamError);
  EXPECT_THROW(place_round_robin(profiles, m, Objective::D), ParamError);
  EXPECT_THROW(place_greedy(profiles, m, Objective::D), ParamError);
}

TEST(Strategies, GreedyRespectsPowerCap) {
  MachineModel m = machine_no_cap();
  const std::vector<ProcessProfile> profiles(8, compute_profile());
  // Find solo power, then cap processors at ~2.5x that.
  Placement solo;
  solo.processor_of = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto eval = evaluate_placement(profiles, solo, m, Objective::D);
  m.envelope.per_processor = 2.5 * eval.process_costs[0].power();
  const PlacementResult r = place_greedy(profiles, m, Objective::D);
  EXPECT_TRUE(r.eval.feasible);
  for (int p = 0; p < m.topology.total_processors(); ++p)
    EXPECT_LE(r.eval.placement.group_size(p), 2);
}

TEST(Strategies, ExactUniformRequiresUniformProfiles) {
  const MachineModel m = machine_no_cap();
  std::vector<ProcessProfile> profiles{chatty_profile(), compute_profile()};
  EXPECT_THROW(place_exact_uniform(profiles, m, Objective::D), ParamError);
}

TEST(Strategies, ExactUniformBeatsOrMatchesBaselines) {
  MachineModel m = machine_no_cap();
  m.envelope.per_processor = 0;
  const std::vector<ProcessProfile> profiles(8, chatty_profile());
  const PlacementResult exact = place_exact_uniform(profiles, m, Objective::D);
  const PlacementResult fill = place_fill_first(profiles, m, Objective::D);
  const PlacementResult rr = place_round_robin(profiles, m, Objective::D);
  EXPECT_LE(exact.eval.objective, fill.eval.objective + 1e-9);
  EXPECT_LE(exact.eval.objective, rr.eval.objective + 1e-9);
  EXPECT_GT(exact.placements_examined, 1);
}

TEST(Strategies, PlaceBestPicksFeasibleOverFast) {
  MachineModel m = machine_no_cap();
  const std::vector<ProcessProfile> profiles(4, compute_profile());
  Placement all_one;
  all_one.processor_of = {0, 0, 0, 0};
  const auto dense = evaluate_placement(profiles, all_one, m, Objective::D);
  // Cap so only 1 process per processor is feasible.
  m.envelope.per_processor = 1.5 * dense.process_costs[0].power();
  const PlacementResult best = place_best(profiles, m, Objective::D);
  EXPECT_TRUE(best.eval.feasible);
  for (int p = 0; p < m.topology.total_processors(); ++p)
    EXPECT_LE(best.eval.placement.group_size(p), 1);
}

// Property: for communication-heavy uniform profiles with no power cap, the
// exact optimum under D co-locates as much as possible; for cap 0 < cap <
// solo power, no placement is feasible and the result is marked so.
class ExactPlacementTest : public ::testing::TestWithParam<int> {};

TEST_P(ExactPlacementTest, OptimumCoLocatesWithoutCaps) {
  const int n = GetParam();
  MachineModel m = machine_no_cap();
  const std::vector<ProcessProfile> profiles(static_cast<std::size_t>(n),
                                             chatty_profile());
  const PlacementResult r = place_exact_uniform(profiles, m, Objective::D);
  EXPECT_TRUE(r.eval.feasible);
  // Communication dominated: groups should be as full as the hardware allows.
  const int tpp = m.topology.threads_per_processor;
  const int expected_full_groups = n / tpp;
  int full_groups = 0;
  for (int p = 0; p < m.topology.total_processors(); ++p)
    if (r.eval.placement.group_size(p) == tpp) ++full_groups;
  EXPECT_GE(full_groups, expected_full_groups);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExactPlacementTest,
                         ::testing::Values(2, 4, 7, 8, 16, 32));

}  // namespace
}  // namespace stamp
