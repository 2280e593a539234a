#include "runtime/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

namespace stamp::runtime {
namespace {

const Topology kTopo{.chips = 1, .processors_per_chip = 4,
                     .threads_per_processor = 4};

TEST(Executor, RunsOneBodyPerProcess) {
  std::atomic<int> calls{0};
  const RunResult r = run_distributed(kTopo, 8, Distribution::IntraProc,
                                      [&](Context&) { ++calls; });
  EXPECT_EQ(calls.load(), 8);
  EXPECT_EQ(r.recorders.size(), 8u);
  EXPECT_GT(r.wall_time.count(), 0);
}

TEST(Executor, ContextIdsAreDistinctAndComplete) {
  std::vector<std::atomic<int>> seen(8);
  (void)run_distributed(kTopo, 8, Distribution::InterProc, [&](Context& ctx) {
    seen[static_cast<std::size_t>(ctx.id())].fetch_add(1);
    EXPECT_EQ(ctx.process_count(), 8);
  });
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(Executor, RecordersCollectPerProcessCounts) {
  const RunResult r =
      run_distributed(kTopo, 4, Distribution::IntraProc, [](Context& ctx) {
        ctx.fp_ops(ctx.id() + 1);
        ctx.int_ops(10);
      });
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(r.recorders[static_cast<std::size_t>(i)].totals().c_fp,
                     i + 1);
    EXPECT_DOUBLE_EQ(r.recorders[static_cast<std::size_t>(i)].totals().c_int, 10);
  }
  EXPECT_DOUBLE_EQ(r.total_counters().c_fp, 1 + 2 + 3 + 4);
}

TEST(Executor, IntraWithFollowsPlacement) {
  // 8 processes fill-first on 4-thread processors: 0-3 together, 4-7 together.
  (void)run_distributed(kTopo, 8, Distribution::IntraProc, [](Context& ctx) {
    const bool first_group = ctx.id() < 4;
    const int same = first_group ? (ctx.id() + 1) % 4 : 4 + (ctx.id() + 1) % 4;
    if (same != ctx.id()) {
      EXPECT_TRUE(ctx.intra_with(same));
    }
    const int other = first_group ? 4 : 0;
    EXPECT_FALSE(ctx.intra_with(other));
  });
}

TEST(Executor, ExceptionPropagates) {
  EXPECT_THROW((void)run_distributed(kTopo, 4, Distribution::IntraProc,
                                     [](Context& ctx) {
                                       if (ctx.id() == 2)
                                         throw std::runtime_error("boom");
                                     }),
               std::runtime_error);
}

TEST(Executor, CostsUsePlacementContext) {
  // The same recorded operations cost more when peers are inter-processor
  // (inter latency applies, plus inter bandwidth if charged that way).
  const auto body = [](Context& ctx) {
    RoundScope round(ctx.recorder());
    ctx.recorder().msg_send(false, 3);
    ctx.recorder().msg_recv(false, 3);
    ctx.fp_ops(5);
  };
  const RunResult intra = run_distributed(kTopo, 4, Distribution::IntraProc, body);
  const RunResult inter = run_distributed(kTopo, 4, Distribution::InterProc, body);

  const MachineParams mp;
  const EnergyParams ep;
  const PlacementMap pm_intra =
      PlacementMap::for_distribution(kTopo, 4, Distribution::IntraProc);
  const PlacementMap pm_inter =
      PlacementMap::for_distribution(kTopo, 4, Distribution::InterProc);
  const Cost c_intra = intra.total_cost(pm_intra, mp, ep);
  const Cost c_inter = inter.total_cost(pm_inter, mp, ep);
  // Same ops; the inter placement adds ell_e/L_e through the brackets.
  EXPECT_GT(c_inter.time, c_intra.time);
  EXPECT_DOUBLE_EQ(c_inter.energy, c_intra.energy);
}

TEST(Executor, SingleProcessRun) {
  const RunResult r = run_distributed(kTopo, 1, Distribution::IntraProc,
                                      [](Context& ctx) { ctx.fp_ops(42); });
  EXPECT_EQ(r.recorders.size(), 1u);
  EXPECT_DOUBLE_EQ(r.total_counters().c_fp, 42);
}

// Property: process_costs has one entry per process and parallel total is
// max/sum.
class ExecutorCostTest : public ::testing::TestWithParam<int> {};

TEST_P(ExecutorCostTest, TotalCostIsParallelComposition) {
  const int n = GetParam();
  const PlacementMap pm =
      PlacementMap::for_distribution(kTopo, n, Distribution::IntraProc);
  const RunResult r = run_processes(pm, [](Context& ctx) {
    UnitScope unit(ctx.recorder());
    ctx.fp_ops(10 * (ctx.id() + 1));
  });
  const MachineParams mp;
  const EnergyParams ep;
  const std::vector<Cost> costs = r.process_costs(pm, mp, ep);
  ASSERT_EQ(costs.size(), static_cast<std::size_t>(n));
  const Cost total = r.total_cost(pm, mp, ep);
  double max_t = 0, sum_e = 0;
  for (const Cost& c : costs) {
    max_t = std::max(max_t, c.time);
    sum_e += c.energy;
  }
  EXPECT_DOUBLE_EQ(total.time, max_t);
  EXPECT_DOUBLE_EQ(total.energy, sum_e);
  EXPECT_DOUBLE_EQ(total.time, 10.0 * n);  // slowest process
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExecutorCostTest, ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace stamp::runtime
