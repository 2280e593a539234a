/// Integration: nested STAMPs (rule 4 of Section 3.1). "A STAMP algorithm
/// can consist of any combinations of S-units, nested STAMPs (by invoking
/// other STAMP processes), or distributed STAMP processes."
///
/// The runtime is re-entrant: a process body may launch an inner program
/// with run_processes and fold the inner recorders' costs back into the
/// outer estimate with CostExpr (sequential outer, parallel inner) — exactly
/// the estimation recipe rule 4 prescribes once the structure is fixed.

#include "core/core.hpp"
#include "runtime/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>

namespace stamp {
namespace {

const Topology kTopo{.chips = 1, .processors_per_chip = 8,
                     .threads_per_processor = 4};

TEST(NestedStamp, InnerProgramRunsInsideOuterProcess) {
  // Outer: 2 coordinator processes. Each spawns an inner 3-process program.
  std::atomic<int> inner_bodies{0};
  std::vector<CostCounters> inner_totals(2);

  const runtime::RunResult outer = runtime::run_distributed(
      kTopo, 2, Distribution::InterProc, [&](runtime::Context& outer_ctx) {
        runtime::UnitScope unit(outer_ctx.recorder());
        outer_ctx.int_ops(5);  // coordination work

        // Nested STAMP: an inner intra_proc trio doing counted local work.
        const runtime::RunResult inner = runtime::run_distributed(
            kTopo, 3, Distribution::IntraProc, [&](runtime::Context& ctx) {
              runtime::UnitScope u(ctx.recorder());
              ctx.fp_ops(100);
              inner_bodies.fetch_add(1);
            });
        inner_totals[static_cast<std::size_t>(outer_ctx.id())] =
            inner.total_counters();
        outer_ctx.int_ops(1);  // join/check
      });

  EXPECT_EQ(inner_bodies.load(), 6);  // 2 outer x 3 inner
  for (const CostCounters& t : inner_totals) EXPECT_DOUBLE_EQ(t.c_fp, 300);
  EXPECT_DOUBLE_EQ(outer.total_counters().c_int, 12);
}

TEST(NestedStamp, CostExprPricesTheNestedStructure) {
  // Estimate the nested program of the previous test analytically:
  // outer = seq(local(0,5), par(3 x inner-unit), local(0,1)), two replicas in
  // parallel. Then verify the estimate against the measured counters priced
  // by the same formulas.
  const MachineModel m = presets::niagara();
  const ProcessCounts pc{};  // local-only work: no latency brackets

  const CostExpr inner_unit = CostExpr::local(100, 0);
  const CostExpr outer_one =
      CostExpr::seq({CostExpr::local(0, 5),
                     CostExpr::par({inner_unit, inner_unit, inner_unit}),
                     CostExpr::local(0, 1)});
  const CostExpr program = CostExpr::par({outer_one, outer_one});
  const Cost estimate = program.evaluate(m.params, m.energy, pc);

  // T per outer replica: 5 + max(100,100,100) + 1 = 106.
  EXPECT_DOUBLE_EQ(estimate.time, 106);
  // E: 2 replicas x (6 int + 3*100 fp).
  EXPECT_DOUBLE_EQ(estimate.energy,
                   2 * (6 * m.energy.w_int + 300 * m.energy.w_fp));

  // Measured: run it and price the recorded counters identically.
  std::vector<Cost> inner_cost(2);
  const runtime::RunResult outer = runtime::run_distributed(
      kTopo, 2, Distribution::InterProc, [&](runtime::Context& outer_ctx) {
        runtime::UnitScope unit(outer_ctx.recorder());
        outer_ctx.int_ops(5);
        const runtime::PlacementMap inner_pm =
            runtime::PlacementMap::fill_first(kTopo, 3);
        const runtime::RunResult inner =
            runtime::run_processes(inner_pm, [&](runtime::Context& ctx) {
              runtime::UnitScope u(ctx.recorder());
              ctx.fp_ops(100);
            });
        inner_cost[static_cast<std::size_t>(outer_ctx.id())] =
            inner.total_cost(inner_pm, m.params, m.energy);
        outer_ctx.int_ops(1);
      });

  // Rebuild the nested estimate from measurements: outer local cost +
  // measured inner parallel cost, two replicas in parallel.
  std::vector<Cost> outer_costs;
  for (int i = 0; i < 2; ++i) {
    const StampProcess proc =
        outer.recorders[static_cast<std::size_t>(i)].to_process(Attributes{});
    Cost c = proc.cost(m.params, m.energy, pc);
    c += inner_cost[static_cast<std::size_t>(i)];
    outer_costs.push_back(c);
  }
  const Cost measured = parallel(outer_costs);
  EXPECT_DOUBLE_EQ(measured.time, estimate.time);
  EXPECT_DOUBLE_EQ(measured.energy, estimate.energy);
}

TEST(NestedStamp, DeepNestingIsReentrant) {
  // Three levels: 2 -> 2 -> 2 processes; every leaf body runs exactly once.
  std::atomic<int> leaves{0};
  (void)runtime::run_distributed(
      kTopo, 2, Distribution::InterProc, [&](runtime::Context&) {
        (void)runtime::run_distributed(
            kTopo, 2, Distribution::IntraProc, [&](runtime::Context&) {
              (void)runtime::run_distributed(
                  kTopo, 2, Distribution::IntraProc,
                  [&](runtime::Context&) { leaves.fetch_add(1); });
            });
      });
  EXPECT_EQ(leaves.load(), 8);
}

}  // namespace
}  // namespace stamp
