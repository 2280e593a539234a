/// Byte-identity harness: the `stamp-sweep/v1` artifact must be identical no
/// matter how the sweep is scheduled. For each config the serial reference
/// JSON is compared against pool runs at 1, 4, and 16 threads (1 = degenerate
/// pool, 4 = oversubscribed on small machines, 16 = more workers than most
/// grids have natural chunks, so the range-claiming scheduler's stealing and
/// remainder-parking paths all execute). Any scheduling dependence — records
/// keyed by completion order, cache effects leaking into records, float
/// reassociation — shows up here as a byte diff.

#include "sweep/sweep.hpp"

#include <gtest/gtest.h>

#include <string>

namespace stamp::sweep {
namespace {

void expect_identical_at_every_width(const SweepConfig& cfg) {
  const std::string serial = to_json(run_sweep(cfg, nullptr));
  for (const int threads : {1, 4, 16}) {
    Pool pool(threads);
    const std::string pooled = to_json(run_sweep(cfg, &pool));
    EXPECT_EQ(serial, pooled)
        << "artifact differs from serial at " << threads << " threads";
  }
}

TEST(SweepIdentity, TinyGridIsSchedulingIndependent) {
  expect_identical_at_every_width(SweepConfig::tiny());
}

TEST(SweepIdentity, CanonicalGridIsSchedulingIndependent) {
  const SweepConfig cfg = SweepConfig::canonical();
  ASSERT_GE(cfg.grid.size(), 256u);  // the gate's acceptance floor
  expect_identical_at_every_width(cfg);
}

// The bench configuration: canonical plus a `processes` bound axis. This is
// the 8-axis grid BENCH_sweep.json reports on, and the axis doubles the
// number of distinct cache keys per machine configuration.
TEST(SweepIdentity, EightAxisBenchGridIsSchedulingIndependent) {
  SweepConfig cfg = SweepConfig::canonical();
  cfg.grid.axis(std::string(axes::kProcesses), {16, 64});
  cfg.workload = "uniform-comm-bench8";
  ASSERT_EQ(cfg.grid.size(), 1152u);
  expect_identical_at_every_width(cfg);
}

}  // namespace
}  // namespace stamp::sweep
