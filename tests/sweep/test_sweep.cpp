#include "sweep/sweep.hpp"

#include "sweep/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace stamp::sweep {
namespace {

TEST(Sweep, CanonicalGridIsLargeEnoughToGate) {
  const SweepConfig cfg = SweepConfig::canonical();
  EXPECT_GE(cfg.grid.size(), 256u);  // the acceptance floor
  EXPECT_EQ(cfg.grid.size(), 576u);
}

TEST(Sweep, SerialRunIsDeterministic) {
  const SweepConfig cfg = SweepConfig::tiny();
  const SweepResult a = run_sweep(cfg, nullptr);
  const SweepResult b = run_sweep(cfg, nullptr);
  EXPECT_EQ(a.records, b.records);
}

TEST(Sweep, PooledRecordsMatchSerialRecords) {
  const SweepConfig cfg = SweepConfig::tiny();
  const SweepResult serial = run_sweep(cfg, nullptr);
  Pool pool(4);
  const SweepResult pooled = run_sweep(cfg, &pool);
  EXPECT_EQ(serial.records, pooled.records);
}

// The acceptance property: over a >= 256-point grid, a 4-thread pool emits
// byte-identical JSON to a 1-thread pool (and to the serial reference).
TEST(Sweep, JsonIsByteIdenticalAcrossPoolWidths) {
  const SweepConfig cfg = SweepConfig::canonical();
  ASSERT_GE(cfg.grid.size(), 256u);
  Pool one(1);
  Pool four(4);
  const std::string json1 = to_json(run_sweep(cfg, &one));
  const std::string json4 = to_json(run_sweep(cfg, &four));
  EXPECT_EQ(json1, json4);
  EXPECT_EQ(json1, to_json(run_sweep(cfg, nullptr)));
}

// The memoization contract since the batch evaluator: one cache probe per
// point (all four metrics derive from the one memoized (T, E) pair). A
// Cartesian grid never repeats a full parameter tuple, so every probe of a
// serial sweep is the miss that computes the point.
TEST(Sweep, BatchPathProbesTheCacheOncePerPoint) {
  const SweepConfig cfg = SweepConfig::tiny();
  const SweepResult r = run_sweep(cfg, nullptr);
  const auto points = static_cast<std::uint64_t>(cfg.grid.size());
  EXPECT_EQ(r.stats.cache_misses, points);
  EXPECT_EQ(r.stats.cache_hits, 0u);
}

TEST(Sweep, PooledCacheAccountsForEveryQuery) {
  const SweepConfig cfg = SweepConfig::tiny();
  Pool pool(4);
  const SweepResult r = run_sweep(cfg, &pool);
  const auto points = static_cast<std::uint64_t>(cfg.grid.size());
  // One probe per point; every probe is counted exactly once (hit or miss),
  // and at least one miss per distinct tuple is unavoidable.
  EXPECT_EQ(r.stats.cache_hits + r.stats.cache_misses, points);
  EXPECT_GE(r.stats.cache_misses, points);
}

// A grid whose tuples are all distinct is priced without a cache, so even a
// cache bound far below its point count evicts nothing, and every priced
// point still counts as exactly one miss.
TEST(Sweep, DistinctGridBypassesABoundedCache) {
  SweepConfig cfg = SweepConfig::canonical();
  cfg.cache_entries_per_shard = 1;
  ASSERT_TRUE(cfg.grid.tuples_distinct());
  const auto points = static_cast<std::uint64_t>(cfg.grid.size());
  for (const int width : {1, 4}) {
    Pool pool(width);
    // A cache this small would have to evict.
    ASSERT_GT(points, cfg.cache_entries_per_shard * cache_shards(&pool));
    const SweepResult r = run_sweep(cfg, &pool);
    EXPECT_TRUE(r.stats.cache_bypassed) << "width " << width;
    EXPECT_EQ(r.stats.cache_evictions, 0u) << "width " << width;
    EXPECT_EQ(r.stats.cache_hits + r.stats.cache_misses, points)
        << "width " << width;
  }
}

// A NaN axis value makes the grid keep its cache, whose key check rejects
// the point with the same error a sweep has always raised.
TEST(Sweep, NanKappaStillFailsThroughTheCacheKeyCheck) {
  SweepConfig cfg = SweepConfig::tiny();
  cfg.grid = ParamGrid{};
  cfg.grid.axis(std::string(axes::kCores), {2, 4})
      .axis(std::string(axes::kKappa),
            {0, std::numeric_limits<double>::quiet_NaN()});
  ASSERT_FALSE(cfg.grid.tuples_distinct());
  for (const int width : {0, 4}) {
    Pool pool(std::max(width, 1));
    try {
      (void)run_sweep(cfg, width == 0 ? nullptr : &pool);
      ADD_FAILURE() << "a NaN kappa point must fail the sweep";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "CostCache: key component is NaN or infinite");
    }
  }
}

TEST(Sweep, MetricsAreConsistentDerivationsOfOneCost) {
  const SweepResult r = run_sweep(SweepConfig::tiny(), nullptr);
  for (const SweepRecord& rec : r.records) {
    EXPECT_DOUBLE_EQ(rec.metrics.EDP, rec.metrics.PDP * rec.metrics.D);
    EXPECT_DOUBLE_EQ(rec.metrics.ED2P, rec.metrics.EDP * rec.metrics.D);
    EXPECT_GT(rec.metrics.D, 0);
    EXPECT_GT(rec.metrics.PDP, 0);
  }
}

TEST(Sweep, RecordsAreSortedByGridIndexWithDecodedParams) {
  const SweepConfig cfg = SweepConfig::tiny();
  const SweepResult r = run_sweep(cfg, nullptr);
  ASSERT_EQ(r.records.size(), cfg.grid.size());
  for (std::size_t i = 0; i < r.records.size(); ++i) {
    EXPECT_EQ(r.records[i].index, i);
    EXPECT_EQ(r.records[i].params, cfg.grid.point(i));
  }
}

TEST(Sweep, SelectsAProcessCountWithinTheHardwareBound) {
  const SweepConfig cfg = SweepConfig::canonical();
  const SweepResult r = run_sweep(cfg, nullptr);
  for (const SweepRecord& rec : r.records) {
    const int cores = static_cast<int>(
        cfg.grid.value(rec.params, axes::kCores));
    const int tpc = static_cast<int>(
        cfg.grid.value(rec.params, axes::kThreadsPerCore));
    EXPECT_GE(rec.processes, 1);
    EXPECT_LE(rec.processes, std::min(cfg.processes, cores * tpc));
  }
}

TEST(Sweep, ClassicalModelPredictionsAreFinite) {
  const SweepResult r = run_sweep(SweepConfig::tiny(), nullptr);
  for (const SweepRecord& rec : r.records)
    for (const double t : rec.classical) {
      EXPECT_TRUE(std::isfinite(t));
      EXPECT_GT(t, 0);
    }
}

TEST(Sweep, MachineParameterAxesActuallyChangeTheMetrics) {
  // Two points that differ only in ell_e must price shared-memory latency
  // differently somewhere in the grid (sanity against dead axes).
  const SweepConfig cfg = SweepConfig::canonical();
  const SweepResult r = run_sweep(cfg, nullptr);
  const int ell_axis = cfg.grid.axis_index(std::string(axes::kEllE));
  ASSERT_GE(ell_axis, 0);
  bool any_difference = false;
  for (std::size_t i = 0; i + 1 < r.records.size() && !any_difference; ++i) {
    for (std::size_t j = i + 1; j < r.records.size(); ++j) {
      std::vector<double> a = r.records[i].params;
      std::vector<double> b = r.records[j].params;
      a[static_cast<std::size_t>(ell_axis)] = 0;
      b[static_cast<std::size_t>(ell_axis)] = 0;
      if (a == b && r.records[i].metrics != r.records[j].metrics) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

// Regression: integer-coded axis values are validated *before* the
// double -> int cast. A NaN, out-of-int-range, or non-positive processes
// value used to hit the cast unchecked (UB for out-of-range, a silent
// clamp-to-1 for non-positive); now every such value throws.
TEST(Sweep, SetupPointRejectsUnrepresentableIntegerAxisValues) {
  SweepConfig cfg = SweepConfig::tiny();
  cfg.grid = ParamGrid{};
  cfg.grid.axis(std::string(axes::kProcesses), {16});

  EXPECT_EQ(setup_point(cfg, std::vector<double>{16}).processes, 16);
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(), 1e18, -3.0, 0.0}) {
    EXPECT_THROW((void)setup_point(cfg, std::vector<double>{bad}),
                 std::invalid_argument)
        << "processes axis value " << bad;
  }

  cfg.grid = ParamGrid{};
  cfg.grid.axis(std::string(axes::kPlacement), {0});
  EXPECT_THROW(
      (void)setup_point(cfg, std::vector<double>{-1e18}),
      std::invalid_argument);  // pre-cast range check, not UB then a throw
}

TEST(Sweep, JsonArtifactCarriesTheStableSchema) {
  const std::string json = to_json(run_sweep(SweepConfig::tiny(), nullptr));
  EXPECT_NE(json.find("\"schema\":\"stamp-sweep/v1\""), std::string::npos);
  EXPECT_NE(json.find("\"points\":["), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":{\"D\":"), std::string::npos);
  EXPECT_NE(json.find("\"models\":{\"PRAM\":"), std::string::npos);
}

}  // namespace
}  // namespace stamp::sweep
