#include "shm/shared_region.hpp"

#include <gtest/gtest.h>

#include <atomic>

namespace stamp::shm {
namespace {

using runtime::Context;
using runtime::PlacementMap;

const Topology kTopo{.chips = 1, .processors_per_chip = 4,
                     .threads_per_processor = 4};

TEST(ResolveIntra, ForcedScopes) {
  const PlacementMap pm =
      PlacementMap::for_distribution(kTopo, 4, Distribution::InterProc);
  EXPECT_TRUE(resolve_intra(Scope::Intra, pm));
  EXPECT_FALSE(resolve_intra(Scope::Inter, pm));
}

TEST(ResolveIntra, AutoFollowsPlacement) {
  const PlacementMap together =
      PlacementMap::for_distribution(kTopo, 4, Distribution::IntraProc);
  EXPECT_TRUE(resolve_intra(Scope::Auto, together));
  const PlacementMap apart =
      PlacementMap::for_distribution(kTopo, 4, Distribution::InterProc);
  EXPECT_FALSE(resolve_intra(Scope::Auto, apart));
}

TEST(SharedRegion, ReadWriteRoundTrip) {
  SharedRegion<int> region(5);
  (void)runtime::run_distributed(kTopo, 1, Distribution::IntraProc,
                                 [&](Context& ctx) {
                                   EXPECT_EQ(region.read(ctx), 5);
                                   region.write(ctx, 9);
                                   EXPECT_EQ(region.read(ctx), 9);
                                 });
  EXPECT_EQ(region.peek(), 9);
}

TEST(SharedRegion, AccessesAreCounted) {
  SharedRegion<int> region(0);
  const auto r = runtime::run_distributed(
      kTopo, 2, Distribution::IntraProc, [&](Context& ctx) {
        (void)region.read(ctx);
        (void)region.read(ctx);
        region.write(ctx, 1);
      });
  for (const auto& rec : r.recorders) {
    EXPECT_DOUBLE_EQ(rec.totals().d_r_a, 2);  // co-located: intra
    EXPECT_DOUBLE_EQ(rec.totals().d_w_a, 1);
    EXPECT_DOUBLE_EQ(rec.totals().d_r_e, 0);
  }
}

TEST(SharedRegion, InterPlacementChargesInter) {
  SharedRegion<int> region(0);
  const auto r = runtime::run_distributed(
      kTopo, 2, Distribution::InterProc,
      [&](Context& ctx) { (void)region.read(ctx); });
  EXPECT_DOUBLE_EQ(r.recorders[0].totals().d_r_e, 1);
  EXPECT_DOUBLE_EQ(r.recorders[0].totals().d_r_a, 0);
}

TEST(SharedRegion, ConcurrentUpdatesAreAtomic) {
  constexpr int kN = 8;
  constexpr int kIncrements = 2000;
  SharedRegion<long> region(0);
  (void)runtime::run_distributed(kTopo, kN, Distribution::IntraProc,
                                 [&](Context& ctx) {
                                   for (int i = 0; i < kIncrements; ++i)
                                     region.update(ctx, [](long& v) { ++v; });
                                 });
  EXPECT_EQ(region.peek(), static_cast<long>(kN) * kIncrements);
}

TEST(QueuedCell, SerializedUpdatesSumCorrectly) {
  constexpr int kN = 8;
  constexpr int kIncrements = 2000;
  QueuedCell<long> cell(0);
  (void)runtime::run_distributed(kTopo, kN, Distribution::IntraProc,
                                 [&](Context& ctx) {
                                   for (int i = 0; i < kIncrements; ++i)
                                     cell.update(ctx, [](long& v) { ++v; });
                                 });
  EXPECT_EQ(cell.peek(), static_cast<long>(kN) * kIncrements);
}

TEST(QueuedCell, SerializationObserved) {
  constexpr int kN = 8;
  QueuedCell<long> cell(0);
  const auto r = runtime::run_distributed(
      kTopo, kN, Distribution::IntraProc, [&](Context& ctx) {
        for (int i = 0; i < 5000; ++i) cell.update(ctx, [](long& v) { ++v; });
      });
  // Under heavy contention from 8 threads, some queueing must be visible.
  EXPECT_GE(cell.worst_serialization(), 1);
  EXPECT_LE(cell.worst_serialization(), kN);
  // kappa recorded at the accessors never exceeds the cell's worst queue.
  for (const auto& rec : r.recorders)
    EXPECT_LE(rec.totals().kappa, cell.worst_serialization());
}

TEST(QueuedCell, SingleAccessorKappaIsOne) {
  QueuedCell<int> cell(0);
  const auto r = runtime::run_distributed(
      kTopo, 1, Distribution::IntraProc,
      [&](Context& ctx) { cell.update(ctx, [](int& v) { v = 7; }); });
  EXPECT_DOUBLE_EQ(cell.worst_serialization(), 1);
  EXPECT_DOUBLE_EQ(r.recorders[0].totals().kappa, 1);
}

TEST(QueuedCell, UpdateReturnsValue) {
  QueuedCell<int> cell(10);
  (void)runtime::run_distributed(kTopo, 1, Distribution::IntraProc,
                                 [&](Context& ctx) {
                                   const int prev = cell.update(
                                       ctx, [](int& v) { return v++; });
                                   EXPECT_EQ(prev, 10);
                                 });
  EXPECT_EQ(cell.peek(), 11);
}

}  // namespace
}  // namespace stamp::shm
