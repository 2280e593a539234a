#include "shm/swmr_matrix.hpp"

#include <gtest/gtest.h>

namespace stamp::shm {
namespace {

using runtime::Context;

const Topology kTopo{.chips = 1, .processors_per_chip = 4,
                     .threads_per_processor = 4};

TEST(SwmrMatrix, DimensionsValidated) {
  EXPECT_THROW(SwmrMatrix<double>(0, 3), std::invalid_argument);
  EXPECT_THROW(SwmrMatrix<double>(3, 0), std::invalid_argument);
  const SwmrMatrix<double> m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_DOUBLE_EQ(m.peek(1, 2), 1.5);
}

TEST(SwmrMatrix, PokePeekRoundTrip) {
  SwmrMatrix<int> m(2, 2);
  m.poke(0, 1, 42);
  EXPECT_EQ(m.peek(0, 1), 42);
  EXPECT_EQ(m.peek(1, 0), 0);
}

TEST(SwmrMatrix, BoundsChecked) {
  SwmrMatrix<int> m(2, 2);
  EXPECT_THROW(m.poke(2, 0, 1), std::out_of_range);
  EXPECT_THROW(m.poke(0, -1, 1), std::out_of_range);
  EXPECT_THROW((void)m.peek(0, 2), std::out_of_range);
}

TEST(SwmrMatrix, OwnershipEnforced) {
  SwmrMatrix<int> m(4, 4);
  (void)runtime::run_distributed(kTopo, 4, Distribution::IntraProc,
                                 [&](Context& ctx) {
                                   m.write(ctx, ctx.id(), 0, ctx.id());
                                   const int other = (ctx.id() + 1) % 4;
                                   EXPECT_THROW(m.write(ctx, other, 0, 0),
                                                std::logic_error);
                                 });
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(m.peek(i, 0), i);
  }
}

TEST(SwmrMatrix, RowWriteSizeChecked) {
  SwmrMatrix<int> m(2, 3);
  (void)runtime::run_distributed(
      kTopo, 2, Distribution::IntraProc, [&](Context& ctx) {
        if (ctx.id() == 0) {
          EXPECT_THROW(m.write_row(ctx, 0, std::vector<int>{1, 2}),
                       std::invalid_argument);
        }
      });
}

TEST(SwmrMatrix, ReadCountsChargePerElement) {
  SwmrMatrix<double> m(4, 4);
  const auto r = runtime::run_distributed(
      kTopo, 4, Distribution::IntraProc, [&](Context& ctx) {
        (void)m.read_row(ctx, ctx.id());       // 4 reads
        (void)m.read(ctx, (ctx.id() + 1) % 4, 0);  // 1 read
      });
  const CostCounters c = r.recorders[0].totals();
  EXPECT_DOUBLE_EQ(c.d_r_a + c.d_r_e, 5);
}

TEST(SwmrMatrix, ReadAllChargesWholeMatrix) {
  SwmrMatrix<double> m(4, 4);
  const auto r = runtime::run_distributed(
      kTopo, 4, Distribution::IntraProc,
      [&](Context& ctx) { (void)m.read_all(ctx); });
  const CostCounters c = r.recorders[0].totals();
  EXPECT_DOUBLE_EQ(c.d_r_a + c.d_r_e, 16);
}

TEST(SwmrMatrix, IntraInterSplitFollowsRowOwner) {
  // InterProc placement: every peer is remote, own row is local.
  SwmrMatrix<double> m(4, 2);
  const auto r = runtime::run_distributed(
      kTopo, 4, Distribution::InterProc, [&](Context& ctx) {
        for (int row = 0; row < 4; ++row) (void)m.read_row(ctx, row);
      });
  const CostCounters c = r.recorders[0].totals();
  EXPECT_DOUBLE_EQ(c.d_r_a, 2);  // own row only
  EXPECT_DOUBLE_EQ(c.d_r_e, 6);  // three remote rows
}

TEST(SwmrMatrix, WritesVisibleToReaders) {
  constexpr int kN = 4;
  SwmrMatrix<long> m(kN, 1, -1);
  (void)runtime::run_distributed(
      kTopo, kN, Distribution::IntraProc, [&](Context& ctx) {
        m.write(ctx, ctx.id(), 0, 100 + ctx.id());
        // Spin until all rows are published (SWMR: no locks needed).
        for (int row = 0; row < kN; ++row) {
          while (m.read(ctx, row, 0) < 0) {
          }
        }
      });
  for (int i = 0; i < kN; ++i) EXPECT_EQ(m.peek(i, 0), 100 + i);
}

TEST(SwmrMatrix, ConcurrentSingleWriterPerRowKeepsRowsIndependent) {
  constexpr int kN = 8;
  constexpr int kWrites = 1000;
  SwmrMatrix<long> m(kN, 4);
  (void)runtime::run_distributed(
      kTopo, kN, Distribution::IntraProc, [&](Context& ctx) {
        for (int w = 1; w <= kWrites; ++w) {
          std::vector<long> row(4, static_cast<long>(ctx.id()) * kWrites + w);
          m.write_row(ctx, ctx.id(), row);
        }
      });
  for (int i = 0; i < kN; ++i)
    for (int c = 0; c < 4; ++c)
      EXPECT_EQ(m.peek(i, c), static_cast<long>(i) * kWrites + kWrites);
}

}  // namespace
}  // namespace stamp::shm
