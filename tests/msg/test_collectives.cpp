#include "msg/collectives.hpp"

#include "runtime/executor.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace stamp::msg {
namespace {

using runtime::Context;

const Topology kTopo{.chips = 1, .processors_per_chip = 8,
                     .threads_per_processor = 4};

long long rank_value(int id) { return 100 + id * 7; }

class CollectiveSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSizeTest, BroadcastDeliversToEveryProcess) {
  const int n = GetParam();
  Communicator<long long> comm(n, CommMode::Asynchronous);
  std::vector<long long> got(static_cast<std::size_t>(n), -1);
  (void)runtime::run_distributed(
      kTopo, n, Distribution::IntraProc, [&](Context& ctx) {
        const long long v = ctx.id() == 2 % n ? 4242 : -7;
        got[static_cast<std::size_t>(ctx.id())] =
            broadcast_tree(ctx, comm, v, 2 % n);
      });
  for (long long v : got) EXPECT_EQ(v, 4242);
}

TEST_P(CollectiveSizeTest, ReduceSumsAtRoot) {
  const int n = GetParam();
  Communicator<long long> comm(n, CommMode::Asynchronous);
  long long expected = 0;
  for (int i = 0; i < n; ++i) expected += rank_value(i);
  std::vector<long long> result(static_cast<std::size_t>(n), -1);
  (void)runtime::run_distributed(
      kTopo, n, Distribution::IntraProc, [&](Context& ctx) {
        result[static_cast<std::size_t>(ctx.id())] = reduce_tree(
            ctx, comm, rank_value(ctx.id()),
            [](long long a, long long b) { return a + b; });
      });
  EXPECT_EQ(result[0], expected);
}

TEST_P(CollectiveSizeTest, ScanComputesPrefixPerRank) {
  const int n = GetParam();
  Communicator<long long> comm(n, CommMode::Asynchronous);
  std::vector<long long> result(static_cast<std::size_t>(n), -1);
  (void)runtime::run_distributed(
      kTopo, n, Distribution::IntraProc, [&](Context& ctx) {
        result[static_cast<std::size_t>(ctx.id())] = scan_inclusive(
            ctx, comm, rank_value(ctx.id()),
            [](long long a, long long b) { return a + b; });
      });
  long long prefix = 0;
  for (int i = 0; i < n; ++i) {
    prefix += rank_value(i);
    EXPECT_EQ(result[static_cast<std::size_t>(i)], prefix) << "rank " << i;
  }
}

TEST_P(CollectiveSizeTest, GatherCollectsByRank) {
  const int n = GetParam();
  Communicator<long long> comm(n, CommMode::Asynchronous);
  std::vector<long long> at_root;
  (void)runtime::run_distributed(
      kTopo, n, Distribution::IntraProc, [&](Context& ctx) {
        std::vector<long long> got =
            gather(ctx, comm, rank_value(ctx.id()), /*root=*/0);
        if (ctx.id() == 0) at_root = std::move(got);
        else EXPECT_TRUE(got.empty());
      });
  ASSERT_EQ(at_root.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    EXPECT_EQ(at_root[static_cast<std::size_t>(i)], rank_value(i));
}

TEST_P(CollectiveSizeTest, ScatterDistributesByRank) {
  const int n = GetParam();
  Communicator<long long> comm(n, CommMode::Asynchronous);
  std::vector<long long> got(static_cast<std::size_t>(n), -1);
  (void)runtime::run_distributed(
      kTopo, n, Distribution::IntraProc, [&](Context& ctx) {
        std::vector<long long> values;
        if (ctx.id() == 0)
          for (int i = 0; i < n; ++i) values.push_back(rank_value(i));
        got[static_cast<std::size_t>(ctx.id())] =
            scatter(ctx, comm, std::move(values), 0);
      });
  for (int i = 0; i < n; ++i)
    EXPECT_EQ(got[static_cast<std::size_t>(i)], rank_value(i));
}

INSTANTIATE_TEST_SUITE_P(Sweep, CollectiveSizeTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 16));

class DoublingTest : public ::testing::TestWithParam<int> {};

TEST_P(DoublingTest, AllReduceGivesEveryoneTheTotal) {
  const int n = GetParam();
  Communicator<long long> comm(n, CommMode::Asynchronous);
  long long expected = 0;
  for (int i = 0; i < n; ++i) expected += rank_value(i);
  std::vector<long long> result(static_cast<std::size_t>(n), -1);
  (void)runtime::run_distributed(
      kTopo, n, Distribution::IntraProc, [&](Context& ctx) {
        result[static_cast<std::size_t>(ctx.id())] = all_reduce_doubling(
            ctx, comm, rank_value(ctx.id()),
            [](long long a, long long b) { return a + b; });
      });
  for (long long v : result) EXPECT_EQ(v, expected);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, DoublingTest,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(Collectives, DoublingRejectsNonPowerOfTwo) {
  Communicator<int> comm(3, CommMode::Asynchronous);
  (void)runtime::run_distributed(
      kTopo, 3, Distribution::IntraProc, [&](Context& ctx) {
        EXPECT_THROW((void)all_reduce_doubling(ctx, comm, 1,
                                               [](int a, int b) { return a + b; }),
                     std::invalid_argument);
      });
}

TEST(Collectives, ScatterValidatesVectorSize) {
  Communicator<int> comm(1, CommMode::Asynchronous);
  (void)runtime::run_distributed(
      kTopo, 1, Distribution::IntraProc, [&](Context& ctx) {
        EXPECT_THROW((void)scatter(ctx, comm, std::vector<int>{1, 2}, 0),
                     std::invalid_argument);
      });
}

TEST(Collectives, TreeMessageCountsAreLogarithmic) {
  // With n = 16, a binomial broadcast has 15 messages total (one receive per
  // non-root process) and the root sends exactly log2(16) = 4 of them.
  constexpr int kN = 16;
  Communicator<int> comm(kN, CommMode::Asynchronous);
  const auto run = runtime::run_distributed(
      kTopo, kN, Distribution::IntraProc,
      [&](Context& ctx) { (void)broadcast_tree(ctx, comm, 5, 0); });
  const CostCounters totals = run.total_counters();
  EXPECT_DOUBLE_EQ(totals.m_s_a + totals.m_s_e, kN - 1.0);
  EXPECT_DOUBLE_EQ(totals.m_r_a + totals.m_r_e, kN - 1.0);
  const CostCounters root = run.recorders[0].totals();
  EXPECT_DOUBLE_EQ(root.m_s_a + root.m_s_e, 4.0);
  EXPECT_DOUBLE_EQ(root.m_r_a + root.m_r_e, 0.0);
}

TEST(Collectives, ReduceChargesOneSendPerNonRoot) {
  constexpr int kN = 8;
  Communicator<long long> comm(kN, CommMode::Asynchronous);
  const auto run = runtime::run_distributed(
      kTopo, kN, Distribution::IntraProc, [&](Context& ctx) {
        (void)reduce_tree(ctx, comm, 1LL,
                          [](long long a, long long b) { return a + b; });
      });
  for (int i = 1; i < kN; ++i) {
    const CostCounters t = run.recorders[static_cast<std::size_t>(i)].totals();
    EXPECT_DOUBLE_EQ(t.m_s_a + t.m_s_e, 1.0) << "rank " << i;
  }
}

TEST(Collectives, AllGatherDeliversEveryValueToEveryone) {
  constexpr int kN = 6;
  Communicator<long long> comm(kN, CommMode::Asynchronous);
  Communicator<std::vector<long long>> vec_comm(kN, CommMode::Asynchronous);
  std::vector<std::vector<long long>> got(kN);
  (void)runtime::run_distributed(
      kTopo, kN, Distribution::IntraProc, [&](Context& ctx) {
        got[static_cast<std::size_t>(ctx.id())] =
            all_gather(ctx, vec_comm, comm, rank_value(ctx.id()), 0);
      });
  for (int p = 0; p < kN; ++p) {
    ASSERT_EQ(got[static_cast<std::size_t>(p)].size(),
              static_cast<std::size_t>(kN));
    for (int i = 0; i < kN; ++i)
      EXPECT_EQ(got[static_cast<std::size_t>(p)][static_cast<std::size_t>(i)],
                rank_value(i));
  }
}

TEST(Collectives, MinAndMaxOperatorsWork) {
  constexpr int kN = 8;
  Communicator<long long> comm(kN, CommMode::Asynchronous);
  std::vector<long long> mins(kN, 0);
  (void)runtime::run_distributed(
      kTopo, kN, Distribution::IntraProc, [&](Context& ctx) {
        mins[static_cast<std::size_t>(ctx.id())] = all_reduce_doubling(
            ctx, comm, rank_value(ctx.id()),
            [](long long a, long long b) { return std::min(a, b); });
      });
  for (long long v : mins) EXPECT_EQ(v, rank_value(0));
}

}  // namespace
}  // namespace stamp::msg
