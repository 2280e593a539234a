#include "stm/tarray.hpp"

#include "runtime/executor.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace stamp::stm {
namespace {

using runtime::Context;

const Topology kTopo{.chips = 1, .processors_per_chip = 4,
                     .threads_per_processor = 4};

TEST(TArray, ConstructionValidated) {
  EXPECT_THROW(TArray<long>(0), std::invalid_argument);
  const TArray<long> a(4, 7);
  EXPECT_EQ(a.size(), 4u);
  EXPECT_EQ(a.peek(2), 7);
}

TEST(TArray, OutOfRangeThrows) {
  TArray<long> a(2);
  EXPECT_THROW((void)a.var(2), std::out_of_range);
  EXPECT_THROW((void)a.peek(5), std::out_of_range);
}

TEST(TArray, UpdateAndSnapshot) {
  TArray<long> a(4, 10);
  StmRuntime rt;
  (void)runtime::run_distributed(
      kTopo, 1, Distribution::IntraProc, [&](Context& ctx) {
        a.update(ctx, rt, 1, [](long& v) { v += 5; });
        const std::vector<long> snap = a.snapshot(ctx, rt);
        EXPECT_EQ(snap, (std::vector<long>{10, 15, 10, 10}));
      });
}

TEST(TArray, TransferPreservesSum) {
  TArray<long> a(4, 100);
  StmRuntime rt;
  (void)runtime::run_distributed(
      kTopo, 1, Distribution::IntraProc, [&](Context& ctx) {
        a.transfer(ctx, rt, 0, 3, 25);
        a.transfer(ctx, rt, 1, 1, 99);  // self-transfer is a no-op
      });
  EXPECT_EQ(a.peek(0), 75);
  EXPECT_EQ(a.peek(3), 125);
  EXPECT_EQ(a.peek(1), 100);
}

TEST(TArray, FoldIsAtomic) {
  TArray<long> a(8, 1);
  StmRuntime rt;
  (void)runtime::run_distributed(
      kTopo, 1, Distribution::IntraProc, [&](Context& ctx) {
        const long sum = a.fold(ctx, rt, 0L,
                                [](long acc, long v) { return acc + v; });
        EXPECT_EQ(sum, 8);
      });
}

TEST(TArray, ConcurrentTransfersConserveTotal) {
  constexpr int kN = 8;
  constexpr long kInitial = 1000;
  TArray<long> accounts(16, kInitial);
  StmRuntime rt(std::make_unique<BackoffManager>());
  (void)runtime::run_distributed(
      kTopo, kN, Distribution::IntraProc, [&](Context& ctx) {
        for (int i = 0; i < 800; ++i) {
          const std::size_t from = (ctx.id() * 3 + i) % 16;
          const std::size_t to = (from + 1 + i % 15) % 16;
          accounts.transfer(ctx, rt, from, to, 1);
        }
      });
  long total = 0;
  for (std::size_t i = 0; i < accounts.size(); ++i) total += accounts.peek(i);
  EXPECT_EQ(total, 16 * kInitial);
}

TEST(TArray, SnapshotsNeverTearUnderConcurrentTransfers) {
  TArray<long> a(4, 250);
  StmRuntime rt(std::make_unique<BackoffManager>());
  std::atomic<bool> torn{false};
  (void)runtime::run_distributed(
      kTopo, 8, Distribution::IntraProc, [&](Context& ctx) {
        if (ctx.id() < 4) {
          for (int i = 0; i < 1000; ++i)
            a.transfer(ctx, rt, ctx.id() % 4, (ctx.id() + 1) % 4, 1);
        } else {
          for (int i = 0; i < 1000; ++i) {
            const std::vector<long> snap = a.snapshot(ctx, rt);
            if (std::accumulate(snap.begin(), snap.end(), 0L) != 1000)
              torn.store(true);
          }
        }
      });
  EXPECT_FALSE(torn.load());
}

TEST(TArray, ComposesIntoLargerTransactions) {
  // Move from a[0] to a[1] and bump a counter var in ONE transaction.
  TArray<long> a(2, 50);
  TVar<long> ops(0);
  StmRuntime rt;
  (void)runtime::run_distributed(
      kTopo, 1, Distribution::IntraProc, [&](Context& ctx) {
        rt.atomically(ctx, [&](Transaction& tx) {
          a.set(tx, 0, a.get(tx, 0) - 10);
          a.set(tx, 1, a.get(tx, 1) + 10);
          tx.write(ops, tx.read(ops) + 1);
          return true;
        });
      });
  EXPECT_EQ(a.peek(0), 40);
  EXPECT_EQ(a.peek(1), 60);
  EXPECT_EQ(ops.peek(), 1);
}

}  // namespace
}  // namespace stamp::stm
