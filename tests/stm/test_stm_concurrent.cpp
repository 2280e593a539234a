#include "stm/stm.hpp"

#include "runtime/executor.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace stamp::stm {
namespace {

using runtime::Context;

const Topology kTopo{.chips = 1, .processors_per_chip = 4,
                     .threads_per_processor = 4};

TEST(StmRuntime, AtomicallyCommitsAndCounts) {
  StmRuntime rt;
  TVar<int> v(0);
  (void)runtime::run_distributed(kTopo, 1, Distribution::IntraProc,
                                 [&](Context& ctx) {
                                   rt.atomically(ctx, [&](Transaction& tx) {
                                     tx.write(v, tx.read(v) + 1);
                                     return true;
                                   });
                                 });
  EXPECT_EQ(v.peek(), 1);
  EXPECT_EQ(rt.stats().commits.load(), 1u);
  EXPECT_EQ(rt.stats().aborts.load(), 0u);
}

TEST(StmRuntime, VoidBodySupported) {
  StmRuntime rt;
  TVar<int> v(0);
  (void)runtime::run_distributed(kTopo, 1, Distribution::IntraProc,
                                 [&](Context& ctx) {
                                   rt.atomically(ctx, [&](Transaction& tx) {
                                     tx.write(v, 7);
                                   });
                                 });
  EXPECT_EQ(v.peek(), 7);
}

TEST(StmRuntime, ReadsAndWritesChargedToRecorder) {
  StmRuntime rt;
  TVar<int> v(0);
  const auto r = runtime::run_distributed(
      kTopo, 2, Distribution::IntraProc, [&](Context& ctx) {
        rt.atomically(ctx, [&](Transaction& tx) {
          tx.write(v, tx.read(v) + 1);
          return 0;
        });
      });
  for (const auto& rec : r.recorders) {
    // Conflict-free run: exactly 1 read, 1 write. Under a conflict, reads of
    // failed attempts add on, so >= is the invariant.
    EXPECT_GE(rec.totals().d_r_a + rec.totals().d_r_e, 1);
    EXPECT_DOUBLE_EQ(rec.totals().d_w_a + rec.totals().d_w_e, 1);
  }
}

TEST(StmRuntime, TryAtomicallyReturnsEmptyOnCancel) {
  StmRuntime rt;
  TVar<int> v(5);
  (void)runtime::run_distributed(
      kTopo, 1, Distribution::IntraProc, [&](Context& ctx) {
        const std::optional<int> result =
            rt.try_atomically(ctx, [&](Transaction& tx) -> int {
              tx.write(v, 99);
              tx.cancel();  // business-level abort: write must not land
            });
        EXPECT_FALSE(result.has_value());
      });
  EXPECT_EQ(v.peek(), 5);
  EXPECT_EQ(rt.stats().cancels.load(), 1u);
  EXPECT_EQ(rt.stats().commits.load(), 0u);
}

TEST(StmRuntime, CounterIncrementsLinearize) {
  constexpr int kN = 8;
  constexpr int kIncrements = 2000;
  StmRuntime rt(std::make_unique<BackoffManager>());
  TVar<long> counter(0);
  (void)runtime::run_distributed(
      kTopo, kN, Distribution::IntraProc, [&](Context& ctx) {
        for (int i = 0; i < kIncrements; ++i) {
          rt.atomically(ctx, [&](Transaction& tx) {
            tx.write(counter, tx.read(counter) + 1);
            return true;
          });
        }
      });
  EXPECT_EQ(counter.peek(), static_cast<long>(kN) * kIncrements);
  EXPECT_EQ(rt.stats().commits.load(),
            static_cast<std::uint64_t>(kN) * kIncrements);
}

TEST(StmRuntime, DisjointWritesDontConflictMuch) {
  constexpr int kN = 8;
  StmRuntime rt;
  std::vector<std::unique_ptr<TVar<long>>> vars;
  for (int i = 0; i < kN; ++i) vars.push_back(std::make_unique<TVar<long>>(0));
  (void)runtime::run_distributed(
      kTopo, kN, Distribution::IntraProc, [&](Context& ctx) {
        for (int i = 0; i < 1000; ++i) {
          rt.atomically(ctx, [&](Transaction& tx) {
            TVar<long>& own = *vars[static_cast<std::size_t>(ctx.id())];
            tx.write(own, tx.read(own) + 1);
            return true;
          });
        }
      });
  for (const auto& v : vars) EXPECT_EQ(v->peek(), 1000);
  // Disjoint write sets: aborts can only come from clock-shortcut validation
  // races on freshly read vars, which cannot happen here (each tx reads only
  // what it writes). Expect zero aborts.
  EXPECT_EQ(rt.stats().aborts.load(), 0u);
}

TEST(StmRuntime, MoneyConservedUnderCrossTransfers) {
  constexpr int kN = 8;
  constexpr int kAccounts = 4;
  constexpr long kInitial = 1000;
  StmRuntime rt(std::make_unique<BackoffManager>());
  std::vector<std::unique_ptr<TVar<long>>> accounts;
  for (int i = 0; i < kAccounts; ++i)
    accounts.push_back(std::make_unique<TVar<long>>(kInitial));

  (void)runtime::run_distributed(
      kTopo, kN, Distribution::IntraProc, [&](Context& ctx) {
        for (int i = 0; i < 1500; ++i) {
          const int from = (ctx.id() + i) % kAccounts;
          const int to = (from + 1 + i % (kAccounts - 1)) % kAccounts;
          if (from == to) continue;
          rt.atomically(ctx, [&](Transaction& tx) {
            const long a = tx.read(*accounts[static_cast<std::size_t>(from)]);
            const long b = tx.read(*accounts[static_cast<std::size_t>(to)]);
            tx.write(*accounts[static_cast<std::size_t>(from)], a - 1);
            tx.write(*accounts[static_cast<std::size_t>(to)], b + 1);
            return true;
          });
        }
      });
  long total = 0;
  for (const auto& a : accounts) total += a->peek();
  EXPECT_EQ(total, kAccounts * kInitial);
}

TEST(StmRuntime, SnapshotsAreConsistentUnderConcurrentUpdates) {
  // Invariant: x + y == 0 at every commit. Readers must never observe a
  // violated invariant (the torn-snapshot test).
  StmRuntime rt(std::make_unique<BackoffManager>());
  TVar<long> x(0);
  TVar<long> y(0);
  std::atomic<bool> violation{false};
  (void)runtime::run_distributed(
      kTopo, 8, Distribution::IntraProc, [&](Context& ctx) {
        if (ctx.id() < 4) {
          for (int i = 0; i < 2000; ++i) {
            rt.atomically(ctx, [&](Transaction& tx) {
              const long v = tx.read(x);
              tx.write(x, v + 1);
              tx.write(y, tx.read(y) - 1);
              return true;
            });
          }
        } else {
          for (int i = 0; i < 2000; ++i) {
            const long sum = rt.atomically(ctx, [&](Transaction& tx) {
              return tx.read(x) + tx.read(y);
            });
            if (sum != 0) violation.store(true);
          }
        }
      });
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(x.peek(), 4 * 2000);
  EXPECT_EQ(y.peek(), -4 * 2000);
}

TEST(StmRuntime, KappaRecordsRetries) {
  // Force conflicts: every process hammers one variable. max_retries and the
  // recorders' kappa must be consistent (kappa <= max_retries).
  StmRuntime rt;  // passive manager maximizes conflicts
  TVar<long> hot(0);
  const auto r = runtime::run_distributed(
      kTopo, 8, Distribution::IntraProc, [&](Context& ctx) {
        for (int i = 0; i < 500; ++i) {
          rt.atomically(ctx, [&](Transaction& tx) {
            tx.write(hot, tx.read(hot) + 1);
            return true;
          });
        }
      });
  EXPECT_EQ(hot.peek(), 8 * 500);
  for (const auto& rec : r.recorders)
    EXPECT_LE(rec.totals().kappa,
              static_cast<double>(rt.stats().max_retries.load()));
}

TEST(StmRuntime, WideValuesNeverTear) {
  // 16-byte TVar values under concurrent read/write transactions: every
  // snapshot must satisfy the pair invariant b == -a (no torn halves).
  struct Pair {
    double a;
    double b;
  };
  StmRuntime rt(std::make_unique<BackoffManager>());
  TVar<Pair> v(Pair{0, 0});
  std::atomic<bool> torn{false};
  (void)runtime::run_distributed(
      kTopo, 6, Distribution::IntraProc, [&](Context& ctx) {
        if (ctx.id() < 3) {
          for (int i = 1; i <= 1500; ++i) {
            const double x = ctx.id() * 10'000 + i;
            rt.atomically(ctx, [&](Transaction& tx) {
              tx.write(v, Pair{x, -x});
              return true;
            });
          }
        } else {
          for (int i = 0; i < 1500; ++i) {
            const Pair p = rt.atomically(
                ctx, [&](Transaction& tx) { return tx.read(v); });
            if (p.b != -p.a) torn.store(true);
          }
        }
      });
  EXPECT_FALSE(torn.load());
}

// Contention-manager sweep: all policies must preserve correctness.
class ManagerSweepTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ManagerSweepTest, CounterCorrectUnderEveryManager) {
  StmRuntime rt(make_manager(GetParam()));
  TVar<long> counter(0);
  (void)runtime::run_distributed(
      kTopo, 6, Distribution::IntraProc, [&](Context& ctx) {
        for (int i = 0; i < 800; ++i) {
          rt.atomically(ctx, [&](Transaction& tx) {
            tx.write(counter, tx.read(counter) + 1);
            return true;
          });
        }
      });
  EXPECT_EQ(counter.peek(), 6 * 800);
}

INSTANTIATE_TEST_SUITE_P(AllManagers, ManagerSweepTest,
                         ::testing::Values("passive", "polite", "backoff",
                                           "karma"));

}  // namespace
}  // namespace stamp::stm
