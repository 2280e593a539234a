#include "algo/banking.hpp"

#include <gtest/gtest.h>

#include <string>

namespace stamp::algo {
namespace {

const Topology kTopo{.chips = 1, .processors_per_chip = 8,
                     .threads_per_processor = 4};

TEST(Bank, ConstructionValidated) {
  EXPECT_THROW(Bank(1, 100), std::invalid_argument);
  const Bank bank(4, 100);
  EXPECT_EQ(bank.account_count(), 4);
  EXPECT_EQ(bank.total_balance(), 400);
}

TEST(Bank, TransferMovesMoney) {
  Bank bank(4, 100);
  stm::StmRuntime rt;
  (void)runtime::run_distributed(
      kTopo, 1, Distribution::IntraProc, [&](runtime::Context& ctx) {
        EXPECT_TRUE(bank.transfer(ctx, rt, 0, 1, 30));
      });
  EXPECT_EQ(bank.account(0).peek(), 70);
  EXPECT_EQ(bank.account(1).peek(), 130);
  EXPECT_EQ(bank.total_balance(), 400);
}

TEST(Bank, InsufficientFundsRollsBackBothSubtransactions) {
  Bank bank(4, 100);
  stm::StmRuntime rt;
  (void)runtime::run_distributed(
      kTopo, 1, Distribution::IntraProc, [&](runtime::Context& ctx) {
        // The withdraw sub-aborts; the deposit must not survive either.
        EXPECT_FALSE(bank.transfer(ctx, rt, 0, 1, 1000));
      });
  EXPECT_EQ(bank.account(0).peek(), 100);
  EXPECT_EQ(bank.account(1).peek(), 100);
}

TEST(Bank, SelfTransferRejected) {
  Bank bank(4, 100);
  stm::StmRuntime rt;
  (void)runtime::run_distributed(kTopo, 1, Distribution::IntraProc,
                                 [&](runtime::Context& ctx) {
                                   EXPECT_THROW(
                                       (void)bank.transfer(ctx, rt, 2, 2, 1),
                                       std::invalid_argument);
                                 });
}

TEST(Bank, ExactDrainSucceedsOverdraftFails) {
  Bank bank(2, 50);
  stm::StmRuntime rt;
  (void)runtime::run_distributed(
      kTopo, 1, Distribution::IntraProc, [&](runtime::Context& ctx) {
        EXPECT_TRUE(bank.transfer(ctx, rt, 0, 1, 50));   // to exactly zero
        EXPECT_FALSE(bank.transfer(ctx, rt, 0, 1, 1));   // now empty
      });
  EXPECT_EQ(bank.account(0).peek(), 0);
  EXPECT_EQ(bank.account(1).peek(), 100);
}

TEST(Bank, BalanceReadsAtomically) {
  Bank bank(2, 75);
  stm::StmRuntime rt;
  (void)runtime::run_distributed(kTopo, 1, Distribution::IntraProc,
                                 [&](runtime::Context& ctx) {
                                   EXPECT_EQ(bank.balance(ctx, rt, 0), 75);
                                 });
}

TEST(TransferWorkload, ConservesMoneyUnderContention) {
  TransferWorkload w;
  w.processes = 8;
  w.transfers_per_process = 400;
  w.accounts = 8;
  w.hot_fraction = 0.5;  // heavy contention on the hot pair
  const TransferRunResult r = run_transfer_workload(kTopo, w, "backoff");
  EXPECT_EQ(r.balance_before, r.balance_after);
  EXPECT_EQ(r.attempted,
            static_cast<long long>(w.processes) * w.transfers_per_process);
  EXPECT_EQ(r.attempted, r.committed + r.insufficient);
  EXPECT_GT(r.committed, 0);
}

TEST(TransferWorkload, HotSpotRaisesAborts) {
  TransferWorkload uniform;
  uniform.processes = 8;
  uniform.transfers_per_process = 500;
  uniform.accounts = 256;
  uniform.hot_fraction = 0.0;
  uniform.preemption_points = true;
  const TransferRunResult cold = run_transfer_workload(kTopo, uniform, "passive");

  TransferWorkload hot = uniform;
  hot.hot_fraction = 1.0;  // everything on one pair
  const TransferRunResult contended = run_transfer_workload(kTopo, hot, "passive");

  EXPECT_GT(contended.stm_aborts, cold.stm_aborts);
}

// A hot pair must keep its money: with one process there is no scheduling,
// and a pair drained one way could fund at most `initial_balance` commits
// (every amount is at least 1), after which each hot transfer is a
// read-only "insufficient" that cannot conflict.
TEST(TransferWorkload, HotPairKeepsCommitting) {
  TransferWorkload w;
  w.processes = 1;
  w.transfers_per_process = 4000;
  w.hot_fraction = 1.0;
  const TransferRunResult r = run_transfer_workload(kTopo, w, "passive");
  EXPECT_EQ(r.balance_before, r.balance_after);
  EXPECT_GT(r.committed, w.initial_balance);
}

TEST(TransferWorkload, KappaReflectsRetries) {
  TransferWorkload w;
  w.processes = 8;
  w.transfers_per_process = 300;
  w.hot_fraction = 1.0;
  w.preemption_points = true;
  const TransferRunResult r = run_transfer_workload(kTopo, w, "passive");
  double max_kappa = 0;
  for (const auto& rec : r.run.recorders)
    max_kappa = std::max(max_kappa, rec.totals().kappa);
  EXPECT_LE(max_kappa, static_cast<double>(r.stm_max_retries));
  if (r.stm_aborts > 0) {
    EXPECT_GT(max_kappa, 0);
  }
}

TEST(TransferWorkload, ValidatesArguments) {
  TransferWorkload w;
  w.processes = 0;
  EXPECT_THROW((void)run_transfer_workload(kTopo, w), std::invalid_argument);
  w = TransferWorkload{};
  w.hot_fraction = 1.5;
  EXPECT_THROW((void)run_transfer_workload(kTopo, w), std::invalid_argument);
  w = TransferWorkload{};
  EXPECT_THROW((void)run_transfer_workload(kTopo, w, "no-such-manager"),
               std::invalid_argument);
}

// Conservation must hold under every contention manager and distribution.
// The manager is a std::string, not a const char*, so each case's name
// prints its text rather than an address that changes from run to run.
class TransferSweep
    : public ::testing::TestWithParam<std::tuple<std::string, Distribution>> {};

TEST_P(TransferSweep, MoneyConserved) {
  const auto [manager, dist] = GetParam();
  TransferWorkload w;
  w.processes = 6;
  w.transfers_per_process = 250;
  w.accounts = 16;
  w.hot_fraction = 0.3;
  w.distribution = dist;
  const TransferRunResult r = run_transfer_workload(kTopo, w, manager);
  EXPECT_EQ(r.balance_before, r.balance_after);
  EXPECT_EQ(r.attempted, r.committed + r.insufficient);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TransferSweep,
    ::testing::Combine(::testing::Values(std::string("passive"),
                                         std::string("polite"),
                                         std::string("backoff"),
                                         std::string("karma")),
                       ::testing::Values(Distribution::IntraProc,
                                         Distribution::InterProc)));

}  // namespace
}  // namespace stamp::algo
