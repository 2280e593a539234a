#pragma once
/// \file banking.hpp
/// \brief The paper's banking example: `transfer(a, b, m)` with attributes
///        [intra_proc, trans_exec], built from two subtransactions
///        (withdraw, deposit) that must both commit.
///
/// `withdraw` fails (business-level) when funds are insufficient; the parent
/// then rolls the whole transfer back — the paper's "commit only when both
/// subtransactions commit".

#include "runtime/executor.hpp"
#include "stm/stm.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace stamp::algo {

/// A bank: fixed set of accounts holding integer cents as TVars.
class Bank {
 public:
  Bank(int accounts, long initial_balance);

  [[nodiscard]] int account_count() const noexcept {
    return static_cast<int>(accounts_.size());
  }

  [[nodiscard]] stm::TVar<long>& account(int i) { return *accounts_.at(i); }

  /// Uninstrumented sum of all balances (conservation invariant check).
  [[nodiscard]] long total_balance() const;

  /// The paper's transfer: withdraw from `from`, deposit to `to`, both as
  /// subtransactions of one atomic transfer. Returns true iff committed
  /// (false = insufficient funds; no money moves). `preemption_point` yields
  /// the scheduler between the two subtransactions, widening the conflict
  /// window (useful on hosts with few cores).
  [[nodiscard]] bool transfer(runtime::Context& ctx, stm::StmRuntime& rt,
                              int from, int to, long amount,
                              bool preemption_point = false);

  /// Atomic balance read.
  [[nodiscard]] long balance(runtime::Context& ctx, stm::StmRuntime& rt, int i);

 private:
  std::vector<std::unique_ptr<stm::TVar<long>>> accounts_;
};

/// Workload shape for the transfer benchmark.
struct TransferWorkload {
  int processes = 4;
  int transfers_per_process = 1000;
  int accounts = 64;
  long initial_balance = 1'000;
  long max_amount = 10;
  /// Fraction of transfers directed at a single hot account pair — the
  /// contention knob (0 = uniform, 1 = everything hits the hot pair).
  /// A hot transfer goes either way across the pair (a fair coin from the
  /// process's own stream), so the pair keeps its money and the knob
  /// measures contention, not drain. The direction coin is drawn only for
  /// hot transfers: a uniform run's random stream does not depend on it.
  double hot_fraction = 0.0;
  std::uint64_t seed = 1;
  Distribution distribution = Distribution::IntraProc;  // the paper's choice
  /// Yield inside each transfer between withdraw and deposit so conflicts
  /// are observable even when the host serializes threads.
  bool preemption_points = false;
};

/// Full outcome of a transfer workload run.
struct TransferRunResult {
  long long attempted = 0;
  long long committed = 0;
  long long insufficient = 0;
  std::uint64_t stm_commits = 0;
  std::uint64_t stm_aborts = 0;
  std::uint64_t stm_max_retries = 0;
  long balance_before = 0;
  long balance_after = 0;
  runtime::RunResult run;
  runtime::PlacementMap placement;
};

/// Run a closed-loop transfer workload on `topology` with the given
/// contention manager ("passive", "polite", "backoff", "karma").
[[nodiscard]] TransferRunResult run_transfer_workload(
    const Topology& topology, const TransferWorkload& workload,
    const std::string& contention_manager = "backoff");

}  // namespace stamp::algo
