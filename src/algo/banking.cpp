#include "algo/banking.hpp"

#include <random>
#include <thread>
#include <stdexcept>

namespace stamp::algo {

Bank::Bank(int accounts, long initial_balance) {
  if (accounts < 2) throw std::invalid_argument("Bank: need >= 2 accounts");
  accounts_.reserve(static_cast<std::size_t>(accounts));
  for (int i = 0; i < accounts; ++i)
    accounts_.push_back(std::make_unique<stm::TVar<long>>(initial_balance));
}

long Bank::total_balance() const {
  long total = 0;
  for (const auto& a : accounts_) total += a->peek();
  return total;
}

bool Bank::transfer(runtime::Context& ctx, stm::StmRuntime& rt, int from,
                    int to, long amount, bool preemption_point) {
  if (from == to) throw std::invalid_argument("transfer: from == to");
  stm::TVar<long>& a = account(from);
  stm::TVar<long>& b = account(to);
  // transfer(a, b, m) [intra_proc, trans_exec]
  return rt.atomically(ctx, [&](stm::Transaction& tx) {
    // cmit1 = a.withdraw(m) [trans_exec, synch_comm]
    const bool cmit1 = stm::subtransaction(tx, [&](stm::Transaction& sub) {
      const long balance = sub.read(a);
      if (balance < amount) return false;  // insufficient: sub-abort
      sub.write(a, balance - amount);
      return true;
    });
    if (preemption_point) std::this_thread::yield();
    // cmit2 = b.deposit(m) [trans_exec, synch_comm]
    const bool cmit2 = stm::subtransaction(tx, [&](stm::Transaction& sub) {
      sub.write(b, sub.read(b) + amount);
      return true;
    });
    // if (cmit1 and cmit2) then return(true) else return(false)
    if (cmit1 && cmit2) return true;
    // Parent aborts: discard everything either subtransaction buffered.
    tx.rollback_to(0);
    return false;
  });
}

long Bank::balance(runtime::Context& ctx, stm::StmRuntime& rt, int i) {
  stm::TVar<long>& a = account(i);
  return rt.atomically(ctx, [&](stm::Transaction& tx) { return tx.read(a); });
}

TransferRunResult run_transfer_workload(const Topology& topology,
                                        const TransferWorkload& w,
                                        const std::string& contention_manager) {
  if (w.processes < 1) throw std::invalid_argument("need >= 1 process");
  if (w.hot_fraction < 0 || w.hot_fraction > 1)
    throw std::invalid_argument("hot_fraction must be in [0, 1]");

  Bank bank(w.accounts, w.initial_balance);
  stm::StmRuntime rt(stm::make_manager(contention_manager));

  const runtime::PlacementMap placement =
      runtime::PlacementMap::for_distribution(topology, w.processes,
                                              w.distribution);

  std::vector<long long> committed(static_cast<std::size_t>(w.processes), 0);
  std::vector<long long> insufficient(static_cast<std::size_t>(w.processes), 0);

  const long balance_before = bank.total_balance();

  runtime::RunResult run =
      runtime::run_processes(placement, [&](runtime::Context& ctx) {
        std::mt19937_64 rng(w.seed + static_cast<std::uint64_t>(ctx.id()) * 7919);
        std::uniform_real_distribution<double> coin(0.0, 1.0);
        std::uniform_int_distribution<int> acct(0, w.accounts - 1);
        std::uniform_int_distribution<long> amt(1, w.max_amount);
        for (int k = 0; k < w.transfers_per_process; ++k) {
          const runtime::UnitScope unit(ctx.recorder());
          int from;
          int to;
          if (coin(rng) < w.hot_fraction) {
            // Either way across the pair, so it keeps its money and every
            // hot transfer writes both accounts.
            from = coin(rng) < 0.5 ? 0 : 1;
            to = 1 - from;
          } else {
            from = acct(rng);
            do {
              to = acct(rng);
            } while (to == from);
          }
          ctx.int_ops(4);  // pick accounts and amount
          bool ok = false;
          {
            const runtime::RoundScope round(ctx.recorder());
            ok = bank.transfer(ctx, rt, from, to, amt(rng),
                               w.preemption_points);
          }
          auto& counter = ok ? committed : insufficient;
          ++counter[static_cast<std::size_t>(ctx.id())];
          ctx.int_ops(1);  // tally
        }
      });

  TransferRunResult result{.attempted = 0,
                           .committed = 0,
                           .insufficient = 0,
                           .stm_commits = rt.stats().commits.load(),
                           .stm_aborts = rt.stats().aborts.load(),
                           .stm_max_retries = rt.stats().max_retries.load(),
                           .balance_before = balance_before,
                           .balance_after = bank.total_balance(),
                           .run = std::move(run),
                           .placement = placement};
  for (int i = 0; i < w.processes; ++i) {
    result.committed += committed[static_cast<std::size_t>(i)];
    result.insufficient += insufficient[static_cast<std::size_t>(i)];
  }
  result.attempted = result.committed + result.insufficient;
  return result;
}

}  // namespace stamp::algo
