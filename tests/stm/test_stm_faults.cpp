#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/retry.hpp"
#include "obs/obs.hpp"
#include "runtime/executor.hpp"
#include "stm/stm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>

namespace stamp::stm {
namespace {

using runtime::Context;

const Topology kTopo{.chips = 1, .processors_per_chip = 4,
                     .threads_per_processor = 4};

class ArmedPlan {
 public:
  explicit ArmedPlan(const fault::FaultPlan& plan) {
    fault::Injector::global().arm(plan);
  }
  ~ArmedPlan() { fault::Injector::global().disarm(); }
};

TEST(StmFaults, ForcedAbortsCountAsConflictsAndStillCommit) {
  fault::FaultPlan plan;
  plan.with(fault::FaultSite::StmAbort, 1.0, 0, /*max_per_key=*/3);
  const ArmedPlan armed(plan);
  StmRuntime rt;
  TVar<int> v(0);
  const auto r = runtime::run_distributed(
      kTopo, 1, Distribution::IntraProc, [&](Context& ctx) {
        rt.atomically(ctx, [&](Transaction& tx) {
          tx.write(v, tx.read(v) + 1);
          return true;
        });
      });
  // 3 injected aborts, then the per-key cap lets the 4th attempt commit.
  EXPECT_EQ(v.peek(), 1);
  EXPECT_EQ(rt.stats().commits.load(), 1u);
  EXPECT_EQ(rt.stats().aborts.load(), 3u);
  EXPECT_EQ(rt.stats().max_retries.load(), 3u);
  // The rollbacks feed kappa exactly like organic conflicts.
  EXPECT_DOUBLE_EQ(r.recorders[0].totals().kappa, 3.0);
  EXPECT_EQ(fault::Injector::global().injected(fault::FaultSite::StmAbort),
            3u);
}

TEST(StmFaults, ForcedAbortsAppearInObsTrace) {
  obs::TraceRecorder::global().clear();
  obs::set_tracing_enabled(true);
  {
    fault::FaultPlan plan;
    plan.with(fault::FaultSite::StmAbort, 1.0, 0, /*max_per_key=*/2);
    const ArmedPlan armed(plan);
    StmRuntime rt;
    TVar<int> v(0);
    (void)runtime::run_distributed(kTopo, 1, Distribution::IntraProc,
                                   [&](Context& ctx) {
                                     rt.atomically(ctx, [&](Transaction& tx) {
                                       tx.write(v, 1);
                                       return true;
                                     });
                                   });
  }
  obs::set_tracing_enabled(false);
  int fault_instants = 0;
  for (const obs::TraceEvent& e : obs::TraceRecorder::global().snapshot())
    if (e.phase == 'i' && e.name == "fault.stm_abort") ++fault_instants;
  EXPECT_EQ(fault_instants, 2);
  obs::TraceRecorder::global().clear();
}

TEST(StmFaults, BoundedRetryPolicyThrowsRetryExhausted) {
  fault::FaultPlan plan;
  plan.with(fault::FaultSite::StmAbort, 1.0);  // abort forever
  const ArmedPlan armed(plan);
  StmRuntime rt;
  rt.set_retry_policy(fault::RetryPolicy::bounded(4));
  TVar<int> v(0);
  int exhausted_retries = 0;
  (void)runtime::run_distributed(
      kTopo, 1, Distribution::IntraProc, [&](Context& ctx) {
        try {
          rt.atomically(ctx, [&](Transaction& tx) {
            tx.write(v, 1);
            return true;
          });
          ADD_FAILURE() << "expected RetryExhausted";
        } catch (const fault::RetryExhausted& e) {
          exhausted_retries = e.retries();
        }
      });
  EXPECT_EQ(exhausted_retries, 5);  // 5 aborted attempts = 1 first + 4 retries
  EXPECT_EQ(v.peek(), 0);           // nothing ever committed
  EXPECT_EQ(rt.stats().commits.load(), 0u);
  EXPECT_EQ(rt.stats().aborts.load(), 5u);
}

TEST(StmFaults, SetRetryPolicyValidates) {
  StmRuntime rt;
  fault::RetryPolicy bad;
  bad.jitter = 2.0;
  EXPECT_THROW(rt.set_retry_policy(bad), std::invalid_argument);
  EXPECT_LT(rt.retry_policy().max_retries, 0);  // default is unbounded
}

// Satellite: a forced-abort storm stressing StmStats and the contention
// manager from many threads at once, with a watcher thread reading the
// atomics concurrently. Run under TSan this must be race-free; under any
// build the conservation invariants must hold.
TEST(StmFaults, StatsStayConsistentUnderForcedAbortStorm) {
  constexpr int kProcesses = 8;
  constexpr int kTxnsPerProcess = 300;
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.with(fault::FaultSite::StmAbort, 0.5);  // every 2nd attempt dies
  const ArmedPlan armed(plan);
  StmRuntime rt(std::make_unique<KarmaManager>());
  TVar<long> hot(0);

  std::atomic<bool> done{false};
  std::atomic<bool> monotone{true};
  std::thread watcher([&] {
    // max_retries must only ever grow while the storm runs.
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t now = rt.stats().max_retries.load();
      if (now < last) monotone.store(false);
      last = now;
      std::this_thread::yield();
    }
  });

  std::uint64_t cancels_expected = 0;
  (void)runtime::run_distributed(
      kTopo, kProcesses, Distribution::IntraProc, [&](Context& ctx) {
        for (int i = 0; i < kTxnsPerProcess; ++i) {
          if (i % 10 == 9) {
            // Sprinkle business-level cancels into the storm.
            const auto result =
                rt.try_atomically(ctx, [&](Transaction& tx) -> int {
                  (void)tx.read(hot);
                  tx.cancel();
                });
            EXPECT_FALSE(result.has_value());
          } else {
            rt.atomically(ctx, [&](Transaction& tx) {
              tx.write(hot, tx.read(hot) + 1);
              return true;
            });
          }
        }
      });
  done.store(true, std::memory_order_release);
  watcher.join();

  cancels_expected = kProcesses * (kTxnsPerProcess / 10);
  const std::uint64_t commits_expected =
      static_cast<std::uint64_t>(kProcesses) * kTxnsPerProcess -
      cancels_expected;
  // Conservation: every atomically call ends in exactly one commit or one
  // cancel, no matter how many forced aborts preceded it.
  EXPECT_EQ(rt.stats().commits.load(), commits_expected);
  EXPECT_EQ(rt.stats().cancels.load(), cancels_expected);
  EXPECT_EQ(hot.peek(), static_cast<long>(commits_expected));
  // The storm really stormed, and the worst rollback chain is visible.
  EXPECT_GT(rt.stats().aborts.load(), 0u);
  EXPECT_GE(rt.stats().max_retries.load(), 1u);
  EXPECT_TRUE(monotone.load());
}

}  // namespace
}  // namespace stamp::stm
