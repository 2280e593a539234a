#include "core/cancel.hpp"

#include "fault/retry.hpp"
#include "sweep/journal.hpp"
#include "sweep/pool.hpp"
#include "sweep/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <string>
#include <thread>

namespace stamp::sweep {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::path(testing::TempDir()) / name).string();
}

std::size_t evaluated_count(const SweepResult& result) {
  // Evaluated records always select >= 1 process; skipped (cancelled) points
  // keep the default-initialized record.
  std::size_t n = 0;
  for (const SweepRecord& rec : result.records)
    if (rec.processes > 0) ++n;
  return n;
}

TEST(PoolCancel, PreCancelledTokenRunsNothingAndPoolStaysUsable) {
  Pool pool(4);
  core::CancelToken token;
  token.request_cancel();
  std::atomic<std::size_t> ran{0};
  pool.parallel_for(
      256, [&ran](std::size_t) { ran.fetch_add(1, std::memory_order_relaxed); },
      &token);
  EXPECT_EQ(ran.load(), 0u);

  // The loop drained with exact accounting, so the pool must be reusable.
  token.reset();
  pool.parallel_for(
      256, [&ran](std::size_t) { ran.fetch_add(1, std::memory_order_relaxed); },
      &token);
  EXPECT_EQ(ran.load(), 256u);
}

TEST(PoolCancel, CancelMidLoopDrainsWithoutDeadlockOrFullRun) {
  Pool pool(4);
  core::CancelToken token;
  constexpr std::size_t kN = 100000;
  std::atomic<std::size_t> ran{0};
  pool.parallel_for(
      kN,
      [&](std::size_t) {
        if (ran.fetch_add(1, std::memory_order_relaxed) + 1 == 64)
          token.request_cancel();
      },
      &token);
  // Indices already past their cancellation check finish; everything else is
  // skipped. Returning at all proves the skipped tail was still accounted.
  EXPECT_GE(ran.load(), 64u);
  EXPECT_LT(ran.load(), kN);

  std::atomic<std::size_t> again{0};
  pool.parallel_for(kN, [&again](std::size_t) {
    again.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(again.load(), kN);
}

TEST(PoolCancel, UntrippedTokenRunsEveryIndex) {
  Pool pool(2);
  core::CancelToken token;
  std::atomic<std::size_t> ran{0};
  pool.parallel_for(
      512, [&ran](std::size_t) { ran.fetch_add(1, std::memory_order_relaxed); },
      &token);
  EXPECT_EQ(ran.load(), 512u);
  EXPECT_FALSE(token.cancelled());
}

TEST(SweepCancel, PreCancelledSweepSkipsEverythingAndJournalsNothing) {
  const SweepConfig cfg = SweepConfig::tiny();
  const std::string path = temp_path("cancel_precancelled.journal");
  fs::remove(path);
  core::CancelToken token;
  token.request_cancel();
  SweepResult result;
  {
    Journal journal(path, cfg);
    SweepOptions opts;
    opts.cancel = &token;
    opts.journal = &journal;
    result = run_sweep(cfg, nullptr, opts);
  }
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.records.size(), cfg.grid.size());
  EXPECT_EQ(evaluated_count(result), 0u);
  EXPECT_EQ(result.stats.skipped_points, cfg.grid.size());
  EXPECT_EQ(result.stats.journaled_points, 0u);

  const ResumeState resume = ResumeState::load(path, cfg);
  EXPECT_EQ(resume.completed_points(), 0u);
  fs::remove(path);
}

// The signal-path integration property: wherever an asynchronous trip lands,
// the drained result and the journal agree on exactly which points completed,
// and resuming finishes the sweep byte-identical to an uninterrupted run.
TEST(SweepCancel, AsyncCancelJournalsExactlyTheCompletedPoints) {
  const SweepConfig cfg = SweepConfig::canonical();
  Pool pool(4);
  const std::string want = to_json(run_sweep(cfg, &pool));
  const std::string path = temp_path("cancel_async.journal");
  fs::remove(path);

  core::CancelToken token;
  SweepResult result;
  {
    Journal journal(path, cfg);
    SweepOptions opts;
    opts.cancel = &token;
    opts.journal = &journal;
    std::thread tripper([&token] {
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      token.request_cancel();
    });
    result = run_sweep(cfg, &pool, opts);
    tripper.join();
  }

  const std::size_t completed = evaluated_count(result);
  EXPECT_EQ(result.stats.skipped_points, cfg.grid.size() - completed);
  EXPECT_EQ(result.cancelled, completed < cfg.grid.size());
  EXPECT_EQ(result.stats.journaled_points, completed);

  const ResumeState resume = ResumeState::load(path, cfg);
  EXPECT_EQ(resume.completed_points(), completed);
  for (std::size_t i = 0; i < cfg.grid.size(); ++i)
    EXPECT_EQ(resume.completed(i), result.records[i].processes > 0)
        << "point " << i;

  SweepOptions opts;
  opts.resume = &resume;
  EXPECT_EQ(to_json(run_sweep(cfg, &pool, opts)), want);
  fs::remove(path);
}

TEST(SweepCancel, TokenTrippedAfterCompletionLeavesResultClean) {
  const SweepConfig cfg = SweepConfig::tiny();
  core::CancelToken token;
  SweepOptions opts;
  opts.cancel = &token;
  const SweepResult result = run_sweep(cfg, nullptr, opts);
  token.request_cancel();  // too late: the run already drained
  EXPECT_FALSE(result.cancelled);
  EXPECT_EQ(result.stats.skipped_points, 0u);
  EXPECT_EQ(evaluated_count(result), cfg.grid.size());
}

TEST(SweepCancel, PointDeadlineFailsTheSweepSeriallyAndPooled) {
  const SweepConfig cfg = SweepConfig::tiny();
  SweepOptions opts;
  opts.point_deadline = std::chrono::nanoseconds(1);
  EXPECT_THROW(static_cast<void>(run_sweep(cfg, nullptr, opts)),
               fault::DeadlineExceeded);
  Pool pool(4);
  EXPECT_THROW(static_cast<void>(run_sweep(cfg, &pool, opts)),
               fault::DeadlineExceeded);
}

TEST(SweepCancel, GenerousPointDeadlineChangesNothing) {
  const SweepConfig cfg = SweepConfig::tiny();
  const std::string want = to_json(run_sweep(cfg, nullptr));
  SweepOptions opts;
  opts.point_deadline = std::chrono::hours(1);
  EXPECT_EQ(to_json(run_sweep(cfg, nullptr, opts)), want);
}

}  // namespace
}  // namespace stamp::sweep
