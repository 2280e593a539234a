// The batch evaluator's contract is bit-identity with the scalar reference
// path (batch.hpp): every record of every grid, at every pool width, through
// journal and resume. These tests compare real sweeps — the canonical
// 576-point baseline grid included — record by record and byte by byte
// against `evaluate_point_reference`, the oracle below, which keeps the
// original scalar pipeline alive precisely so this comparison stays honest.

#include "sweep/batch.hpp"

#include "core/placement.hpp"
#include "models/models.hpp"
#include "sweep/journal.hpp"
#include "sweep/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace stamp::sweep {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::path(testing::TempDir()) / name).string();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << bytes;
}

// ---------------------------------------------------------------------------
// The oracle: the scalar pre-batch pipeline, kept verbatim.
// ---------------------------------------------------------------------------

struct ReferenceScratch {
  std::vector<ProcessProfile> profiles;
  std::vector<int> candidates;
};

ReferenceScratch& reference_scratch() {
  thread_local ReferenceScratch scratch;
  return scratch;
}

PointCost reference_placement_cost(const PointSetup& s, int n,
                                   Objective objective,
                                   std::vector<ProcessProfile>& profiles) {
  profiles.assign(static_cast<std::size_t>(n), strong_scaled(s.profile, n));
  PlacementResult r;
  switch (s.strategy) {
    case PlacementStrategy::FillFirst:
      r = place_fill_first(profiles, s.machine, objective);
      break;
    case PlacementStrategy::RoundRobin:
      r = place_round_robin(profiles, s.machine, objective);
      break;
    case PlacementStrategy::Greedy:
      r = place_greedy(profiles, s.machine, objective);
      break;
  }
  return PointCost{r.eval.total, r.eval.feasible, n};
}

/// The original scalar selection for one point: strong-scale the profile
/// over candidate process counts, place each candidate through the core
/// `place_*` API, keep the best under the objective (feasible preferred).
PointCost compute_point_cost_reference(const PointSetup& s,
                                       Objective objective) {
  const int limit = std::max(1, std::min(s.processes,
                                         s.machine.topology.total_threads()));
  ReferenceScratch& scratch = reference_scratch();
  scratch.candidates.clear();
  for (int n = 1; n < limit; n *= 2) scratch.candidates.push_back(n);
  scratch.candidates.push_back(limit);

  PointCost best{};
  bool have = false;
  for (const int n : scratch.candidates) {
    const PointCost c =
        reference_placement_cost(s, n, objective, scratch.profiles);
    const bool better_feasibility = c.feasible && !best.feasible;
    const bool same_feasibility = c.feasible == best.feasible;
    if (!have || better_feasibility ||
        (same_feasibility && metric_value(c.cost, objective) <
                                 metric_value(best.cost, objective))) {
      best = c;
      have = true;
    }
  }
  return best;
}

/// The original scalar evaluation of one grid point, cache-free: decode,
/// setup, select, price the classical baselines. The batch evaluator must
/// reproduce this record bit-for-bit for every index of every grid.
SweepRecord evaluate_point_reference(const SweepConfig& cfg,
                                     std::size_t index) {
  SweepRecord rec;
  rec.index = index;
  rec.params = cfg.grid.point(index);
  const PointSetup s = setup_point(cfg, rec.params);
  const PointCost pc = compute_point_cost_reference(s, cfg.objective);
  rec.feasible = pc.feasible;
  rec.processes = pc.processes;
  rec.metrics.D = metric_value(pc.cost, Objective::D);
  rec.metrics.PDP = metric_value(pc.cost, Objective::PDP);
  rec.metrics.EDP = metric_value(pc.cost, Objective::EDP);
  rec.metrics.ED2P = metric_value(pc.cost, Objective::ED2P);

  const ProcessProfile per_process = strong_scaled(s.profile, rec.processes);
  models::RoundSpec rs;
  rs.local_ops = per_process.c_fp + per_process.c_int;
  rs.msgs_out = per_process.m_s;
  rs.msgs_in = per_process.m_r;
  rs.shm_reads = per_process.d_r;
  rs.shm_writes = per_process.d_w;
  rs.max_location_accesses = per_process.kappa;
  const models::ClassicalParams cp =
      models::classical_from_machine(s.machine.params);
  for (int k = 0; k < models::kModelKindCount; ++k)
    rec.classical[static_cast<std::size_t>(k)] =
        models::round_time(static_cast<models::ModelKind>(k), rs, cp);
  return rec;
}

TEST(Batch, ReferencePathIsDeterministic) {
  const SweepConfig cfg = SweepConfig::tiny();
  for (std::size_t i = 0; i < cfg.grid.size(); ++i)
    EXPECT_EQ(evaluate_point_reference(cfg, i),
              evaluate_point_reference(cfg, i));
}

// Every record the batch path emits equals the scalar reference, over the
// full canonical grid (the checked-in baseline's 576 points — this is the
// grid CI `cmp`s against sweeps/baseline.json).
TEST(Batch, MatchesScalarReferenceOnEveryCanonicalPoint) {
  const SweepConfig cfg = SweepConfig::canonical();
  const SweepResult r = run_sweep(cfg, nullptr);
  ASSERT_EQ(r.records.size(), cfg.grid.size());
  for (std::size_t i = 0; i < cfg.grid.size(); ++i)
    EXPECT_EQ(r.records[i], evaluate_point_reference(cfg, i)) << "index " << i;
}

TEST(Batch, MatchesScalarReferenceAcrossPoolWidths) {
  const SweepConfig cfg = SweepConfig::tiny();
  for (const int width : {1, 4, 16}) {
    Pool pool(width);
    const SweepResult r = run_sweep(cfg, &pool);
    ASSERT_EQ(r.records.size(), cfg.grid.size());
    for (std::size_t i = 0; i < cfg.grid.size(); ++i)
      EXPECT_EQ(r.records[i], evaluate_point_reference(cfg, i))
          << "width " << width << " index " << i;
  }
}

// Chunk boundaries: kBatch-point sub-batches must not perturb records near
// their edges. A grid sized to leave a ragged final sub-batch (2*kBatch + 3
// points) is compared to the reference at the exact boundary indices.
TEST(Batch, RaggedSubBatchBoundariesMatchTheReference) {
  SweepConfig cfg = SweepConfig::tiny();
  cfg.grid = ParamGrid{};
  cfg.grid.axis(std::string(axes::kCores), {2, 4, 8, 16})
      .axis(std::string(axes::kEllE), linspace(8, 40, 0x80 + 1))
      .axis(std::string(axes::kKappa), {0});
  ASSERT_EQ(cfg.grid.size(), 4u * 129u);  // 516 = 2*256 + 4: ragged tail
  const SweepResult r = run_sweep(cfg, nullptr);
  for (const std::size_t i :
       {std::size_t{0}, BatchEvaluator::kBatch - 1, BatchEvaluator::kBatch,
        2 * BatchEvaluator::kBatch - 1, 2 * BatchEvaluator::kBatch,
        cfg.grid.size() - 1}) {
    EXPECT_EQ(r.records[i], evaluate_point_reference(cfg, i)) << "index " << i;
  }
}

// An axis with repeated values makes two grid points share a canonical
// parameter tuple — the only way a Cartesian grid produces cache hits. The
// batch path must hit (not recompute) and the duplicate points' records must
// still match the reference independently.
TEST(Batch, DuplicateAxisValuesHitTheCacheWithoutChangingRecords) {
  SweepConfig cfg = SweepConfig::tiny();
  cfg.grid = ParamGrid{};
  cfg.grid.axis(std::string(axes::kCores), {4, 4})
      .axis(std::string(axes::kKappa), {0, 8});
  const SweepResult r = run_sweep(cfg, nullptr);
  const auto points = static_cast<std::uint64_t>(cfg.grid.size());
  EXPECT_EQ(r.stats.cache_hits + r.stats.cache_misses, points);
  EXPECT_EQ(r.stats.cache_misses, 2u);  // two distinct tuples
  EXPECT_EQ(r.stats.cache_hits, 2u);    // the duplicated-cores replays
  for (std::size_t i = 0; i < cfg.grid.size(); ++i)
    EXPECT_EQ(r.records[i], evaluate_point_reference(cfg, i)) << "index " << i;
}

// The per-thread placement memo reuses the price of a candidate process
// count across points with the same machine, κ and strategy. Process bounds
// {16, 64, 32, 16} make every point after the first of a run reuse the
// candidates its neighbours priced (with the repeated 16 the grid keeps its
// cache; without it the sweep has none), κ includes 0, all three strategies
// run, and both grids end in a ragged sub-batch.
TEST(Batch, PlacementMemoMatchesTheReferenceAcrossPoolWidths) {
  for (const std::vector<double>& procs :
       {std::vector<double>{16, 64, 32, 16}, std::vector<double>{16, 64, 32}}) {
    SweepConfig cfg = SweepConfig::tiny();
    cfg.grid = ParamGrid{};
    cfg.grid.axis(std::string(axes::kCores), {4, 16})
        .axis(std::string(axes::kThreadsPerCore), {2, 4})
        .axis(std::string(axes::kEllE), linspace(12, 40, 3))
        .axis(std::string(axes::kKappa), {0, 3.5, 8})
        .axis(std::string(axes::kPlacement), {0, 1, 2})
        .axis(std::string(axes::kProcesses), procs);
    ASSERT_NE(cfg.grid.size() % BatchEvaluator::kBatch, 0u);
    ASSERT_GT(cfg.grid.size(), BatchEvaluator::kBatch);
    for (const int width : {1, 4}) {
      Pool pool(width);
      const SweepResult r = run_sweep(cfg, &pool);
      EXPECT_EQ(r.stats.cache_bypassed, cfg.grid.tuples_distinct());
      ASSERT_EQ(r.records.size(), cfg.grid.size());
      for (std::size_t i = 0; i < cfg.grid.size(); ++i)
        ASSERT_EQ(r.records[i], evaluate_point_reference(cfg, i))
            << "procs " << procs.size() << " width " << width << " index "
            << i;
    }
  }
}

// Evaluators that share a thread share its scratch. Two sweeps over the same
// machine, κ and strategy but different workloads, priced one point at a
// time in alternation, must never see each other's memoized prices.
TEST(Batch, PlacementMemoDoesNotLeakAcrossEvaluators) {
  const SweepConfig a = SweepConfig::tiny();
  SweepConfig b = a;
  b.profile.c_fp *= 3;
  b.profile.m_s *= 2;
  const SweepOptions options;
  for (std::size_t i = 0; i < a.grid.size(); ++i) {
    for (const SweepConfig* cfg : std::array<const SweepConfig*, 2>{&a, &b}) {
      std::vector<SweepRecord> one(1);
      BatchEvaluator evaluator(*cfg, nullptr, options, /*record_offset=*/i);
      (void)evaluator.run(nullptr, i, i + 1, one);
      EXPECT_EQ(evaluator.uncached_points(), 1u);
      EXPECT_EQ(one.front(), evaluate_point_reference(*cfg, i))
          << (cfg == &a ? "a" : "b") << " index " << i;
    }
  }
}

// The TTL/admission cache mode must be invisible to sweeps: a batch run
// through a CacheOptions-constructed cache with the defaults (no TTL, no
// admission) reproduces the classic sweep records bit for bit — this is the
// in-process half of the CI gate that `cmp`s a fresh canonical sweep against
// sweeps/baseline.json.
TEST(Batch, CacheOptionsDefaultsLeaveSweepRecordsBitIdentical) {
  const SweepConfig cfg = SweepConfig::tiny();
  const SweepResult classic = run_sweep(cfg, nullptr);

  CostCache cache{CacheOptions{}};
  std::vector<SweepRecord> records(cfg.grid.size());
  const SweepOptions options;
  BatchEvaluator evaluator(cfg, &cache, options);
  (void)evaluator.run(nullptr, 0, cfg.grid.size(), records);
  ASSERT_EQ(records.size(), classic.records.size());
  for (std::size_t i = 0; i < records.size(); ++i)
    EXPECT_EQ(records[i], classic.records[i]) << "index " << i;
  EXPECT_EQ(cache.expirations(), 0u);
  EXPECT_EQ(cache.admission_rejections(), 0u);
}

// Resume byte-identity through the batch path: journal half the points of an
// uninterrupted run, resume against that journal at several pool widths, and
// require the artifact bytes (not just the records) to be identical to the
// uninterrupted run's.
TEST(Batch, ResumedRunsAreByteIdenticalAtEveryWidth) {
  const SweepConfig cfg = SweepConfig::tiny();
  const SweepResult full = run_sweep(cfg, nullptr);
  const std::string want = to_json(full);

  std::string journal_bytes{Journal::header_line(cfg)};
  std::size_t journaled = 0;
  for (std::size_t i = 0; i < full.records.size(); i += 2) {
    journal_bytes += Journal::record_line(full.records[i]);
    ++journaled;
  }
  const std::string path = temp_path("batch_resume.journal");
  write_bytes(path, journal_bytes);
  const ResumeState resume = ResumeState::load(path, cfg);
  ASSERT_EQ(resume.completed_points(), journaled);

  SweepOptions options;
  options.resume = &resume;
  const SweepResult serial = run_sweep(cfg, nullptr, options);
  EXPECT_EQ(serial.stats.resumed_points, journaled);
  EXPECT_EQ(to_json(serial), want);
  for (const int width : {1, 4, 16}) {
    Pool pool(width);
    const SweepResult pooled = run_sweep(cfg, &pool, options);
    EXPECT_EQ(pooled.stats.resumed_points, journaled);
    EXPECT_EQ(to_json(pooled), want) << "width " << width;
  }
}

// A journaled batch run appends exactly the lines a byte-for-byte replay
// needs: header + one framed record per point, in index order for the
// serial driver.
TEST(Batch, SerialJournalHoldsEveryRecordInIndexOrder) {
  const SweepConfig cfg = SweepConfig::tiny();
  const std::string path = temp_path("batch_journal.journal");
  SweepResult result;
  {
    Journal journal(path, cfg);
    SweepOptions options;
    options.journal = &journal;
    result = run_sweep(cfg, nullptr, options);
    EXPECT_EQ(journal.appended(), cfg.grid.size());
  }
  EXPECT_EQ(result.stats.journaled_points, cfg.grid.size());

  std::string want{Journal::header_line(cfg)};
  for (const SweepRecord& rec : result.records)
    want += Journal::record_line(rec);
  std::ifstream is(path, std::ios::binary);
  const std::string got((std::istreambuf_iterator<char>(is)),
                        std::istreambuf_iterator<char>());
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace stamp::sweep
