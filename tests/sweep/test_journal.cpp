#include "sweep/journal.hpp"

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "report/atomic_file.hpp"
#include "sweep/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
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

std::size_t file_size(const std::string& path) {
  return static_cast<std::size_t>(fs::file_size(path));
}

/// A couple of genuinely evaluated records to journal (index 0 and 1 of the
/// tiny grid), so the torture corpus uses real payloads, not toy ones.
std::vector<SweepRecord> tiny_records() {
  static const SweepResult result = run_sweep(SweepConfig::tiny(), nullptr);
  return result.records;
}

TEST(Journal, Crc32MatchesKnownVectors) {
  EXPECT_EQ(crc32(""), 0u);
  // The IEEE 802.3 check value for the standard nine-byte test input.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_NE(crc32("stamp"), crc32("stamq"));
}

TEST(Journal, HeaderAndRecordLinesRoundTripThroughResume) {
  const SweepConfig cfg = SweepConfig::tiny();
  const std::vector<SweepRecord> recs = tiny_records();
  const std::string path = temp_path("journal_roundtrip.journal");
  write_bytes(path, Journal::header_line(cfg) + Journal::record_line(recs[0]) +
                        Journal::record_line(recs[1]));

  const ResumeState resume = ResumeState::load(path, cfg);
  EXPECT_EQ(resume.grid_points(), cfg.grid.size());
  EXPECT_EQ(resume.completed_points(), 2u);
  EXPECT_FALSE(resume.truncated());
  EXPECT_EQ(resume.valid_bytes(), file_size(path));
  ASSERT_TRUE(resume.completed(0));
  ASSERT_TRUE(resume.completed(1));
  EXPECT_FALSE(resume.completed(2));
  // Doubles round-trip at the serialization level (15 significant digits), so
  // replayed records must re-emit byte-identical lines, which is the property
  // the byte-identical resumed artifact rests on.
  EXPECT_EQ(Journal::record_line(resume.record(0)),
            Journal::record_line(recs[0]));
  EXPECT_EQ(Journal::record_line(resume.record(1)),
            Journal::record_line(recs[1]));
  fs::remove(path);
}

// The torture corpus: truncate the journal at EVERY byte offset — through the
// header, through the first record, and through the last record. Loading must
// never crash and never over-count: the resume state is exactly the longest
// prefix of intact lines, and everything past it is reported as truncated.
TEST(Journal, TruncationAtEveryByteOffsetIsDetectedNeverFatal) {
  const SweepConfig cfg = SweepConfig::tiny();
  const std::vector<SweepRecord> recs = tiny_records();
  const std::string header = Journal::header_line(cfg);
  const std::string line0 = Journal::record_line(recs[0]);
  const std::string line1 = Journal::record_line(recs[1]);
  const std::string full = header + line0 + line1;
  // Clean-prefix boundaries: a cut exactly here leaves a well-formed journal.
  const std::size_t b1 = header.size();
  const std::size_t b2 = b1 + line0.size();
  const std::size_t b3 = b2 + line1.size();
  const std::string path = temp_path("journal_torture.journal");

  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    write_bytes(path, full.substr(0, cut));
    ResumeState resume = ResumeState::load(path, cfg);

    std::size_t expect_valid = 0;
    if (cut >= b3)
      expect_valid = b3;
    else if (cut >= b2)
      expect_valid = b2;
    else if (cut >= b1)
      expect_valid = b1;
    const std::size_t expect_completed =
        expect_valid >= b3 ? 2u : (expect_valid >= b2 ? 1u : 0u);

    EXPECT_EQ(resume.valid_bytes(), expect_valid) << "cut at byte " << cut;
    EXPECT_EQ(resume.completed_points(), expect_completed)
        << "cut at byte " << cut;
    EXPECT_EQ(resume.truncated(), cut != expect_valid) << "cut at byte " << cut;
    // A torn header must degrade to "nothing completed", never to a
    // grid-size-mismatch error: the state is still sized for this grid.
    EXPECT_EQ(resume.grid_points(), cfg.grid.size()) << "cut at byte " << cut;
  }
  fs::remove(path);
}

// Opening a Journal over a torn file truncates it back to the validated
// prefix, so one crash can never compound into an unparseable journal.
TEST(Journal, ResumeTruncatesTornTailAndAppendsCleanly) {
  const SweepConfig cfg = SweepConfig::tiny();
  const std::vector<SweepRecord> recs = tiny_records();
  const std::string header = Journal::header_line(cfg);
  const std::string line0 = Journal::record_line(recs[0]);
  const std::string line1 = Journal::record_line(recs[1]);
  const std::string path = temp_path("journal_truncate.journal");
  // Tear the second record in half.
  write_bytes(path, header + line0 + line1.substr(0, line1.size() / 2));

  const ResumeState resume = ResumeState::load(path, cfg);
  ASSERT_TRUE(resume.truncated());
  ASSERT_EQ(resume.completed_points(), 1u);
  {
    Journal journal(path, cfg, &resume);
    EXPECT_EQ(file_size(path), resume.valid_bytes());  // tail dropped
    journal.append(recs[1]);
    EXPECT_EQ(journal.appended(), 1u);
  }
  EXPECT_EQ(file_size(path), resume.valid_bytes() + line1.size());

  const ResumeState after = ResumeState::load(path, cfg);
  EXPECT_FALSE(after.truncated());
  EXPECT_EQ(after.completed_points(), 2u);
  fs::remove(path);
}

TEST(Journal, IntactHeaderForDifferentSweepIsRejectedLoudly) {
  const SweepConfig tiny = SweepConfig::tiny();
  const std::string path = temp_path("journal_mismatch.journal");
  write_bytes(path, Journal::header_line(tiny));
  EXPECT_THROW(static_cast<void>(
                   ResumeState::load(path, SweepConfig::canonical())),
               std::runtime_error);
  fs::remove(path);
}

TEST(Journal, DuplicateRecordLinesReplayOnce) {
  const SweepConfig cfg = SweepConfig::tiny();
  const std::vector<SweepRecord> recs = tiny_records();
  const std::string path = temp_path("journal_duplicate.journal");
  const std::string line0 = Journal::record_line(recs[0]);
  write_bytes(path, Journal::header_line(cfg) + line0 + line0);

  const ResumeState resume = ResumeState::load(path, cfg);
  EXPECT_EQ(resume.completed_points(), 1u);  // never double-counted
  EXPECT_TRUE(resume.completed(0));
  EXPECT_FALSE(resume.truncated());
  fs::remove(path);
}

// Corruption in the middle (not just a torn tail) stops replay at the bad
// line: intact lines after it are discarded rather than trusted out of order.
TEST(Journal, CorruptMiddleLineStopsReplayThere) {
  const SweepConfig cfg = SweepConfig::tiny();
  const std::vector<SweepRecord> recs = tiny_records();
  std::string line0 = Journal::record_line(recs[0]);
  line0[line0.size() / 2] ^= 0x01;  // flip one payload bit: checksum fails
  const std::string header = Journal::header_line(cfg);
  const std::string path = temp_path("journal_corrupt.journal");
  write_bytes(path, header + line0 + Journal::record_line(recs[1]));

  const ResumeState resume = ResumeState::load(path, cfg);
  EXPECT_EQ(resume.completed_points(), 0u);
  EXPECT_EQ(resume.valid_bytes(), header.size());
  EXPECT_TRUE(resume.truncated());
  fs::remove(path);
}

TEST(Journal, FreshRunJournalsEveryPointAndResumeReplaysThemAll) {
  const SweepConfig cfg = SweepConfig::tiny();
  const std::string path = temp_path("journal_full.journal");
  fs::remove(path);
  SweepResult first;
  {
    Journal journal(path, cfg);
    SweepOptions opts;
    opts.journal = &journal;
    first = run_sweep(cfg, nullptr, opts);
    EXPECT_EQ(journal.appended(), cfg.grid.size());
  }
  EXPECT_EQ(first.stats.journaled_points, cfg.grid.size());

  const ResumeState resume = ResumeState::load(path, cfg);
  EXPECT_EQ(resume.completed_points(), cfg.grid.size());
  SweepOptions opts;
  opts.resume = &resume;
  const SweepResult replayed = run_sweep(cfg, nullptr, opts);
  EXPECT_EQ(replayed.stats.resumed_points, cfg.grid.size());
  EXPECT_EQ(replayed.stats.journaled_points, 0u);
  EXPECT_EQ(to_json(replayed), to_json(first));
  fs::remove(path);
}

// The acceptance property behind the CI job: kill a journaled sweep with an
// injected SweepPointFail, resume from the journal, and get an artifact
// byte-identical to an uninterrupted run — at any pool width, and without a
// pool (width 0 here: the calling thread alone).
TEST(Journal, KillAndResumeIsByteIdenticalAtAnyPoolWidth) {
  const SweepConfig cfg = SweepConfig::tiny();
  const std::string want = to_json(run_sweep(cfg, nullptr));

  std::vector<std::size_t> journaled;
  for (const int width : {0, 1, 4, 16}) {
    const std::string path =
        temp_path("journal_kill_w" + std::to_string(width) + ".journal");
    fs::remove(path);
    std::unique_ptr<Pool> pool;
    if (width > 0) pool = std::make_unique<Pool>(width);

    fault::FaultPlan plan;
    plan.seed = 42;
    plan.with(fault::FaultSite::SweepPointFail, 0.2);
    fault::Injector::global().arm(plan);
    bool failed = false;
    {
      Journal journal(path, cfg);
      SweepOptions opts;
      opts.journal = &journal;
      try {
        static_cast<void>(run_sweep(cfg, pool.get(), opts));
      } catch (const fault::SweepPointFailure&) {
        failed = true;
      }
    }
    fault::Injector::global().disarm();
    ASSERT_TRUE(failed) << "width " << width;

    const ResumeState resume = ResumeState::load(path, cfg);
    EXPECT_GT(resume.completed_points(), 0u) << "width " << width;
    ASSERT_LT(resume.completed_points(), cfg.grid.size()) << "width " << width;
    journaled.push_back(resume.completed_points());

    SweepOptions opts;
    opts.resume = &resume;
    const SweepResult resumed = run_sweep(cfg, pool.get(), opts);
    EXPECT_EQ(resumed.stats.resumed_points, resume.completed_points());
    EXPECT_EQ(to_json(resumed), want) << "width " << width;
    fs::remove(path);
  }
  // Fault decisions are keyed by grid index and every non-failing point is
  // journaled before the failure surfaces, so the journaled set is identical
  // with and without a pool, at every width.
  for (const std::size_t n : journaled) EXPECT_EQ(n, journaled.front());
}

// Creating a fresh journal must fsync its *parent directory* (observed via
// the report-layer commit observer): records fsynced into a file whose
// directory entry is not durable can vanish wholesale in a crash. A resumed
// journal reuses an existing entry, so no directory fsync is required.
std::vector<report::CommitStep>& journal_fsync_steps() {
  static std::vector<report::CommitStep> steps;
  return steps;
}

TEST(Journal, CreationFsyncsTheParentDirectory) {
  const SweepConfig cfg = SweepConfig::tiny();
  const std::vector<SweepRecord> recs = tiny_records();
  const std::string path = temp_path("journal_dir_fsync.journal");
  fs::remove(path);

  journal_fsync_steps().clear();
  report::set_commit_observer([](report::CommitStep step, const std::string&) {
    journal_fsync_steps().push_back(step);
  });

  {
    Journal journal(path, cfg);
    journal.append(recs[0]);
  }
  const auto after_create = journal_fsync_steps().size();
  EXPECT_GE(after_create, 1u) << "fresh journal never fsynced its directory";
  EXPECT_TRUE(std::count(journal_fsync_steps().begin(),
                         journal_fsync_steps().end(),
                         report::CommitStep::DirFsync) >= 1);

  // Reopening to continue an existing journal must not re-fsync the
  // directory: the entry is already durable, and the resume path must not
  // pay for (or depend on) a second directory sync.
  const ResumeState resume = ResumeState::load(path, cfg);
  {
    Journal journal(path, cfg, &resume);
    journal.append(recs[1]);
  }
  EXPECT_EQ(journal_fsync_steps().size(), after_create)
      << "continuing journal re-fsynced the directory";
  report::set_commit_observer(nullptr);
  fs::remove(path);
}

}  // namespace
}  // namespace stamp::sweep
