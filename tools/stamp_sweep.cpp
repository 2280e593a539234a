/// \file stamp_sweep.cpp
/// \brief CLI sweep runner: evaluate a parameter grid on the work-stealing
///        pool and emit the stable `stamp-sweep/v1` JSON artifact.
///
/// This is what CI (and scripts/run_all.sh) runs to produce the artifact the
/// regression gate compares against `sweeps/baseline.json`. The output is
/// byte-identical for any --threads value, so refreshing the baseline on a
/// different machine or core count is safe. Tracing (`--trace`) records the
/// sweep through the observability layer and additionally replays the best
/// feasible point's winning configuration on the machine simulator, so one
/// trace shows all three hot layers (sweep/pool/cache and the simulator);
/// the artifact itself is unaffected.
///
/// Durability: `--journal FILE` appends a checksummed `stamp-journal/v1`
/// record per completed point; `--resume FILE` replays such a journal and
/// evaluates only the missing points, producing an artifact byte-identical
/// to an uninterrupted run. SIGINT/SIGTERM trip a cooperative cancel token:
/// in-flight points drain and reach the journal before the process exits.
/// Artifacts land via an atomic temp-file + rename, never as a torn file.
///
/// Exit codes: 0 success; 2 usage or I/O error; 3 cancelled by signal
/// (journal preserved, no artifact); 4 evaluation failure (injected point
/// failure or per-point deadline; journal preserved, no artifact).
///
/// Usage: see `stamp_sweep --help` (generated from the option table).

#include "api/stamp.hpp"
#include "cli.hpp"
#include "signals.hpp"
#include "core/hw.hpp"
#include "report/atomic_file.hpp"
#include "sweep/journal.hpp"

#include <chrono>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

using stamp::tools::Cli;

/// Replay the winning point's configuration on the explicit-resource machine
/// simulator so the trace contains simulator spans alongside the sweep's own.
/// The winner is the same argmin the guided search (src/search/) computes.
void replay_winner(const stamp::sweep::SweepConfig& cfg,
                   const stamp::sweep::SweepResult& result) {
  if (result.records.empty()) return;
  const std::size_t w =
      stamp::search::best_record_index(result.records, cfg.objective);
  const stamp::sweep::SweepRecord& rec = result.records[w];
  const stamp::sweep::PointSetup setup = stamp::sweep::setup_point(cfg, rec.params);
  const int n = std::max(1, rec.processes);

  const stamp::runtime::PlacementMap placement =
      stamp::runtime::PlacementMap::for_distribution(
          setup.machine.topology, n, stamp::Distribution::IntraProc);
  const stamp::ProcessProfile per_process =
      stamp::sweep::strong_scaled(setup.profile, n);

  const int units = std::max(1, static_cast<int>(std::lround(per_process.units)));
  const auto un = static_cast<std::size_t>(n);

  std::vector<stamp::CostCounters> rounds(un);
  std::vector<long long> sends_intra(un, 0);
  std::vector<long long> sends_inter(un, 0);
  for (int p = 0; p < n; ++p) {
    const stamp::ProcessCounts pc = placement.process_counts_for(p);
    const int peers = pc.intra + pc.inter;
    const double intra_fraction =
        peers > 0 ? static_cast<double>(pc.intra) / peers : 0.0;
    rounds[static_cast<std::size_t>(p)] = per_process.split(intra_fraction);
    sends_intra[static_cast<std::size_t>(p)] =
        std::llround(rounds[static_cast<std::size_t>(p)].m_s_a);
    sends_inter[static_cast<std::size_t>(p)] =
        std::llround(rounds[static_cast<std::size_t>(p)].m_s_e);
  }

  // The simulator routes each sent message round-robin over the sender's
  // eligible peers (falling back to self), so per-receiver delivery counts
  // need not equal the profile's m_r. Emulate that routing — it depends only
  // on each sender's own cursor, so it is schedule-independent — and issue
  // exactly the delivered count as each round's receive, or the replay
  // deadlocks on a receive that can never be satisfied.
  std::vector<std::size_t> intra_cursor(un, 0);
  std::vector<std::size_t> inter_cursor(un, 0);
  auto pick_peer = [&](int from, bool intra) -> int {
    std::size_t& cursor = intra ? intra_cursor[static_cast<std::size_t>(from)]
                                : inter_cursor[static_cast<std::size_t>(from)];
    for (int tries = 0; tries < n; ++tries) {
      const int candidate = static_cast<int>((cursor + tries) % un);
      if (candidate == from) continue;
      if (placement.same_processor(from, candidate) == intra) {
        cursor = static_cast<std::size_t>(candidate) + 1;
        return candidate;
      }
    }
    return -1;
  };
  std::vector<std::vector<long long>> delivered(
      static_cast<std::size_t>(units), std::vector<long long>(un, 0));
  for (int u = 0; u < units; ++u) {
    for (int p = 0; p < n; ++p) {
      for (long long m = 0; m < sends_intra[static_cast<std::size_t>(p)]; ++m) {
        const int peer = pick_peer(p, true);
        ++delivered[static_cast<std::size_t>(u)]
                   [static_cast<std::size_t>(peer >= 0 ? peer : p)];
      }
      for (long long m = 0; m < sends_inter[static_cast<std::size_t>(p)]; ++m) {
        const int peer = pick_peer(p, false);
        ++delivered[static_cast<std::size_t>(u)]
                   [static_cast<std::size_t>(peer >= 0 ? peer : p)];
      }
    }
  }

  std::vector<stamp::machine::ProcessTrace> traces;
  traces.reserve(un);
  using Op = stamp::machine::TraceOp;
  for (int p = 0; p < n; ++p) {
    const stamp::CostCounters& round = rounds[static_cast<std::size_t>(p)];
    stamp::machine::ProcessTrace trace;
    auto push = [&](Op::Kind kind, double amount, bool intra, double fp = 0) {
      if (amount > 0) trace.push_back({kind, amount, intra, fp});
    };
    for (int u = 0; u < units; ++u) {
      // Not trace_of_round's canonical receive-first order: with every
      // process running the identical round, nobody would have sent yet.
      // Sends go ahead of receives; the barrier keeps units aligned.
      push(Op::Kind::Compute, round.local_ops(), false, round.c_fp);
      push(Op::Kind::ShmRead, round.d_r_a, true);
      push(Op::Kind::ShmRead, round.d_r_e, false);
      push(Op::Kind::ShmWrite, round.d_w_a, true);
      push(Op::Kind::ShmWrite, round.d_w_e, false);
      push(Op::Kind::MsgSend, round.m_s_a, true);
      push(Op::Kind::MsgSend, round.m_s_e, false);
      push(Op::Kind::MsgRecv,
           static_cast<double>(delivered[static_cast<std::size_t>(u)]
                                        [static_cast<std::size_t>(p)]),
           false);
      trace.push_back({Op::Kind::Barrier, 0, false, 0});
    }
    traces.push_back(std::move(trace));
  }

  const stamp::Evaluator eval({.machine = setup.machine});
  const stamp::machine::SimResult sim = eval.simulate(traces, placement);
  std::cerr << "trace: replayed winning point " << rec.index << " ("
            << n << " processes) on the simulator: makespan " << sim.makespan
            << ", energy " << sim.energy << "\n";
}

bool write_text(const std::string& path, const std::string& text) {
  try {
    stamp::report::AtomicFileWriter::write_file(path, text);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string grid = "canonical";
  std::string out_path;
  std::string trace_path;
  std::string metrics_path;
  std::string journal_path;
  std::string resume_path;
  int threads = 0;
  int point_deadline_ms = 0;
  int fail_seed = 0;
  double fail_prob = 0;
  bool stats = false;

  Cli cli("stamp_sweep",
          "Evaluate a STAMP parameter grid and emit the deterministic "
          "stamp-sweep/v1 JSON artifact.");
  cli.option_string("grid", &grid, "canonical|tiny|large",
                    "grid preset to evaluate (default: canonical)")
      .option_int("threads", &threads, "N",
                  "pool width; 0 = hardware concurrency (default)")
      .option_int("jobs", &threads, "N", "alias for --threads")
      .option_string("out", &out_path, "FILE", "output file (default: stdout)")
      .option_string("journal", &journal_path, "FILE",
                     "append a stamp-journal/v1 record per completed point "
                     "(crash-safe; enables resuming)")
      .option_string("resume", &resume_path, "FILE",
                     "replay a journal and evaluate only the missing points "
                     "(implies journaling to FILE unless --journal is given)")
      .option_int("point-deadline-ms", &point_deadline_ms, "MS",
                  "fail the sweep if one point evaluation exceeds MS "
                  "milliseconds (0 = no deadline)")
      .option_int("fail-seed", &fail_seed, "SEED",
                  "seed for injected sweep-point failures (chaos testing)")
      .option_double("fail-prob", &fail_prob, "P",
                     "per-point probability of an injected failure "
                     "(chaos testing; default 0 = off)")
      .option_string("trace", &trace_path, "FILE",
                     "record a Chrome trace of the sweep (plus a simulator "
                     "replay of the winning point) to FILE")
      .option_string("metrics", &metrics_path, "FILE",
                     "record the metrics registry as JSON to FILE")
      .flag("stats", &stats,
            "print cache/steal statistics and the evaluate/write "
            "wall-clock split to stderr");
  switch (cli.parse(argc, argv)) {
    case Cli::Parse::Help: return 0;
    case Cli::Parse::Error: return 2;
    case Cli::Parse::Ok: break;
  }

  // SIGINT/SIGTERM trip the shared shutdown token (graceful drain, exit 3);
  // a closed stdout pipe surfaces as a stream error (exit 2), not a kill
  // mid-artifact. Shared drain semantics: tools/signals.hpp.
  stamp::tools::install_shutdown_handlers();

  stamp::sweep::SweepConfig cfg;
  if (grid == "canonical") {
    cfg = stamp::sweep::SweepConfig::canonical();
  } else if (grid == "tiny") {
    cfg = stamp::sweep::SweepConfig::tiny();
  } else if (grid == "large") {
    cfg = stamp::sweep::SweepConfig::large();
  } else {
    std::cerr << "stamp_sweep: unknown grid preset '" << grid << "'\n";
    return 2;
  }

  if (threads == 0) threads = stamp::core::usable_hardware_threads();

  try {
    stamp::Evaluator::set_tracing(!trace_path.empty());
    stamp::Evaluator::set_metrics(!metrics_path.empty());

    // Resuming without an explicit journal keeps appending to the same file:
    // a second interruption must not lose the first run's completed points.
    if (journal_path.empty()) journal_path = resume_path;

    std::unique_ptr<stamp::sweep::ResumeState> resume;
    if (!resume_path.empty()) {
      if (std::filesystem::exists(resume_path)) {
        resume = std::make_unique<stamp::sweep::ResumeState>(
            stamp::sweep::ResumeState::load(resume_path, cfg));
        std::cerr << "stamp_sweep: resuming " << resume->completed_points()
                  << "/" << resume->grid_points() << " points from '"
                  << resume_path << "'"
                  << (resume->truncated() ? " (torn tail truncated)" : "")
                  << "\n";
      } else {
        std::cerr << "stamp_sweep: resume file '" << resume_path
                  << "' does not exist; starting fresh\n";
      }
    }

    std::unique_ptr<stamp::sweep::Journal> journal;
    if (!journal_path.empty())
      journal = std::make_unique<stamp::sweep::Journal>(journal_path, cfg,
                                                        resume.get());

    if (fail_prob > 0) {
      stamp::fault::FaultPlan plan;
      plan.seed = static_cast<std::uint64_t>(fail_seed);
      plan.with(stamp::fault::FaultSite::SweepPointFail, fail_prob);
      stamp::Evaluator::with_faults(plan);
    }

    stamp::sweep::SweepOptions opts;
    opts.cancel = &stamp::tools::shutdown_token();
    opts.journal = journal.get();
    opts.resume = resume.get();
    opts.point_deadline = std::chrono::milliseconds(point_deadline_ms);
    opts.threads = threads;

    const stamp::Evaluator eval({.machine = cfg.base, .objective = cfg.objective});
    using Clock = std::chrono::steady_clock;
    const auto seconds_since = [](Clock::time_point t0) {
      return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    stamp::sweep::SweepResult result;
    const Clock::time_point evaluate_start = Clock::now();
    try {
      result = eval.sweep(cfg, opts);
    } catch (const std::exception& e) {
      // Every non-failing point was evaluated and the journal (if any)
      // synced before the failure surfaced; they all survive for --resume.
      std::cerr << "stamp_sweep: sweep failed: " << e.what() << "\n";
      if (journal)
        std::cerr << "stamp_sweep: journal preserved at '" << journal_path
                  << "'; rerun with --resume to continue\n";
      return 4;
    }
    const double evaluate_s = seconds_since(evaluate_start);

    if (result.cancelled) {
      std::cerr << "stamp_sweep: cancelled by signal after "
                << (result.records.size() - result.stats.skipped_points)
                << "/" << result.records.size() << " points";
      if (journal)
        std::cerr << "; journal preserved at '" << journal_path
                  << "', rerun with --resume to continue";
      std::cerr << "\n";
      return 3;
    }

    const Clock::time_point write_start = Clock::now();
    if (out_path.empty() || out_path == "-") {
      stamp::sweep::write_json(result, std::cout);
    } else {
      stamp::report::AtomicFileWriter writer(out_path);
      if (!writer.ok()) {
        std::cerr << "stamp_sweep: cannot open '" << out_path << "' for writing\n";
        return 2;
      }
      stamp::sweep::write_json(result, writer.stream());
      writer.commit();
    }
    const double write_s = seconds_since(write_start);

    if (!trace_path.empty()) {
      replay_winner(cfg, result);
      if (!write_text(trace_path, stamp::Evaluator::trace_json())) {
        std::cerr << "stamp_sweep: cannot write trace '" << trace_path << "'\n";
        return 2;
      }
    }
    if (!metrics_path.empty()) {
      std::ostringstream ss;
      stamp::Evaluator::write_metrics(ss);
      if (!write_text(metrics_path, ss.str())) {
        std::cerr << "stamp_sweep: cannot write metrics '" << metrics_path << "'\n";
        return 2;
      }
    }

    if (stats) {
      std::cerr << "sweep: " << result.records.size() << " points, "
                << threads << " threads, ";
      if (result.stats.cache_bypassed)
        std::cerr << "cache off (all tuples distinct), "
                  << result.stats.cache_misses << " priced, ";
      else
        std::cerr << "cache " << result.stats.cache_hits << " hits / "
                  << result.stats.cache_misses << " misses / "
                  << result.stats.cache_evictions << " evictions, ";
      std::cerr << result.stats.pool_steals << " steals, "
                << result.stats.resumed_points << " resumed, "
                << result.stats.journaled_points << " journaled, evaluate_s="
                << evaluate_s << " write_s=" << write_s << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "stamp_sweep: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
