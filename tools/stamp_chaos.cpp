/// \file stamp_chaos.cpp
/// \brief The chaos harness CLI over the `chaos::Scenario` set
///        (src/chaos/scenarios.cpp), two modes:
///
///  - `stamp_chaos run`: the seeded suite — every scenario that arms a site
///    spec runs once uninjected and once under `FaultPlan{seed, specs}`, and
///    the stamp-chaos/v2 report says whether the fault-masked artifacts
///    match.
///  - `stamp_chaos campaign`: systematic fault-space exploration over one
///    scenario — enumerate single and pair-wise injection schedules from the
///    observed decision streams, replay each verbatim, check artifact
///    byte-identity against the uninjected reference, shrink failures to
///    minimal replayable repros (`--shrink`), and replay a repro file
///    (`--replay`). Emits stamp-campaign/v1.
///
/// Determinism contract: both reports are pure functions of their inputs
/// (seed / schedule space). Fault decisions are keyed by logical actor
/// (process, task, core, request, shard), never by thread identity, and the reports
/// contain no wall-clock data and no worker counts — so `--jobs 1` and
/// `--jobs 4` produce byte-identical output. CI diffs exactly that.
///
/// Exit codes: 0 clean, 2 usage error, 4 invariant violations found (an
/// artifact mismatch in `run`, or a replayed repro failed — the expected
/// outcome for a repro), 1 internal error.

#include "chaos/chaos.hpp"
#include "core/hw.hpp"
#include "fault/fault.hpp"
#include "report/atomic_file.hpp"
#include "report/json.hpp"
#include "sweep/pool.hpp"
#include "cli.hpp"
#include "inject.hpp"
#include "signals.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace {

/// Write `content` to `path` atomically, or to stdout when `path` is empty.
/// Returns false (with a message) on failure.
bool emit(const std::string& path, const std::string& content) {
  if (path.empty()) {
    std::cout << content;
    std::cout.flush();
    if (!std::cout.good()) {
      std::cerr << "stamp_chaos: write to stdout failed\n";
      return false;
    }
    return true;
  }
  try {
    stamp::report::AtomicFileWriter::write_file(path, content);
  } catch (const std::exception& e) {
    std::cerr << "stamp_chaos: " << e.what() << "\n";
    return false;
  }
  return true;
}

/// `--jobs` as a pool width: 0 means every hardware thread this process may
/// run on.
int pool_width(int jobs) {
  return jobs == 0 ? stamp::core::usable_hardware_threads() : jobs;
}

/// The seeded suite: `stamp_chaos run`.
int run_command(int argc, char** argv) {
  namespace chaos = stamp::chaos;
  int seed = 42;
  int jobs = 1;
  std::string out;
  std::vector<std::string> only;
  bool list = false;

  stamp::tools::Cli cli("stamp_chaos run",
                        "run every scenario once uninjected and once under "
                        "its seeded fault plan, and emit a stamp-chaos/v2 "
                        "report (byte-identical at any --jobs; exit 4 on a "
                        "mismatch)");
  cli.option_int("seed", &seed, "N", "fault plan seed (default 42)")
      .option_int("jobs", &jobs, "N",
                  "trials run concurrently; 0 = hardware (default 1)")
      .option_string("out", &out, "FILE",
                     "write the report here (default stdout)")
      .option_list("only", &only, "NAME", "run just this scenario")
      .flag("list", &list, "list scenario names and exit");
  switch (cli.parse(argc, argv)) {
    case stamp::tools::Cli::Parse::Help:
      return 0;
    case stamp::tools::Cli::Parse::Error:
      return 2;
    case stamp::tools::Cli::Parse::Ok:
      break;
  }
  // Shared tool signal setup — here mostly for the SIGPIPE ignore, which the
  // serve scenario's socket writes depend on.
  stamp::tools::install_shutdown_handlers();

  const std::vector<std::string> names = chaos::suite_names();
  if (list) {
    for (const std::string& n : names) std::cout << n << "\n";
    return 0;
  }
  for (const std::string& n : only) {
    if (std::find(names.begin(), names.end(), n) == names.end()) {
      std::cerr << "stamp_chaos: unknown scenario '" << n << "'\n";
      return 2;
    }
  }
  std::vector<std::string> selected;
  for (const std::string& n : names)
    if (only.empty() || std::find(only.begin(), only.end(), n) != only.end())
      selected.push_back(n);

  chaos::SuiteResult result;
  try {
    stamp::sweep::Pool pool(pool_width(jobs));
    result = chaos::run_suite(static_cast<std::uint64_t>(seed), selected, pool);
  } catch (const std::exception& e) {
    std::cerr << "stamp_chaos: suite failed: " << e.what() << "\n";
    return 1;
  }

  std::ostringstream buffer;
  chaos::write_suite_json(buffer, result);
  if (!emit(out, buffer.str())) return 2;

  bool clean = true;
  for (const chaos::SuiteScenario& s : result.scenarios) {
    if (s.match) continue;
    clean = false;
    std::cerr << "stamp_chaos: " << s.name << ": artifact mismatch"
              << (s.error.empty() ? "" : ": " + s.error) << "\n";
  }
  return clean ? 0 : 4;
}

/// Replay a stamp-schedule/v1 repro file against the scenario and report
/// pass/fail. Exit 0 when the invariant holds, 4 when the repro still
/// violates it (the expected outcome for a minimal repro).
int replay_schedule(
    const std::shared_ptr<const stamp::chaos::Scenario>& scenario,
    const std::string& replay_path, int watchdog_ms, const std::string& out) {
  namespace chaos = stamp::chaos;
  std::ifstream in(replay_path);
  if (!in) {
    std::cerr << "stamp_chaos: cannot read replay file '" << replay_path
              << "'\n";
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  stamp::fault::Schedule schedule;
  try {
    schedule = stamp::fault::Schedule::from_json(text.str());
  } catch (const std::exception& e) {
    std::cerr << "stamp_chaos: bad replay file '" << replay_path
              << "': " << e.what() << "\n";
    return 2;
  }

  const chaos::TrialRun reference = chaos::run_trial(
      scenario, stamp::fault::Schedule{}, watchdog_ms, nullptr);
  if (reference.outcome != chaos::TrialOutcome::Pass) {
    std::cerr << "stamp_chaos: reference run failed: " << reference.error
              << "\n";
    return 1;
  }
  const chaos::TrialRun trial =
      chaos::run_trial(scenario, schedule, watchdog_ms, &reference.artifact);

  std::ostringstream buffer;
  {
    stamp::report::JsonWriter json(buffer);
    json.begin_object();
    json.kv("schema", "stamp-campaign-replay/v1");
    json.kv("scenario", scenario->name());
    json.kv("outcome", chaos::outcome_name(trial.outcome));
    json.kv("reference", reference.artifact);
    json.kv("artifact", trial.artifact);
    json.kv("error", trial.error);
    json.kv("injected", static_cast<long long>(trial.fired.size()));
    json.end_object();
    buffer << "\n";
  }
  if (!emit(out, buffer.str())) return 2;
  return trial.outcome == chaos::TrialOutcome::Pass ? 0 : 4;
}

/// Systematic fault-space exploration: `stamp_chaos campaign`.
int campaign_command(int argc, char** argv) {
  namespace chaos = stamp::chaos;
  std::string scenario_name;
  std::vector<std::string> site_names;
  std::uint64_t budget = 16;
  std::uint64_t pair_budget = 64;
  std::uint64_t max_trials = 2048;
  std::uint64_t shrink_cap = 256;
  int jobs = 1;
  int watchdog_ms = stamp::chaos::kDefaultWatchdogMs;
  bool shrink = false;
  bool list = false;
  std::string repro;
  std::string replay;
  std::string out;

  stamp::tools::Cli cli(
      "stamp_chaos campaign",
      "systematically explore a scenario's fault space: enumerate single and "
      "pair-wise injection schedules, replay each verbatim, check artifact "
      "byte-identity against the uninjected reference, and shrink failures "
      "to minimal replayable repros (stamp-campaign/v1; exit 4 on "
      "violations)");
  cli.option_string("scenario", &scenario_name, "NAME",
                    "scenario to explore (see --list)")
      .option_list("sites", &site_names, "SITE",
                   "restrict enumeration to this fault site")
      .option_u64("budget", &budget, "N",
                  "decision indices swept per (site,key) stream (default 16)")
      .option_u64("pair-budget", &pair_budget, "N",
                  "cap on pair-wise trials (default 64)")
      .option_u64("max-trials", &max_trials, "N",
                  "cap on single-injection trials (default 2048)")
      .option_int("jobs", &jobs, "N",
                  "trials run concurrently; 0 = hardware (default 1)")
      .option_int("watchdog-ms", &watchdog_ms, "MS",
                  "per-trial hang budget (default 20000)")
      .flag("shrink", &shrink, "delta-debug failing schedules to minimal")
      .option_u64("shrink-cap", &shrink_cap, "N",
                  "ddmin probe-trial budget per failure (default 256)")
      .option_string("repro", &repro, "FILE",
                     "write the first shrunk failure as a replayable "
                     "stamp-schedule/v1 repro (implies --shrink)")
      .option_string("replay", &replay, "FILE",
                     "replay a stamp-schedule/v1 repro instead of "
                     "enumerating; exit 4 if it still fails")
      .option_string("out", &out, "FILE",
                     "write the report here (default stdout)")
      .flag("list", &list, "list campaign scenario names and exit");
  switch (cli.parse(argc, argv)) {
    case stamp::tools::Cli::Parse::Help:
      return 0;
    case stamp::tools::Cli::Parse::Error:
      return 2;
    case stamp::tools::Cli::Parse::Ok:
      break;
  }
  stamp::tools::install_shutdown_handlers();

  if (list) {
    for (const std::string& name : chaos::scenario_names())
      std::cout << name << "\n";
    return 0;
  }
  if (scenario_name.empty()) {
    std::cerr << "stamp_chaos: --scenario is required (one of:";
    for (const std::string& name : chaos::scenario_names())
      std::cerr << " " << name;
    std::cerr << ")\n";
    return 2;
  }
  const auto scenario = chaos::make_scenario(scenario_name);
  if (scenario == nullptr) {
    std::cerr << "stamp_chaos: unknown scenario '" << scenario_name
              << "' (valid:";
    for (const std::string& name : chaos::scenario_names())
      std::cerr << " " << name;
    std::cerr << ")\n";
    return 2;
  }

  chaos::CampaignOptions options;
  for (const std::string& name : site_names) {
    const auto site = stamp::fault::site_from_name(name);
    if (!site.has_value()) {
      std::cerr << "stamp_chaos: unknown fault site '" << name
                << "' (valid sites: " << stamp::tools::fault_site_names()
                << ")\n";
      return 2;
    }
    options.sites.push_back(*site);
  }

  if (!replay.empty())
    return replay_schedule(scenario, replay, watchdog_ms, out);

  options.budget = budget;
  options.pair_budget = pair_budget;
  options.max_trials = max_trials;
  options.watchdog_ms = watchdog_ms;
  options.shrink = shrink || !repro.empty();
  options.shrink_trial_cap = shrink_cap;

  chaos::CampaignResult result;
  try {
    const chaos::Campaign campaign(scenario, options);
    stamp::sweep::Pool pool(pool_width(jobs));
    result = campaign.run(pool);
  } catch (const std::exception& e) {
    std::cerr << "stamp_chaos: campaign failed: " << e.what() << "\n";
    return 1;
  }

  std::ostringstream buffer;
  chaos::write_campaign_json(buffer, result);
  if (!emit(out, buffer.str())) return 2;

  if (!repro.empty()) {
    if (result.minimal.empty()) {
      std::cerr << "stamp_chaos: no failures to write to --repro (campaign "
                << "came back clean)\n";
    } else if (!emit(repro, result.minimal.front().minimal.to_json() + "\n")) {
      return 2;
    }
  }

  std::cerr << "stamp_chaos: " << result.scenario << ": "
            << result.trials.size() << " trials (" << result.singles
            << " singles, " << result.pairs << " pairs), "
            << result.failures.size() << " violations\n";
  return result.failures.empty() ? 0 : 4;
}

}  // namespace

int main(int argc, char** argv) {
  stamp::tools::Subcommands commands(
      "stamp_chaos",
      "chaos engineering for the STAMP stack: seeded fault-injection suites "
      "and systematic fault-space campaigns with schedule record/replay");
  commands
      .add("run",
           "run the seeded scenario suite and emit a stamp-chaos/v2 report")
      .add("campaign",
           "explore a scenario's fault space, shrink failures to replayable "
           "repros (stamp-campaign/v1)");
  std::string command;
  switch (commands.select(argc, argv, &command)) {
    case stamp::tools::Cli::Parse::Help:
      return 0;
    case stamp::tools::Cli::Parse::Error:
      return 2;
    case stamp::tools::Cli::Parse::Ok:
      break;
  }
  if (command == "run") return run_command(argc - 1, argv + 1);
  return campaign_command(argc - 1, argv + 1);
}
