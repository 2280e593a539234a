/// \file stamp_chaos.cpp
/// \brief The chaos harness, two modes:
///
///  - `stamp_chaos run`: seeded chaos suite — arm a deterministic FaultPlan,
///    run the fixed scenario suite through the real subsystems (STM retry
///    loop, mailboxes, supervised executor, machine simulator, governor,
///    server, fleet), and emit a stamp-chaos/v1 JSON report.
///  - `stamp_chaos campaign`: systematic fault-space exploration over one
///    `chaos::Scenario` — enumerate single and pair-wise injection
///    schedules from the observed decision streams, replay each verbatim,
///    check artifact byte-identity against the uninjected reference, shrink
///    failures to minimal replayable repros (`--shrink`), and replay a
///    repro file (`--replay`). Emits stamp-campaign/v1.
///
/// Determinism contract: both reports are pure functions of their inputs
/// (seed / schedule space). Fault decisions are keyed by logical actor
/// (process id, task id, core id), never by thread identity, and the reports
/// contain no wall-clock data and no worker counts — so `--jobs 1` and
/// `--jobs 4` produce byte-identical output. CI diffs exactly that.
///
/// Exit codes: 0 clean, 2 usage error, 4 invariant violations found (or a
/// replayed repro failed — the expected outcome for a repro), 1 internal
/// error.

#include "api/evaluator.hpp"
#include "chaos/chaos.hpp"
#include "dist/dist.hpp"
#include "fault/fault.hpp"
#include "machine/governor.hpp"
#include "machine/trace.hpp"
#include "msg/mailbox.hpp"
#include "report/atomic_file.hpp"
#include "report/json.hpp"
#include "report/json_parse.hpp"
#include "runtime/executor.hpp"
#include "serve/serve.hpp"
#include "stm/stm.hpp"
#include "stm/tarray.hpp"
#include "sweep/journal.hpp"
#include "sweep/pool.hpp"
#include "sweep/sweep.hpp"
#include "cli.hpp"
#include "inject.hpp"
#include "signals.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace {

using stamp::Distribution;
using stamp::Evaluator;
using stamp::Topology;

struct ScenarioReport {
  std::string name;
  /// Integer observations (counts, ids, booleans as 0/1), insertion order.
  std::vector<std::pair<std::string, long long>> counts;
  /// Model quantities (makespans, energies, kappa), insertion order.
  std::vector<std::pair<std::string, double>> numbers;
  /// Injections by site, from the injector (site declaration order).
  std::vector<std::pair<std::string, std::uint64_t>> faults;
};

void snapshot_faults(ScenarioReport& report) {
  report.faults = Evaluator::injector().injected_by_site();
}

/// Disjoint-TVar transactions under a forced-abort storm: every abort is an
/// injected one, so the retry/kappa machinery is exercised with a schedule
/// that is deterministic per process stream.
ScenarioReport scenario_stm_storm(std::uint64_t seed) {
  constexpr int kProcesses = 4;
  constexpr int kTxnsPerProcess = 64;
  stamp::fault::FaultPlan plan;
  plan.seed = seed;
  plan.with(stamp::fault::FaultSite::StmAbort, 0.25);
  Evaluator::with_faults(plan);

  Evaluator eval;
  stamp::stm::StmRuntime rt;
  stamp::stm::TArray<int> slots(kProcesses, 0);
  const auto outcome = eval.run(
      kProcesses, Distribution::IntraProc, [&](stamp::runtime::Context& ctx) {
        for (int i = 0; i < kTxnsPerProcess; ++i) {
          rt.atomically(ctx, [&](stamp::stm::Transaction& tx) {
            auto& var = slots.var(static_cast<std::size_t>(ctx.id()));
            tx.write(var, tx.read(var) + 1);
          });
        }
      });

  ScenarioReport report;
  report.name = "stm_storm";
  report.counts.emplace_back(
      "commits", static_cast<long long>(rt.stats().commits.load()));
  report.counts.emplace_back(
      "aborts", static_cast<long long>(rt.stats().aborts.load()));
  report.counts.emplace_back(
      "max_retries", static_cast<long long>(rt.stats().max_retries.load()));
  report.numbers.emplace_back("kappa_total",
                              outcome.run.total_counters().kappa);
  snapshot_faults(report);
  Evaluator::clear_faults();
  return report;
}

/// A certain-abort site against a bounded retry budget: the first transaction
/// exhausts its budget (RetryExhausted), the per-key injection cap then runs
/// out mid-way through the second, and the rest commit clean.
ScenarioReport scenario_stm_retry_budget(std::uint64_t seed) {
  constexpr int kTxns = 4;
  stamp::fault::FaultPlan plan;
  plan.seed = seed;
  plan.with(stamp::fault::FaultSite::StmAbort, 1.0, 0.0, /*max_per_key=*/5);
  Evaluator::with_faults(plan);

  Evaluator eval;
  stamp::stm::StmRuntime rt;
  rt.set_retry_policy(stamp::fault::RetryPolicy::bounded(3));
  stamp::stm::TVar<int> v(0);
  long long exhausted = 0;
  const auto outcome =
      eval.run(1, Distribution::IntraProc, [&](stamp::runtime::Context& ctx) {
        for (int i = 0; i < kTxns; ++i) {
          try {
            rt.atomically(ctx, [&](stamp::stm::Transaction& tx) {
              tx.write(v, tx.read(v) + 1);
            });
          } catch (const stamp::fault::RetryExhausted&) {
            ++exhausted;
          }
        }
      });
  static_cast<void>(outcome);

  ScenarioReport report;
  report.name = "stm_retry_budget";
  report.counts.emplace_back(
      "commits", static_cast<long long>(rt.stats().commits.load()));
  report.counts.emplace_back(
      "aborts", static_cast<long long>(rt.stats().aborts.load()));
  report.counts.emplace_back("retry_exhausted", exhausted);
  report.counts.emplace_back("committed_value",
                             static_cast<long long>(v.peek()));
  snapshot_faults(report);
  Evaluator::clear_faults();
  return report;
}

/// Independent mailbox tasks fanned out over a work-stealing pool. Each task
/// scopes its own actor key, so drop/delay/duplicate decisions follow the
/// task, not the worker thread — this is the scenario that proves the
/// any-worker-count determinism guarantee.
ScenarioReport scenario_mailbox_pipeline(std::uint64_t seed, int jobs) {
  constexpr std::size_t kTasks = 16;
  constexpr int kMessagesPerTask = 32;
  stamp::fault::FaultPlan plan;
  plan.seed = seed;
  plan.with(stamp::fault::FaultSite::MsgDrop, 0.2);
  plan.with(stamp::fault::FaultSite::MsgDuplicate, 0.15);
  plan.with(stamp::fault::FaultSite::MsgDelay, 0.1, /*magnitude=*/1000.0);
  Evaluator::with_faults(plan);

  std::vector<long long> delivered(kTasks, 0);
  stamp::sweep::Pool pool(jobs);
  pool.parallel_for(kTasks, [&](std::size_t task) {
    const stamp::fault::ActorScope actor(100 + task);
    stamp::msg::Mailbox<int> box;
    for (int m = 0; m < kMessagesPerTask; ++m) box.send(m);
    while (box.try_receive()) ++delivered[task];
  });

  long long total_delivered = 0;
  for (const long long d : delivered) total_delivered += d;

  ScenarioReport report;
  report.name = "mailbox_pipeline";
  report.counts.emplace_back(
      "sent", static_cast<long long>(kTasks) * kMessagesPerTask);
  report.counts.emplace_back("delivered", total_delivered);
  snapshot_faults(report);
  Evaluator::clear_faults();
  return report;
}

/// Fail-stop exactly process 2 once; the supervised executor retires its
/// processor and re-runs on the survivors. The surviving run's counters must
/// equal a fault-free reference run on the same surviving placement.
ScenarioReport scenario_supervised_failover(std::uint64_t seed) {
  constexpr int kProcesses = 4;
  stamp::fault::FaultPlan plan;
  plan.seed = seed;
  plan.with(stamp::fault::FaultSite::ProcFailStop, 1.0, 0.0,
            /*max_per_key=*/1, /*only_key=*/2);
  Evaluator::with_faults(plan);

  const auto body = [](stamp::runtime::Context& ctx) {
    ctx.int_ops(100.0 * (ctx.id() + 1));
    ctx.fp_ops(10.0 * (ctx.id() + 1));
  };
  Evaluator eval;
  const auto supervised =
      eval.run_supervised(kProcesses, Distribution::IntraProc, body);

  ScenarioReport report;
  report.name = "supervised_failover";
  snapshot_faults(report);
  Evaluator::clear_faults();

  const auto reference =
      stamp::runtime::run_processes(supervised.placement, body);
  const auto got = supervised.result.total_counters();
  const auto want = reference.total_counters();
  const bool matches = got.c_int == want.c_int && got.c_fp == want.c_fp;

  report.counts.emplace_back("failed_over", supervised.failed_over() ? 1 : 0);
  report.counts.emplace_back("failed_process",
                             supervised.failed_processes.empty()
                                 ? -1
                                 : supervised.failed_processes.front());
  report.counts.emplace_back(
      "excluded_processor", supervised.excluded_processors.empty()
                                ? -1
                                : supervised.excluded_processors.front());
  report.counts.emplace_back("matches_reference", matches ? 1 : 0);
  report.numbers.emplace_back("total_int_ops", got.c_int);
  return report;
}

/// Kill simulated core 0 (replay throws CoreFailure), re-place around it,
/// and replay under latency spikes: the degraded makespan is the price of
/// surviving the failure.
ScenarioReport scenario_sim_degraded(std::uint64_t seed) {
  constexpr int kProcesses = 4;
  stamp::fault::FaultPlan plan;
  plan.seed = seed;
  plan.with(stamp::fault::FaultSite::SimCoreFail, 1.0, 0.0, /*max_per_key=*/1,
            /*only_key=*/0);
  plan.with(stamp::fault::FaultSite::SimLatencySpike, 0.4, /*magnitude=*/4.0);
  Evaluator::with_faults(plan);

  Evaluator eval;
  const Topology topo = eval.machine().topology;
  std::vector<stamp::machine::ProcessTrace> traces(
      static_cast<std::size_t>(kProcesses));
  for (auto& trace : traces) {
    trace.push_back(
        {stamp::machine::TraceOp::Kind::Compute, 100.0, false, 20.0});
    trace.push_back({stamp::machine::TraceOp::Kind::ShmRead, 50.0, true, 0.0});
    trace.push_back({stamp::machine::TraceOp::Kind::Compute, 50.0, false, 0.0});
    trace.push_back({stamp::machine::TraceOp::Kind::ShmWrite, 25.0, true, 0.0});
  }

  long long failed_core = -1;
  stamp::machine::SimResult result;
  auto placement =
      stamp::runtime::PlacementMap::one_per_processor(topo, kProcesses);
  try {
    result = eval.simulate(traces, placement);
  } catch (const stamp::fault::CoreFailure& failure) {
    failed_core = failure.core();
    placement = stamp::runtime::PlacementMap::fill_first_excluding(
        topo, kProcesses, {failure.core()});
    result = eval.simulate(traces, placement);
  }

  ScenarioReport report;
  report.name = "sim_degraded";
  report.counts.emplace_back("failed_core", failed_core);
  report.numbers.emplace_back("makespan", result.makespan);
  report.numbers.emplace_back("energy", result.energy);
  snapshot_faults(report);
  Evaluator::clear_faults();
  return report;
}

/// No injection: the governor's graceful-degradation lever alone. A per-core
/// cap worth 3 threads of nominal power on a 4-thread core must shed exactly
/// one thread — the paper's 3-of-4-threads conclusion.
ScenarioReport scenario_governor_degrade(std::uint64_t seed) {
  static_cast<void>(seed);
  Evaluator eval;
  const Topology topo = eval.machine().topology;
  stamp::PowerEnvelope envelope;
  envelope.per_processor = 3.0;  // 3x the per-thread nominal power below
  const auto degraded =
      stamp::machine::degrade_threads(1.0, topo, envelope);

  ScenarioReport report;
  report.name = "governor_degrade";
  report.counts.emplace_back("threads_per_processor",
                             degraded.threads_per_processor);
  report.counts.emplace_back("degraded", degraded.degraded ? 1 : 0);
  report.counts.emplace_back("feasible", degraded.feasible ? 1 : 0);
  report.numbers.emplace_back("min_frequency",
                              degraded.governor.min_frequency_used);
  report.numbers.emplace_back("worst_slowdown",
                              degraded.governor.worst_slowdown);
  return report;
}

/// Kill-and-resume through the write-ahead journal: a journaled tiny-grid
/// sweep dies on an injected SweepPointFail, the journal is reloaded, and the
/// resumed run must reproduce the clean reference artifact byte-for-byte.
/// The pool drains every non-failing point before the failure surfaces, so
/// `replayed` (= grid points minus injected failures) is deterministic at any
/// --jobs — which keeps the report under the byte-identical contract.
ScenarioReport scenario_sweep_resume(std::uint64_t seed, int jobs) {
  namespace sw = stamp::sweep;
  const sw::SweepConfig cfg = sw::SweepConfig::tiny();
  sw::Pool pool(jobs);
  const std::string want = sw::to_json(sw::run_sweep(cfg, &pool));

  const std::string journal_path =
      (std::filesystem::temp_directory_path() /
       ("stamp_chaos_sweep_resume_" + std::to_string(seed) + "_" +
        std::to_string(jobs) + ".journal"))
          .string();
  std::filesystem::remove(journal_path);

  stamp::fault::FaultPlan plan;
  plan.seed = seed;
  plan.with(stamp::fault::FaultSite::SweepPointFail, 0.2);
  Evaluator::with_faults(plan);

  long long first_run_failed = 0;
  {
    sw::Journal journal(journal_path, cfg);
    sw::SweepOptions opts;
    opts.journal = &journal;
    try {
      static_cast<void>(sw::run_sweep(cfg, &pool, opts));
    } catch (const stamp::fault::SweepPointFailure&) {
      // Which failing point surfaces first is scheduling-dependent, so the
      // report records only that the run failed, never the index.
      first_run_failed = 1;
    }
  }

  ScenarioReport report;
  report.name = "sweep_resume";
  snapshot_faults(report);
  Evaluator::clear_faults();  // the resumed run must evaluate cleanly

  const sw::ResumeState resume = sw::ResumeState::load(journal_path, cfg);
  sw::SweepOptions opts;
  opts.resume = &resume;
  const sw::SweepResult resumed = sw::run_sweep(cfg, &pool, opts);
  std::filesystem::remove(journal_path);

  report.counts.emplace_back("first_run_failed", first_run_failed);
  report.counts.emplace_back("replayed",
                             static_cast<long long>(resume.completed_points()));
  report.counts.emplace_back(
      "evaluated_after_resume",
      static_cast<long long>(resumed.records.size() -
                             resume.completed_points()));
  report.counts.emplace_back("match", sw::to_json(resumed) == want ? 1 : 0);
  return report;
}

/// The serving layer under fire: every request's worker crashes once (the
/// supervisor retries it), half the admissions are dropped in transit (the
/// client resends them), and some sends dawdle — yet every response must be
/// byte-identical to an uninjected engine's answer, nothing may hang, and
/// the drain must come back clean with zero overload rejections.
///
/// Determinism: all three sites key on the request id, capped at one
/// injection per key, so the drop set, the crash count, and the resend set
/// are pure functions of the seed. The client's retry interval is long
/// enough that surviving responses land first, which keeps the resend set
/// exactly equal to the drop set. Nothing timing-dependent is reported.
ScenarioReport scenario_serve(std::uint64_t seed) {
  namespace sv = stamp::serve;
  // A fixed request mix over the tiny grid: point evaluations, both chunk
  // halves, the placement and search planners, and one burn (load op).
  const std::vector<std::string> lines = {
      R"({"id":1,"op":"evaluate","index":0})",
      R"({"id":2,"op":"evaluate","index":7})",
      R"({"id":3,"op":"evaluate","index":15})",
      R"({"id":4,"op":"sweep_chunk","begin":0,"end":8})",
      R"({"id":5,"op":"sweep_chunk","begin":8,"end":16})",
      R"({"id":6,"op":"best_placement","processes":2})",
      R"({"id":7,"op":"best_placement","processes":8})",
      R"({"id":8,"op":"search","method":"bnb","seed":7})",
      R"({"id":9,"op":"search","method":"anneal","seed":7})",
      R"({"id":10,"op":"search","method":"exhaustive"})",
      R"({"id":11,"op":"burn","busy_ms":20})",
      R"({"id":12,"op":"evaluate","index":3})",
  };

  // Ground truth from an uninjected twin engine: the wire responses under
  // chaos must match these byte for byte.
  Evaluator::clear_faults();
  std::vector<std::string> expected;
  expected.reserve(lines.size());
  {
    sv::ServeEngine truth{sv::EngineOptions{}};
    for (const std::string& line : lines)
      expected.push_back(truth.handle(sv::parse_request(line), nullptr));
  }

  stamp::fault::FaultPlan plan;
  plan.seed = seed;
  plan.with(stamp::fault::FaultSite::ServeWorkerFail, 1.0, 0, 1);
  plan.with(stamp::fault::FaultSite::MsgDrop, 0.5, 0, 1);
  plan.with(stamp::fault::FaultSite::MsgDelay, 0.25, 20e6, 1);
  Evaluator::with_faults(plan);

  sv::ServerOptions options;
  options.port = 0;
  options.workers = 2;        // fixed: the report must not depend on --jobs
  options.queue_depth = 64;   // ample: overload rejection is not under test
  sv::Server server(options);
  server.start();

  std::vector<std::string> responses(lines.size());
  std::vector<bool> answered(lines.size(), false);
  std::size_t unanswered = lines.size();
  long long resent = 0;
  {
    sv::Socket sock = sv::Socket::connect_to(server.port());
    if (!sock.valid())
      throw std::runtime_error("serve: cannot connect to own server");
    for (const std::string& line : lines)
      if (!sock.write_all(line) || !sock.write_all("\n"))
        throw std::runtime_error("serve: send failed");

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    std::string line;
    while (unanswered > 0 && std::chrono::steady_clock::now() < deadline) {
      const auto status = sock.read_line(line, /*timeout_ms=*/2000);
      if (status == sv::Socket::ReadStatus::Line) {
        const auto root = stamp::report::JsonValue::parse(line);
        const auto* idv = root.find("id");
        if (idv == nullptr) throw std::runtime_error("serve: response sans id");
        const auto idx = static_cast<std::size_t>(idv->as_number()) - 1;
        if (idx >= lines.size()) throw std::runtime_error("serve: bad id");
        if (answered[idx]) continue;  // duplicate delivery; first wins
        answered[idx] = true;
        responses[idx] = line;
        --unanswered;
      } else if (status == sv::Socket::ReadStatus::Timeout) {
        // Quiet for a whole retry window: everything still unanswered was
        // dropped at admission. Ask again.
        for (std::size_t i = 0; i < lines.size(); ++i) {
          if (answered[i]) continue;
          ++resent;
          if (!sock.write_all(lines[i]) || !sock.write_all("\n"))
            throw std::runtime_error("serve: resend failed");
        }
      } else {
        throw std::runtime_error("serve: connection lost");
      }
    }
  }
  server.drain();
  const sv::ServerStats stats = server.stats();

  long long matched = 0;
  for (std::size_t i = 0; i < lines.size(); ++i)
    if (answered[i] && responses[i] == expected[i]) ++matched;

  ScenarioReport report;
  report.name = "serve";
  report.counts.emplace_back("requests",
                             static_cast<long long>(lines.size()));
  report.counts.emplace_back(
      "answered", static_cast<long long>(lines.size() - unanswered));
  report.counts.emplace_back("matched", matched);
  report.counts.emplace_back("resent", resent);
  report.counts.emplace_back("worker_restarts",
                             static_cast<long long>(stats.worker_restarts));
  report.counts.emplace_back("rejected_overload",
                             static_cast<long long>(stats.rejected_overload));
  report.counts.emplace_back("deadline_hits",
                             static_cast<long long>(stats.deadline_hits));
  snapshot_faults(report);
  Evaluator::clear_faults();
  return report;
}

/// The distributed tier under fire: a three-worker in-process fleet sweeps
/// the tiny grid, and the worker holding shard 1 is killed (drained) the
/// moment that shard is handed to it. The coordinator must declare the
/// worker dead, hand the shard to a survivor, and still merge a journal
/// whose replay matches the clean single-node artifact byte for byte.
///
/// Determinism: the kill decision keys on the *shard index* (FleetWorkerKill,
/// only_key=1, max one injection), never on the worker slot or thread, so
/// exactly one worker dies no matter which slot drew the short straw. Only
/// schedule-independent quantities are reported — reconnect-cycle counts are
/// timing-dependent and deliberately left out.
ScenarioReport scenario_fleet(std::uint64_t seed) {
  namespace sw = stamp::sweep;
  namespace sv = stamp::serve;
  const sw::SweepConfig cfg = sw::SweepConfig::tiny();

  // Reference artifact from a clean single-node sweep, before arming faults.
  Evaluator::clear_faults();
  sw::Pool pool(1);
  const std::string want = sw::to_json(sw::run_sweep(cfg, &pool));

  stamp::fault::FaultPlan plan;
  plan.seed = seed;
  plan.with(stamp::fault::FaultSite::FleetWorkerKill, 1.0, 0.0,
            /*max_per_key=*/1, /*only_key=*/1);
  Evaluator::with_faults(plan);

  constexpr std::size_t kWorkers = 3;
  std::vector<std::unique_ptr<sv::Server>> servers;
  stamp::dist::FleetOptions fleet;
  for (std::size_t i = 0; i < kWorkers; ++i) {
    sv::ServerOptions options;
    options.port = 0;
    options.workers = 1;
    options.engine.grid = "tiny";
    servers.push_back(std::make_unique<sv::Server>(options));
    servers.back()->start();
    fleet.ports.push_back(servers.back()->port());
  }

  std::mutex kill_mutex;
  std::vector<bool> alive(kWorkers, true);
  long long workers_killed = 0;
  fleet.points_per_shard = 4;   // tiny grid -> 4 shards, so the kill lands
  fleet.reconnect_attempts = 4;  // the dead worker should give up quickly
  fleet.reconnect_delay_ms = 10;
  fleet.on_dispatch = [&](std::size_t shard, std::size_t slot) {
    const auto hit = stamp::fault::Injector::global().decide(
        stamp::fault::FaultSite::FleetWorkerKill, shard);
    if (!hit.has_value()) return;
    std::lock_guard<std::mutex> lock(kill_mutex);
    if (!alive[slot]) return;
    alive[slot] = false;
    ++workers_killed;
    servers[slot]->drain();  // the shard's request lands on a dead worker
  };

  const std::string journal_path =
      (std::filesystem::temp_directory_path() /
       ("stamp_chaos_fleet_" + std::to_string(seed) + ".journal"))
          .string();
  std::filesystem::remove(journal_path);

  stamp::dist::FleetStats fstats;
  {
    sw::Journal journal(journal_path, cfg);
    stamp::dist::Coordinator coordinator(cfg, fleet);
    fstats = coordinator.run(journal, nullptr);
  }

  ScenarioReport report;
  report.name = "fleet";
  snapshot_faults(report);
  Evaluator::clear_faults();

  for (std::size_t i = 0; i < kWorkers; ++i)
    if (alive[i]) servers[i]->drain();

  // Merge exactly like stamp_fleet does: replay the journal through the
  // normal resume machinery and compare against the clean artifact.
  const sw::ResumeState merged = sw::ResumeState::load(journal_path, cfg);
  sw::SweepOptions opts;
  opts.resume = &merged;
  const std::string got = sw::to_json(sw::run_sweep(cfg, &pool, opts));
  std::filesystem::remove(journal_path);

  report.counts.emplace_back("workers", static_cast<long long>(kWorkers));
  report.counts.emplace_back("shards", static_cast<long long>(fstats.shards));
  report.counts.emplace_back("completed",
                             static_cast<long long>(fstats.completed));
  report.counts.emplace_back("reassigned",
                             static_cast<long long>(fstats.reassigned));
  report.counts.emplace_back("worker_failures",
                             static_cast<long long>(fstats.worker_failures));
  report.counts.emplace_back("records", static_cast<long long>(fstats.records));
  report.counts.emplace_back("workers_killed", workers_killed);
  report.counts.emplace_back("match", got == want ? 1 : 0);
  return report;
}

void write_report(std::ostream& os, std::uint64_t seed,
                  const std::vector<ScenarioReport>& scenarios) {
  stamp::report::JsonWriter json(os);
  json.begin_object();
  json.kv("schema", "stamp-chaos/v1");
  json.kv("seed", static_cast<long long>(seed));
  json.key("scenarios").begin_array();
  for (const ScenarioReport& s : scenarios) {
    json.begin_object();
    json.kv("name", s.name);
    for (const auto& [k, v] : s.counts) json.kv(k, v);
    for (const auto& [k, v] : s.numbers) json.kv(k, v);
    json.key("faults").begin_object();
    for (const auto& [site, n] : s.faults)
      json.kv(site, static_cast<long long>(n));
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  os << "\n";
}

/// The classic seeded suite: `stamp_chaos run`.
int run_command(int argc, char** argv) {
  int seed = 42;
  int jobs = 1;
  std::string out;
  std::vector<std::string> only;
  bool list = false;

  stamp::tools::Cli cli("stamp_chaos run",
                        "run seeded fault-injection campaigns and emit a "
                        "stamp-chaos/v1 report (byte-identical at any --jobs)");
  cli.option_int("seed", &seed, "N", "fault plan seed (default 42)")
      .option_int("jobs", &jobs, "N",
                  "pool width for fan-out scenarios; 0 = hardware")
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

  if (jobs == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs = hw > 0 ? static_cast<int>(hw) : 1;
  }

  const std::vector<std::string> names = {
      "stm_storm",       "stm_retry_budget",    "mailbox_pipeline",
      "supervised_failover", "sim_degraded",    "governor_degrade",
      "sweep_resume",    "serve",               "fleet"};
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
  const auto selected = [&](const std::string& n) {
    return only.empty() || std::find(only.begin(), only.end(), n) != only.end();
  };

  const auto useed = static_cast<std::uint64_t>(seed);
  std::vector<ScenarioReport> reports;
  try {
    if (selected("stm_storm")) reports.push_back(scenario_stm_storm(useed));
    if (selected("stm_retry_budget"))
      reports.push_back(scenario_stm_retry_budget(useed));
    if (selected("mailbox_pipeline"))
      reports.push_back(scenario_mailbox_pipeline(useed, jobs));
    if (selected("supervised_failover"))
      reports.push_back(scenario_supervised_failover(useed));
    if (selected("sim_degraded"))
      reports.push_back(scenario_sim_degraded(useed));
    if (selected("governor_degrade"))
      reports.push_back(scenario_governor_degrade(useed));
    if (selected("sweep_resume"))
      reports.push_back(scenario_sweep_resume(useed, jobs));
    if (selected("serve")) reports.push_back(scenario_serve(useed));
    if (selected("fleet")) reports.push_back(scenario_fleet(useed));
  } catch (const std::exception& e) {
    stamp::Evaluator::clear_faults();
    std::cerr << "stamp_chaos: scenario failed: " << e.what() << "\n";
    return 1;
  }

  std::ostringstream buffer;
  write_report(buffer, useed, reports);
  if (out.empty()) {
    std::cout << buffer.str();
    std::cout.flush();
    if (!std::cout.good()) {
      std::cerr << "stamp_chaos: write to stdout failed\n";
      return 2;
    }
  } else {
    try {
      stamp::report::AtomicFileWriter::write_file(out, buffer.str());
    } catch (const std::exception& e) {
      std::cerr << "stamp_chaos: " << e.what() << "\n";
      return 2;
    }
  }
  return 0;
}

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
  int watchdog_ms = 20000;
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

  if (jobs == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs = hw > 0 ? static_cast<int>(hw) : 1;
  }

  chaos::CampaignResult result;
  try {
    const chaos::Campaign campaign(scenario, options);
    stamp::sweep::Pool pool(jobs);
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
           "run the seeded scenario suite and emit a stamp-chaos/v1 report")
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
