/// \file scenarios.cpp
/// \brief Every chaos workload: STM storm, bounded retries, mailbox
///        pipeline, supervised failover, degraded simulation, sweep
///        kill-and-resume, the server, and the fleet — each hardened so its
///        resilience machinery *masks* injected faults — plus the test-only
///        `seeded_probe` scenario whose deliberate invariant violation the
///        chaos-campaign CI gate must find and shrink. `stamp_chaos run`
///        arms their declared specs; `stamp_chaos campaign` enumerates them.
///
/// Every artifact contains only fault-masked semantic outcomes (final
/// values, op totals, delivery counts, completion flags, artifact bytes,
/// responses) — never timings, retry counts, or abort counts, which
/// legitimately vary per schedule.

#include "chaos/scenario.hpp"

#include "api/evaluator.hpp"
#include "dist/coordinator.hpp"
#include "fault/injector.hpp"
#include "machine/trace.hpp"
#include "msg/mailbox.hpp"
#include "report/json_parse.hpp"
#include "runtime/executor.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "stm/stm.hpp"
#include "stm/tarray.hpp"
#include "sweep/journal.hpp"
#include "sweep/pool.hpp"
#include "sweep/sweep.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>

namespace stamp::chaos {

namespace {

/// Disjoint-TVar increments across 4 processes with unbounded retries: any
/// injected abort is retried away, so the committed slot values are
/// schedule-independent.
class StmStormScenario final : public Scenario {
 public:
  [[nodiscard]] const char* name() const noexcept override {
    return "stm_storm";
  }

  [[nodiscard]] std::vector<ScenarioSite> sites() const override {
    return {{fault::FaultSite::StmAbort, {.probability = 0.25}}};
  }

  [[nodiscard]] std::string run() const override {
    constexpr int kProcesses = 4;
    constexpr int kTxnsPerProcess = 64;
    Evaluator eval;
    stm::StmRuntime rt;
    stm::TArray<int> slots(kProcesses, 0);
    static_cast<void>(eval.run(
        kProcesses, Distribution::IntraProc, [&](runtime::Context& ctx) {
          for (int i = 0; i < kTxnsPerProcess; ++i) {
            rt.atomically(ctx, [&](stm::Transaction& tx) {
              auto& var = slots.var(static_cast<std::size_t>(ctx.id()));
              tx.write(var, tx.read(var) + 1);
            });
          }
        }));
    std::ostringstream os;
    os << "slots=";
    for (int p = 0; p < kProcesses; ++p) {
      if (p > 0) os << ",";
      os << slots.var(static_cast<std::size_t>(p)).peek();
    }
    os << ";commits=" << rt.stats().commits.load();
    return os.str();
  }
};

/// A single process committing 4 transactions under a bounded retry policy
/// (3 retries per transaction): up to 3 aborts per transaction are masked,
/// so every low-order schedule must still commit the full value.
class StmRetryBudgetScenario final : public Scenario {
 public:
  [[nodiscard]] const char* name() const noexcept override {
    return "stm_retry_budget";
  }

  [[nodiscard]] std::vector<ScenarioSite> sites() const override {
    // Every commit attempt aborts until the per-key cap runs out: exactly
    // the retry budget, which the first transaction absorbs.
    return {{fault::FaultSite::StmAbort,
             {.probability = 1.0, .max_per_key = 3}}};
  }

  [[nodiscard]] std::string run() const override {
    constexpr int kTxns = 4;
    Evaluator eval;
    stm::StmRuntime rt;
    rt.set_retry_policy(fault::RetryPolicy::bounded(3));
    stm::TVar<int> v(0);
    long long exhausted = 0;
    static_cast<void>(
        eval.run(1, Distribution::IntraProc, [&](runtime::Context& ctx) {
          for (int i = 0; i < kTxns; ++i) {
            try {
              rt.atomically(ctx, [&](stm::Transaction& tx) {
                tx.write(v, tx.read(v) + 1);
              });
            } catch (const fault::RetryExhausted&) {
              ++exhausted;
            }
          }
        }));
    std::ostringstream os;
    os << "value=" << v.peek() << ";exhausted=" << exhausted;
    return os.str();
  }
};

/// Four logical tasks each delivering 24 messages through a lossy mailbox
/// with a resend-until-acknowledged protocol (dedup by message id, bounded
/// rounds): drops are resent, duplicates deduplicated, delays waited out —
/// the delivered set is schedule-independent.
class MailboxPipelineScenario final : public Scenario {
 public:
  [[nodiscard]] const char* name() const noexcept override {
    return "mailbox_pipeline";
  }

  [[nodiscard]] std::vector<ScenarioSite> sites() const override {
    return {{fault::FaultSite::MsgDrop, {.probability = 0.2}},
            {fault::FaultSite::MsgDuplicate, {.probability = 0.15}},
            {fault::FaultSite::MsgDelay,
             {.probability = 0.1, .magnitude = /*nanoseconds=*/10000.0}}};
  }

  [[nodiscard]] std::string run() const override {
    constexpr std::size_t kTasks = 4;
    constexpr int kMessages = 24;
    constexpr int kMaxRounds = 64;
    // The tasks run on two workers: decisions are keyed by task (actor), so
    // the artifact and the decision streams do not depend on which worker
    // ran which task. The pool's own thread joins the trial's injector.
    fault::Injector& injector = fault::Injector::current();
    std::vector<int> delivered(kTasks, 0);
    sweep::Pool pool(2);
    pool.parallel_for(kTasks, [&](std::size_t task) {
      const fault::InjectorScope scope(injector);
      const fault::ActorScope actor(100 + task);
      msg::Mailbox<int> box;
      std::vector<bool> received(kMessages, false);
      int missing = kMessages;
      for (int round = 0; round < kMaxRounds && missing > 0; ++round) {
        for (int m = 0; m < kMessages; ++m)
          if (!received[static_cast<std::size_t>(m)]) box.send(m);
        while (const auto got = box.try_receive()) {
          const auto id = static_cast<std::size_t>(*got);
          if (!received[id]) {
            received[id] = true;
            --missing;
          }
        }
      }
      delivered[task] = kMessages - missing;
    });
    std::ostringstream os;
    os << "delivered=";
    for (std::size_t task = 0; task < kTasks; ++task)
      os << (task > 0 ? "," : "") << delivered[task];
    return os.str();
  }
};

/// The supervised executor re-running a fixed op workload around injected
/// fail-stops and stalls (up to 4 failovers): the recorded op totals on the
/// surviving placement are schedule-independent.
class SupervisedFailoverScenario final : public Scenario {
 public:
  [[nodiscard]] const char* name() const noexcept override {
    return "supervised_failover";
  }

  [[nodiscard]] std::vector<ScenarioSite> sites() const override {
    // The suite fail-stops exactly process 2, once.
    return {{fault::FaultSite::ProcFailStop,
             {.probability = 1.0, .max_per_key = 1, .only_key = 2}},
            {fault::FaultSite::ProcStall,
             {.probability = 0.25, .magnitude = /*nanoseconds=*/10000.0}}};
  }

  [[nodiscard]] std::string run() const override {
    constexpr int kProcesses = 4;
    Evaluator eval;
    const auto supervised = eval.run_supervised(
        kProcesses, Distribution::IntraProc,
        [](runtime::Context& ctx) {
          ctx.int_ops(100.0 * (ctx.id() + 1));
          ctx.fp_ops(10.0 * (ctx.id() + 1));
        },
        /*max_failovers=*/4);
    const auto totals = supervised.result.total_counters();
    std::ostringstream os;
    os << "int=" << static_cast<long long>(totals.c_int)
       << ";fp=" << static_cast<long long>(totals.c_fp);
    return os.str();
  }
};

/// Replaying fixed traces on the machine simulator, re-placing around
/// injected core failures (the simulated twin of supervised failover):
/// completion is schedule-independent even when cores die or ops spike.
class SimDegradedScenario final : public Scenario {
 public:
  [[nodiscard]] const char* name() const noexcept override {
    return "sim_degraded";
  }

  [[nodiscard]] std::vector<ScenarioSite> sites() const override {
    // The suite kills simulated core 0, once.
    return {{fault::FaultSite::SimCoreFail,
             {.probability = 1.0, .max_per_key = 1, .only_key = 0}},
            {fault::FaultSite::SimLatencySpike,
             {.probability = 0.4, .magnitude = /*scale=*/4.0}}};
  }

  [[nodiscard]] std::string run() const override {
    constexpr int kProcesses = 4;
    constexpr int kMaxReplacements = 8;
    Evaluator eval;
    const Topology topo = eval.machine().topology;
    std::vector<machine::ProcessTrace> traces(
        static_cast<std::size_t>(kProcesses));
    for (auto& trace : traces) {
      trace.push_back({machine::TraceOp::Kind::Compute, 100.0, false, 20.0});
      trace.push_back({machine::TraceOp::Kind::ShmRead, 50.0, true, 0.0});
      trace.push_back({machine::TraceOp::Kind::Compute, 50.0, false, 0.0});
      trace.push_back({machine::TraceOp::Kind::ShmWrite, 25.0, true, 0.0});
    }
    auto placement = runtime::PlacementMap::one_per_processor(topo, kProcesses);
    std::vector<int> excluded;
    bool completed = false;
    for (int attempt = 0; attempt <= kMaxReplacements && !completed;
         ++attempt) {
      try {
        static_cast<void>(eval.simulate(traces, placement));
        completed = true;
      } catch (const fault::CoreFailure& failure) {
        excluded.push_back(failure.core());
        placement = runtime::PlacementMap::fill_first_excluding(
            topo, kProcesses, excluded);
      }
    }
    std::ostringstream os;
    os << "completed=" << (completed ? 1 : 0) << ";processes=" << kProcesses;
    return os.str();
  }
};

/// A journal path private to one trial (campaign and suite trials run
/// concurrently, in one process or several), removed when the trial ends.
class TrialJournal {
 public:
  explicit TrialJournal(const char* tag)
      : path_((std::filesystem::temp_directory_path() /
               ("stamp_chaos_" + std::string(tag) + "_" +
                std::to_string(::getpid()) + "_" + std::to_string(next()) +
                ".journal"))
                  .string()) {}
  ~TrialJournal() {
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }
  TrialJournal(const TrialJournal&) = delete;
  TrialJournal& operator=(const TrialJournal&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  static std::uint64_t next() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed);
  }
  std::string path_;
};

/// Kill-and-resume through the write-ahead journal: a journaled tiny-grid
/// sweep dies on injected SweepPointFail points, and is resumed from its
/// journal until a run completes. A failing point never stops the others
/// (they are evaluated and journaled first), so each resume only re-runs
/// the points that failed. The artifact is the resumed stamp-sweep/v1
/// bytes, which must equal an uninterrupted run's.
class SweepResumeScenario final : public Scenario {
 public:
  [[nodiscard]] const char* name() const noexcept override {
    return "sweep_resume";
  }

  [[nodiscard]] std::vector<ScenarioSite> sites() const override {
    return {{fault::FaultSite::SweepPointFail, {.probability = 0.2}}};
  }

  [[nodiscard]] std::string run() const override {
    constexpr int kMaxRuns = 32;
    const sweep::SweepConfig cfg = sweep::SweepConfig::tiny();
    const TrialJournal journal_file("sweep_resume");
    for (int attempt = 0; attempt < kMaxRuns; ++attempt) {
      std::optional<sweep::ResumeState> resume;
      if (attempt > 0)
        resume = sweep::ResumeState::load(journal_file.path(), cfg);
      const sweep::ResumeState* from = resume ? &*resume : nullptr;
      sweep::Journal journal(journal_file.path(), cfg, from);
      sweep::SweepOptions opts;
      opts.journal = &journal;
      opts.resume = from;
      try {
        return sweep::to_json(sweep::run_sweep(cfg, nullptr, opts));
      } catch (const fault::SweepPointFailure&) {
        // Killed mid-sweep: the next attempt resumes from the journal.
      }
    }
    throw std::runtime_error("sweep_resume: no clean run after " +
                             std::to_string(kMaxRuns) + " resumes");
  }
};

/// The serving layer under fire: a client pipelines a fixed request mix
/// into an in-process server whose workers crash once per request (the
/// supervisor retries), whose admissions are dropped in transit (the client
/// resends after a quiet 2 s window), and whose sends dawdle. The artifact is
/// the 12 responses in id order, which must equal an uninjected server's.
///
/// All three sites key on the request id, capped at one injection per key,
/// so a resend is never dropped again.
class ServeScenario final : public Scenario {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "serve"; }

  [[nodiscard]] std::vector<ScenarioSite> sites() const override {
    return {{fault::FaultSite::ServeWorkerFail,
             {.probability = 1.0, .max_per_key = 1}},
            {fault::FaultSite::MsgDrop, {.probability = 0.5, .max_per_key = 1}},
            {fault::FaultSite::MsgDelay,
             {.probability = 0.25,
              .magnitude = /*nanoseconds=*/20e6,
              .max_per_key = 1}}};
  }

  [[nodiscard]] std::string run() const override {
    // Point evaluations, both chunk halves of the tiny grid, the placement
    // and search planners, and one burn (load op).
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

    // Default options: an ephemeral port, 2 workers, and a queue deep enough
    // that overload rejection is not under test.
    serve::Server server(serve::ServerOptions{});
    server.start();

    std::vector<std::string> responses(lines.size());
    std::size_t unanswered = lines.size();
    serve::Socket sock = serve::Socket::connect_to(server.port());
    if (!sock.valid())
      throw std::runtime_error("serve: cannot connect to own server");
    const auto send = [&](const std::string& line) {
      if (!sock.write_all(line) || !sock.write_all("\n"))
        throw std::runtime_error("serve: send failed");
    };
    for (const std::string& line : lines) send(line);

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    std::string line;
    while (unanswered > 0 && std::chrono::steady_clock::now() < deadline) {
      const auto status = sock.read_line(line, /*timeout_ms=*/2000);
      if (status == serve::Socket::ReadStatus::Line) {
        const auto root = report::JsonValue::parse(line);
        const auto* id = root.find("id");
        if (id == nullptr) throw std::runtime_error("serve: response sans id");
        const auto idx = static_cast<std::size_t>(id->as_number()) - 1;
        if (idx >= lines.size()) throw std::runtime_error("serve: bad id");
        if (!responses[idx].empty()) continue;  // duplicate; first wins
        responses[idx] = line;
        --unanswered;
      } else if (status == serve::Socket::ReadStatus::Timeout) {
        // Quiet for a whole window: what is still unanswered was dropped at
        // admission. Ask again.
        for (std::size_t i = 0; i < lines.size(); ++i)
          if (responses[i].empty()) send(lines[i]);
      } else {
        throw std::runtime_error("serve: connection lost");
      }
    }
    server.drain();
    if (unanswered > 0)
      throw std::runtime_error("serve: " + std::to_string(unanswered) +
                               " requests unanswered");
    std::string artifact;
    for (const std::string& response : responses) artifact += response + "\n";
    return artifact;
  }
};

/// The distributed tier under fire: a three-worker in-process fleet sweeps
/// the tiny grid, and the worker handed a targeted shard is killed (drained)
/// on the spot. The coordinator must declare it dead, reassign the shard,
/// and fill a journal covering every grid point; the artifact is that
/// journal merged through the resume machinery, exactly as stamp_fleet
/// merges it.
///
/// The kill decision keys on the shard index, never on the worker slot or
/// thread. It is drawn from the trial's injector captured on this thread:
/// `on_dispatch` runs on coordinator threads.
class FleetScenario final : public Scenario {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "fleet"; }

  [[nodiscard]] std::vector<ScenarioSite> sites() const override {
    // The suite kills the worker holding shard 1, once.
    return {{fault::FaultSite::FleetWorkerKill,
             {.probability = 1.0, .max_per_key = 1, .only_key = 1}}};
  }

  [[nodiscard]] std::string run() const override {
    constexpr std::size_t kWorkers = 3;
    const sweep::SweepConfig cfg = sweep::SweepConfig::tiny();
    fault::Injector& injector = fault::Injector::current();

    std::vector<std::unique_ptr<serve::Server>> servers;
    dist::FleetOptions fleet;
    for (std::size_t i = 0; i < kWorkers; ++i) {
      serve::ServerOptions options;
      options.workers = 1;
      options.engine.grid = "tiny";
      servers.push_back(std::make_unique<serve::Server>(options));
      servers.back()->start();
      fleet.ports.push_back(servers.back()->port());
    }

    std::mutex kill_mutex;
    std::vector<bool> alive(kWorkers, true);
    fleet.points_per_shard = 4;    // tiny grid -> 4 shards
    fleet.reconnect_attempts = 4;  // a dead worker is given up quickly
    fleet.reconnect_delay_ms = 10;
    fleet.on_dispatch = [&](std::size_t shard, std::size_t slot) {
      if (!injector.decide(fault::FaultSite::FleetWorkerKill, shard)) return;
      const std::scoped_lock lock(kill_mutex);
      if (!alive[slot]) return;
      alive[slot] = false;
      servers[slot]->drain();  // the shard's request lands on a dead worker
    };

    const TrialJournal journal_file("fleet");
    {
      sweep::Journal journal(journal_file.path(), cfg);
      dist::Coordinator coordinator(cfg, fleet);
      static_cast<void>(coordinator.run(journal, nullptr));
    }
    const sweep::ResumeState merged =
        sweep::ResumeState::load(journal_file.path(), cfg);
    if (merged.completed_points() != merged.grid_points())
      throw std::runtime_error("fleet: journal covers " +
                               std::to_string(merged.completed_points()) +
                               " of " + std::to_string(merged.grid_points()) +
                               " points");
    sweep::SweepOptions opts;
    opts.resume = &merged;
    return sweep::to_json(sweep::run_sweep(cfg, nullptr, opts));
  }
};

/// Test-only scenario with a deliberately-seeded invariant violation: it
/// walks 8 decisions on the hook-less TestProbe site and tolerates exactly
/// one injection — two or more corrupt the artifact. Single-injection
/// sweeps pass, pair-wise trials fail, and the minimal failing schedule is
/// exactly 2 entries — the ground truth the chaos-campaign CI gate asserts
/// the finder and shrinker against.
class SeededProbeScenario final : public Scenario {
 public:
  [[nodiscard]] const char* name() const noexcept override {
    return "seeded_probe";
  }

  [[nodiscard]] std::vector<ScenarioSite> sites() const override {
    return {{fault::FaultSite::TestProbe, {}}};  // campaign-only: never armed
  }

  [[nodiscard]] std::string run() const override {
    constexpr std::uint64_t kSteps = 8;
    auto& injector = fault::Injector::current();
    int hits = 0;
    for (std::uint64_t step = 0; step < kSteps; ++step)
      if (injector.decide(fault::FaultSite::TestProbe, step)) ++hits;
    return hits < 2 ? "state=ok" : "state=corrupted";
  }
};

}  // namespace

std::vector<std::string> scenario_names() {
  return {"stm_storm",           "stm_retry_budget", "mailbox_pipeline",
          "supervised_failover", "sim_degraded",     "sweep_resume",
          "serve",               "fleet",            "seeded_probe"};
}

std::shared_ptr<const Scenario> make_scenario(std::string_view name) {
  if (name == "stm_storm") return std::make_shared<StmStormScenario>();
  if (name == "stm_retry_budget")
    return std::make_shared<StmRetryBudgetScenario>();
  if (name == "mailbox_pipeline")
    return std::make_shared<MailboxPipelineScenario>();
  if (name == "supervised_failover")
    return std::make_shared<SupervisedFailoverScenario>();
  if (name == "sim_degraded") return std::make_shared<SimDegradedScenario>();
  if (name == "sweep_resume") return std::make_shared<SweepResumeScenario>();
  if (name == "serve") return std::make_shared<ServeScenario>();
  if (name == "fleet") return std::make_shared<FleetScenario>();
  if (name == "seeded_probe") return std::make_shared<SeededProbeScenario>();
  return nullptr;
}

}  // namespace stamp::chaos
