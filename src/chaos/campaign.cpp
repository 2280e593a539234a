#include "chaos/campaign.hpp"

#include "chaos/shrink.hpp"
#include "fault/retry.hpp"
#include "report/json.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <ostream>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

namespace stamp::chaos {

const char* outcome_name(TrialOutcome outcome) noexcept {
  switch (outcome) {
    case TrialOutcome::Pass: return "pass";
    case TrialOutcome::Fail: return "fail";
    case TrialOutcome::Error: return "error";
    case TrialOutcome::Hang: return "hang";
  }
  return "unknown";
}

TrialRun run_trial(const std::shared_ptr<const Scenario>& scenario,
                   const TrialArming& arming, int watchdog_ms,
                   const std::string* reference) {
  // The injector and completion state are shared_ptrs: a hung trial's thread
  // is detached, and whatever it still touches must outlive this frame.
  auto injector = std::make_shared<fault::Injector>();
  if (const auto* plan = std::get_if<fault::FaultPlan>(&arming))
    injector->arm(*plan);
  else
    injector->arm_replay(std::get<fault::Schedule>(arming));

  struct Completion {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    bool errored = false;
    std::string artifact;
    std::string error;
  };
  auto completion = std::make_shared<Completion>();

  std::thread worker([scenario, injector, completion] {
    // The override makes every hook site this thread (and every thread the
    // scenario starts) reaches draw from the trial's private injector.
    const fault::InjectorScope scope(*injector);
    std::string artifact;
    std::string error;
    bool errored = false;
    try {
      artifact = scenario->run();
    } catch (const std::exception& e) {
      errored = true;
      error = e.what();
    } catch (...) {
      errored = true;
      error = "unknown exception";
    }
    {
      const std::scoped_lock lock(completion->mutex);
      completion->done = true;
      completion->errored = errored;
      completion->artifact = std::move(artifact);
      completion->error = std::move(error);
    }
    completion->cv.notify_all();
  });

  bool finished;
  {
    std::unique_lock lock(completion->mutex);
    if (watchdog_ms > 0) {
      // The watchdog clock is the fault layer's own deadline machinery: a
      // RetryState with a deadline-only policy, polled between cv waits.
      fault::RetryPolicy policy;
      policy.deadline = std::chrono::milliseconds(watchdog_ms);
      const fault::RetryState clock(policy);
      while (!completion->done && !clock.deadline_passed())
        completion->cv.wait_for(lock, std::chrono::milliseconds(20));
      finished = completion->done;
    } else {
      completion->cv.wait(lock, [&] { return completion->done; });
      finished = true;
    }
  }

  TrialRun out;
  if (!finished) {
    // The trial is wedged; abandon its thread (the shared_ptr captures keep
    // its state alive) and report the hang.
    worker.detach();
    out.outcome = TrialOutcome::Hang;
    out.error = "watchdog: trial exceeded " + std::to_string(watchdog_ms) +
                "ms";
    out.fired = injector->recorded();
    return out;
  }
  worker.join();

  out.fired = injector->recorded();
  out.streams = injector->observed_streams();
  if (completion->errored) {
    out.outcome = TrialOutcome::Error;
    out.error = completion->error;
    return out;
  }
  out.artifact = completion->artifact;
  out.outcome = (reference == nullptr || out.artifact == *reference)
                    ? TrialOutcome::Pass
                    : TrialOutcome::Fail;
  return out;
}

Campaign::Campaign(std::shared_ptr<const Scenario> scenario,
                   CampaignOptions options)
    : scenario_(std::move(scenario)), options_(std::move(options)) {
  if (scenario_ == nullptr)
    throw std::invalid_argument("Campaign: null scenario");
}

namespace {

/// The sites a campaign enumerates, in a deterministic order: the
/// scenario's declaration order filtered by the request, then requested
/// sites the scenario does not declare (magnitude 0), in request order.
[[nodiscard]] std::vector<ScenarioSite> select_sites(
    const Scenario& scenario, const std::vector<fault::FaultSite>& requested) {
  const std::vector<ScenarioSite> declared = scenario.sites();
  if (requested.empty()) return declared;
  std::vector<ScenarioSite> selected;
  for (const ScenarioSite& sweep : declared)
    if (std::find(requested.begin(), requested.end(), sweep.site) !=
        requested.end())
      selected.push_back(sweep);
  for (const fault::FaultSite site : requested) {
    const auto known = [&](const ScenarioSite& s) { return s.site == site; };
    if (std::find_if(selected.begin(), selected.end(), known) ==
        selected.end())
      selected.push_back(ScenarioSite{site, {}});
  }
  return selected;
}

}  // namespace

CampaignResult Campaign::run(sweep::Pool& pool) const {
  CampaignResult result;
  result.scenario = scenario_->name();
  result.budget = options_.budget;

  // Reference run: empty replay = observe mode. Nothing fires, every
  // decision stream is counted — the census enumeration walks.
  const TrialRun reference =
      run_trial(scenario_, fault::Schedule{}, options_.watchdog_ms, nullptr);
  if (reference.outcome != TrialOutcome::Pass)
    throw std::runtime_error(std::string("campaign: reference run of '") +
                             scenario_->name() + "' failed: " +
                             (reference.error.empty() ? "hang"
                                                      : reference.error));
  result.reference = reference.artifact;

  const std::vector<ScenarioSite> sweeps =
      select_sites(*scenario_, options_.sites);
  for (const ScenarioSite& sweep : sweeps) result.sites.push_back(sweep.site);

  // Phase 1: single-injection schedules — site (selection order), then
  // stream key ascending, then decision index ascending, up to the budget.
  std::vector<fault::Schedule> planned;
  for (const ScenarioSite& sweep : sweeps) {
    for (const fault::StreamStats& stream : reference.streams) {
      if (stream.site != sweep.site) continue;
      const std::uint64_t limit = std::min(stream.decisions, options_.budget);
      for (std::uint64_t d = 0; d < limit; ++d) {
        if (planned.size() >= options_.max_trials) {
          ++result.dropped;
          continue;
        }
        fault::Schedule schedule;
        schedule.entries.push_back(fault::ScheduleEntry{
            sweep.site, stream.key, d, sweep.spec.magnitude});
        planned.push_back(std::move(schedule));
      }
    }
  }
  result.singles = planned.size();

  const auto run_batch = [&](std::size_t offset) {
    const std::size_t n = planned.size() - offset;
    pool.parallel_for(n, [&](std::size_t i) {
      const std::size_t t = offset + i;
      const TrialRun run = run_trial(scenario_, planned[t],
                                     options_.watchdog_ms, &result.reference);
      TrialResult& trial = result.trials[t];
      trial.schedule = planned[t];
      trial.fired = run.fired;
      trial.outcome = run.outcome;
      trial.error = run.error;
      if (run.outcome != TrialOutcome::Pass) trial.artifact = run.artifact;
    });
  };

  result.trials.resize(planned.size());
  run_batch(0);

  // Phase 2: guided pairs — combine the injections that provably fire
  // (each single's recorded `fired` entries), i < j order, deduplicated on
  // the canonical combined schedule, capped by pair_budget.
  const std::size_t single_count = planned.size();
  std::set<std::string> seen_pairs;
  for (std::size_t i = 0; i < single_count; ++i) {
    if (result.trials[i].fired.empty()) continue;
    for (std::size_t j = i + 1; j < single_count; ++j) {
      if (result.trials[j].fired.empty()) continue;
      fault::Schedule combined =
          merge_schedules(result.trials[i].fired, result.trials[j].fired);
      if (combined.size() < 2) continue;  // same injection twice
      if (planned.size() - single_count >= options_.pair_budget) {
        ++result.dropped;
        continue;
      }
      if (!seen_pairs.insert(combined.to_json()).second) continue;
      planned.push_back(std::move(combined));
    }
  }
  result.pairs = planned.size() - single_count;
  result.trials.resize(planned.size());
  run_batch(single_count);

  for (std::size_t t = 0; t < result.trials.size(); ++t)
    if (result.trials[t].outcome != TrialOutcome::Pass)
      result.failures.push_back(t);

  // Phase 3: shrink the first few failures to minimal replayable repros.
  if (options_.shrink) {
    const std::size_t limit =
        std::min<std::size_t>(result.failures.size(),
                              static_cast<std::size_t>(std::max(
                                  options_.shrink_failures, 0)));
    for (std::size_t f = 0; f < limit; ++f) {
      const std::size_t t = result.failures[f];
      // Shrink what actually fired when anything did (fired ⊆ planned and
      // is the true cause); fall back to the planned schedule otherwise.
      const fault::Schedule& failing = result.trials[t].fired.empty()
                                           ? result.trials[t].schedule
                                           : result.trials[t].fired;
      const ShrinkResult shrunk =
          shrink_schedule(scenario_, result.reference, failing,
                          options_.watchdog_ms, options_.shrink_trial_cap);
      result.minimal.push_back(
          ShrunkFailure{t, shrunk.minimal, shrunk.trials_used,
                        shrunk.verified});
    }
  }
  return result;
}

namespace {

void write_entries(report::JsonWriter& json, const fault::Schedule& schedule) {
  json.begin_array();
  for (const fault::ScheduleEntry& e : schedule.entries) {
    json.begin_object();
    json.kv("site", fault::site_name(e.site));
    json.kv("key", static_cast<long long>(e.key));
    json.kv("decision", static_cast<long long>(e.decision));
    json.kv("magnitude", e.magnitude);
    json.end_object();
  }
  json.end_array();
}

}  // namespace

void write_campaign_json(std::ostream& os, const CampaignResult& result) {
  report::JsonWriter json(os);
  json.begin_object();
  json.kv("schema", "stamp-campaign/v1");
  json.kv("scenario", result.scenario);
  json.kv("reference", result.reference);
  json.key("sites").begin_array();
  for (const fault::FaultSite site : result.sites)
    json.value(fault::site_name(site));
  json.end_array();
  json.kv("budget", static_cast<long long>(result.budget));
  json.kv("singles", static_cast<long long>(result.singles));
  json.kv("pairs", static_cast<long long>(result.pairs));
  json.kv("dropped", static_cast<long long>(result.dropped));
  json.kv("trials", static_cast<long long>(result.trials.size()));
  json.kv("violations", static_cast<long long>(result.failures.size()));
  json.key("results").begin_array();
  for (std::size_t t = 0; t < result.trials.size(); ++t) {
    const TrialResult& trial = result.trials[t];
    json.begin_object();
    json.kv("trial", static_cast<long long>(t));
    json.kv("outcome", outcome_name(trial.outcome));
    json.key("schedule");
    write_entries(json, trial.schedule);
    json.key("fired");
    write_entries(json, trial.fired);
    if (trial.outcome != TrialOutcome::Pass) {
      json.kv("artifact", trial.artifact);
      json.kv("error", trial.error);
    }
    json.end_object();
  }
  json.end_array();
  json.key("failures").begin_array();
  for (const std::size_t t : result.failures)
    json.value(static_cast<long long>(t));
  json.end_array();
  json.key("minimal").begin_array();
  for (const ShrunkFailure& shrunk : result.minimal) {
    json.begin_object();
    json.kv("trial", static_cast<long long>(shrunk.trial));
    json.kv("entries", static_cast<long long>(shrunk.minimal.size()));
    json.kv("trials_used", static_cast<long long>(shrunk.trials_used));
    json.kv("verified", shrunk.verified ? 1 : 0);
    json.key("schedule");
    write_entries(json, shrunk.minimal);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  os << "\n";
}

}  // namespace stamp::chaos
