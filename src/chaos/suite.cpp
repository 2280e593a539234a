#include "chaos/suite.hpp"

#include "report/json.hpp"

#include <memory>
#include <ostream>
#include <stdexcept>

namespace stamp::chaos {

namespace {

/// The plan the suite arms for `scenario`: every declared spec under `seed`.
fault::FaultPlan suite_plan(const Scenario& scenario, std::uint64_t seed) {
  fault::FaultPlan plan;
  plan.seed = seed;
  for (const ScenarioSite& declared : scenario.sites())
    plan.sites[fault::site_index(declared.site)] = declared.spec;
  return plan;
}

}  // namespace

std::vector<std::string> suite_names() {
  std::vector<std::string> names;
  for (const std::string& name : scenario_names())
    if (suite_plan(*make_scenario(name), 0).any_armed()) names.push_back(name);
  return names;
}

SuiteResult run_suite(std::uint64_t seed,
                      const std::vector<std::string>& names,
                      sweep::Pool& pool) {
  std::vector<std::shared_ptr<const Scenario>> scenarios;
  for (const std::string& name : names) {
    scenarios.push_back(make_scenario(name));
    if (scenarios.back() == nullptr)
      throw std::invalid_argument("run_suite: unknown scenario '" + name +
                                  "'");
  }

  // Trial 2i is scenario i's uninjected reference, trial 2i+1 its seeded
  // run. They are independent, so all of them share the pool.
  std::vector<TrialRun> runs(2 * scenarios.size());
  pool.parallel_for(runs.size(), [&](std::size_t t) {
    const auto& scenario = scenarios[t / 2];
    const TrialArming arming =
        t % 2 == 0 ? TrialArming{fault::Schedule{}}
                   : TrialArming{suite_plan(*scenario, seed)};
    runs[t] = run_trial(scenario, arming, kDefaultWatchdogMs, nullptr);
  });

  SuiteResult result;
  result.seed = seed;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const TrialRun& reference = runs[2 * i];
    const TrialRun& injected = runs[2 * i + 1];
    SuiteScenario entry;
    entry.name = names[i];
    entry.match = reference.outcome == TrialOutcome::Pass &&
                  injected.outcome == TrialOutcome::Pass &&
                  injected.artifact == reference.artifact;
    entry.artifact = injected.artifact;
    // `fired` is canonical (ordered by site), so equal sites are adjacent.
    for (const fault::ScheduleEntry& fired : injected.fired.entries) {
      const char* site = fault::site_name(fired.site);
      if (entry.faults.empty() || entry.faults.back().first != site)
        entry.faults.emplace_back(site, 0);
      ++entry.faults.back().second;
    }
    entry.error = !reference.error.empty() ? "reference: " + reference.error
                                           : injected.error;
    result.scenarios.push_back(std::move(entry));
  }
  return result;
}

void write_suite_json(std::ostream& os, const SuiteResult& result) {
  report::JsonWriter json(os);
  json.begin_object();
  json.kv("schema", "stamp-chaos/v2");
  json.kv("seed", static_cast<long long>(result.seed));
  json.key("scenarios").begin_array();
  for (const SuiteScenario& s : result.scenarios) {
    json.begin_object();
    json.kv("name", s.name);
    json.kv("match", s.match ? 1 : 0);
    json.kv("artifact", s.artifact);
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

}  // namespace stamp::chaos
