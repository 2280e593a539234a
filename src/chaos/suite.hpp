#pragma once
/// \file suite.hpp
/// \brief The seeded chaos suite behind `stamp_chaos run`: every scenario
///        that arms at least one site spec, run once uninjected and once
///        under `FaultPlan{seed, specs}`, judged by artifact byte-identity.
///
/// Both trials of a scenario go through `run_trial`, concurrently on a
/// `sweep::Pool`. Fault decisions are keyed by logical actor (process, task,
/// request, shard, grid index), never by thread, and the report holds no
/// timings or worker counts, so `stamp-chaos/v2` is byte-identical at any
/// pool width.

#include "chaos/campaign.hpp"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace stamp::chaos {

/// Registered scenarios whose declared specs arm at least one site, in
/// registry order — the suite. Scenarios that only expose sites to campaign
/// enumeration (`seeded_probe`) are left out.
[[nodiscard]] std::vector<std::string> suite_names();

struct SuiteScenario {
  std::string name;
  /// Both trials passed and the injected artifact equals the reference's.
  bool match = false;
  std::string artifact;  ///< the injected trial's artifact
  /// Injections fired in the injected trial, by site (declaration order).
  std::vector<std::pair<std::string, std::uint64_t>> faults;
  std::string error;  ///< why a trial errored or hung; not serialized
};

struct SuiteResult {
  std::uint64_t seed = 0;
  std::vector<SuiteScenario> scenarios;  ///< in `names` order
};

/// Run the suite over `names` (each must be a registered scenario) with all
/// 2 x |names| trials spread over `pool`. Throws std::invalid_argument for
/// an unknown name. Each trial gets the `kDefaultWatchdogMs` hang budget.
[[nodiscard]] SuiteResult run_suite(std::uint64_t seed,
                                    const std::vector<std::string>& names,
                                    sweep::Pool& pool);

/// Serialize as the `stamp-chaos/v2` JSON document (newline-terminated):
/// `{schema, seed, scenarios:[{name, match, artifact, faults:{site:n}}]}`.
void write_suite_json(std::ostream& os, const SuiteResult& result);

}  // namespace stamp::chaos
