// The seeded suite behind `stamp_chaos run`, in process: which scenarios it
// covers, that its stamp-chaos/v2 report does not depend on pool width, and
// that every scenario both gets hit and masks what hit it.

#include "chaos/suite.hpp"

#include "sweep/pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

namespace stamp::chaos {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 7, 42};

/// One suite run per (seed, width), shared by every test here: the serve
/// scenario waits out a 2 s resend window each time it is injected.
const SuiteResult& suite_run(std::uint64_t seed, int width) {
  static std::map<std::pair<std::uint64_t, int>, SuiteResult> runs;
  const auto [it, inserted] = runs.try_emplace({seed, width});
  if (inserted) {
    sweep::Pool pool(width);
    it->second = run_suite(seed, suite_names(), pool);
  }
  return it->second;
}

std::string report(const SuiteResult& result) {
  std::ostringstream os;
  write_suite_json(os, result);
  return os.str();
}

TEST(Suite, CoversEveryScenarioThatArmsASpec) {
  const std::vector<std::string> names = suite_names();
  const std::vector<std::string> all = scenario_names();
  EXPECT_EQ(names.size() + 1, all.size());
  EXPECT_EQ(std::count(names.begin(), names.end(), "seeded_probe"), 0);
  for (const char* moved : {"sweep_resume", "serve", "fleet"})
    EXPECT_EQ(std::count(names.begin(), names.end(), moved), 1) << moved;
}

TEST(Suite, ReportIsByteIdenticalAtPoolWidthsOneAndFour) {
  for (const std::uint64_t seed : kSeeds)
    EXPECT_EQ(report(suite_run(seed, 1)), report(suite_run(seed, 4)))
        << "seed " << seed;
}

TEST(Suite, EveryScenarioMatchesItsReference) {
  for (const std::uint64_t seed : kSeeds) {
    const SuiteResult& result = suite_run(seed, 1);
    ASSERT_EQ(result.scenarios.size(), suite_names().size());
    for (const SuiteScenario& s : result.scenarios)
      EXPECT_TRUE(s.match) << "seed " << seed << " " << s.name << ": "
                           << s.error;
  }
}

TEST(Suite, EveryScenarioFiresAnInjection) {
  std::map<std::string, std::uint64_t> fired;
  for (const std::uint64_t seed : kSeeds)
    for (const SuiteScenario& s : suite_run(seed, 1).scenarios)
      for (const auto& [site, n] : s.faults) fired[s.name] += n;
  for (const std::string& name : suite_names())
    EXPECT_GT(fired[name], 0u) << name << " armed nothing that fired";
}

TEST(Suite, ReportUsesTheV2Schema) {
  const std::string text = report(suite_run(7, 1));
  EXPECT_EQ(text.rfind(R"({"schema":"stamp-chaos/v2","seed":7,"scenarios":[)"
                       R"({"name":"stm_storm","match":1,)"
                       R"("artifact":"slots=64,64,64,64;commits=256",)"
                       R"("faults":{"stm_abort":)",
                       0),
            0u)
      << text.substr(0, 200);
  EXPECT_EQ(text.back(), '\n');
}

}  // namespace
}  // namespace stamp::chaos
