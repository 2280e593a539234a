#include "chaos/campaign.hpp"

#include "chaos/scenario.hpp"
#include "sweep/pool.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace stamp::chaos {
namespace {

CampaignResult run_campaign(int jobs, bool shrink = false) {
  CampaignOptions options;
  options.shrink = shrink;
  const Campaign campaign(make_scenario("seeded_probe"), options);
  sweep::Pool pool(jobs);
  return campaign.run(pool);
}

TEST(Campaign, TrialAgainstMatchingReferencePasses) {
  const auto scenario = make_scenario("seeded_probe");
  const TrialRun reference =
      run_trial(scenario, fault::Schedule{}, /*watchdog_ms=*/20000, nullptr);
  ASSERT_EQ(reference.outcome, TrialOutcome::Pass);
  EXPECT_EQ(reference.artifact, "state=ok");
  EXPECT_TRUE(reference.fired.empty());
  EXPECT_FALSE(reference.streams.empty());  // observe mode walked the streams

  const TrialRun again = run_trial(scenario, fault::Schedule{},
                                   /*watchdog_ms=*/20000, &reference.artifact);
  EXPECT_EQ(again.outcome, TrialOutcome::Pass);
}

TEST(Campaign, TrialDetectsInvariantViolation) {
  const auto scenario = make_scenario("seeded_probe");
  fault::Schedule pair;
  pair.entries.push_back({fault::FaultSite::TestProbe, 0, 0, 0.0});
  pair.entries.push_back({fault::FaultSite::TestProbe, 1, 0, 0.0});
  const std::string reference = "state=ok";
  const TrialRun trial =
      run_trial(scenario, pair, /*watchdog_ms=*/20000, &reference);
  EXPECT_EQ(trial.outcome, TrialOutcome::Fail);
  EXPECT_EQ(trial.artifact, "state=corrupted");
  EXPECT_EQ(trial.fired.size(), 2u);  // both forced injections landed
}

TEST(Campaign, FindsTheSeededViolationInPairs) {
  const CampaignResult result = run_campaign(/*jobs=*/1);
  EXPECT_EQ(result.scenario, "seeded_probe");
  EXPECT_EQ(result.reference, "state=ok");
  // 8 TestProbe streams, budget 16 but only 1 decision each: 8 singles, all
  // passing; every pair of singles corrupts the probe.
  EXPECT_EQ(result.singles, 8u);
  EXPECT_GT(result.pairs, 0u);
  EXPECT_EQ(result.failures.size(), result.pairs);
  for (const std::size_t index : result.failures) {
    EXPECT_EQ(result.trials[index].outcome, TrialOutcome::Fail);
    EXPECT_EQ(result.trials[index].schedule.size(), 2u);
  }
}

TEST(Campaign, ArtifactIsByteIdenticalAcrossJobCounts) {
  const CampaignResult serial = run_campaign(/*jobs=*/1, /*shrink=*/true);
  const CampaignResult parallel = run_campaign(/*jobs=*/4, /*shrink=*/true);
  std::ostringstream a;
  std::ostringstream b;
  write_campaign_json(a, serial);
  write_campaign_json(b, parallel);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Campaign, ShrinksFailuresToTwoEntryVerifiedRepros) {
  const CampaignResult result = run_campaign(/*jobs=*/4, /*shrink=*/true);
  ASSERT_FALSE(result.minimal.empty());
  for (const ShrunkFailure& shrunk : result.minimal) {
    EXPECT_EQ(shrunk.minimal.size(), 2u);
    EXPECT_TRUE(shrunk.verified);
    EXPECT_GT(shrunk.trials_used, 0u);
  }
}

TEST(Campaign, CleanScenarioReportsNoViolations) {
  CampaignOptions options;
  options.budget = 2;
  options.pair_budget = 4;
  const Campaign campaign(make_scenario("stm_retry_budget"), options);
  sweep::Pool pool(2);
  const CampaignResult result = campaign.run(pool);
  EXPECT_GT(result.trials.size(), 0u);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_TRUE(result.minimal.empty());
}

TEST(Campaign, MovedScenariosComeBackCleanUnderABoundedCampaign) {
  for (const char* name : {"sweep_resume", "fleet"}) {
    CampaignOptions options;
    options.budget = 2;
    options.pair_budget = 4;
    const Campaign campaign(make_scenario(name), options);
    sweep::Pool pool(2);
    const CampaignResult result = campaign.run(pool);
    EXPECT_GT(result.singles, 0u) << name;
    EXPECT_GT(result.pairs, 0u) << name;
    EXPECT_TRUE(result.failures.empty()) << name;
  }
}

TEST(Campaign, ServeTrialReplaysAWorkerFailOnServerThreads) {
  // The crash decision is taken on a server worker thread, not the trial
  // thread: it fires only if the server draws from the trial's injector.
  fault::Schedule crash;
  crash.entries.push_back({fault::FaultSite::ServeWorkerFail, /*key=*/3,
                           /*decision=*/0, /*magnitude=*/0.0});
  const TrialRun trial =
      run_trial(make_scenario("serve"), crash, /*watchdog_ms=*/20000, nullptr);
  ASSERT_EQ(trial.outcome, TrialOutcome::Pass) << trial.error;
  EXPECT_EQ(trial.fired, crash);
}

TEST(Campaign, SiteFilterRestrictsEnumeration) {
  CampaignOptions options;
  options.sites = {fault::FaultSite::MsgDrop};
  options.budget = 2;
  options.pair_budget = 0;
  const Campaign campaign(make_scenario("mailbox_pipeline"), options);
  sweep::Pool pool(2);
  const CampaignResult result = campaign.run(pool);
  for (const TrialResult& trial : result.trials)
    for (const fault::ScheduleEntry& entry : trial.schedule.entries)
      EXPECT_EQ(entry.site, fault::FaultSite::MsgDrop);
}

}  // namespace
}  // namespace stamp::chaos
