#include "chaos/scenario.hpp"

#include "fault/injector.hpp"
#include "sweep/sweep.hpp"

#include <gtest/gtest.h>

namespace stamp::chaos {
namespace {

TEST(Scenarios, EveryListedNameConstructs) {
  const auto names = scenario_names();
  EXPECT_FALSE(names.empty());
  for (const std::string& name : names) {
    const auto scenario = make_scenario(name);
    ASSERT_NE(scenario, nullptr) << name;
    EXPECT_EQ(scenario->name(), name);
    EXPECT_FALSE(scenario->sites().empty()) << name;
  }
  EXPECT_EQ(make_scenario("no_such_scenario"), nullptr);
}

TEST(Scenarios, UninjectedRunsAreDeterministic) {
  // Without any armed injector, two runs of the same scenario must produce
  // identical artifacts — the campaign's reference-run assumption.
  for (const std::string& name : scenario_names()) {
    const auto scenario = make_scenario(name);
    EXPECT_EQ(scenario->run(), scenario->run()) << name;
  }
}

TEST(Scenarios, SweepArtifactsEqualASingleNodeSweep) {
  // Uninjected, the kill-and-resume and fleet scenarios reproduce exactly
  // the bytes `stamp_sweep --grid tiny` writes.
  const std::string want = sweep::to_json(
      sweep::run_sweep(sweep::SweepConfig::tiny(), /*pool=*/nullptr));
  EXPECT_EQ(make_scenario("sweep_resume")->run(), want);
  EXPECT_EQ(make_scenario("fleet")->run(), want);
}

TEST(Scenarios, SeededProbeToleratesOneInjectionButNotTwo) {
  const auto probe = make_scenario("seeded_probe");
  ASSERT_NE(probe, nullptr);

  fault::Injector injector;
  fault::Schedule one;
  one.entries.push_back({fault::FaultSite::TestProbe, 2, 0, 0.0});
  injector.arm_replay(one);
  {
    const fault::InjectorScope scope(injector);
    EXPECT_EQ(probe->run(), "state=ok");
  }

  fault::Schedule two = one;
  two.entries.push_back({fault::FaultSite::TestProbe, 5, 0, 0.0});
  injector.arm_replay(two);
  {
    const fault::InjectorScope scope(injector);
    EXPECT_EQ(probe->run(), "state=corrupted");
  }
  injector.disarm();
}

}  // namespace
}  // namespace stamp::chaos
