#include "sweep/gate.hpp"

#include "sweep/sweep.hpp"

#include <gtest/gtest.h>

#include <string>

namespace stamp::sweep {
namespace {

/// A minimal single-axis stamp-sweep/v1 document with caller-provided point
/// bodies, for precise control over the numbers the gate sees.
std::string doc(const std::string& points) {
  return R"({"schema":"stamp-sweep/v1","workload":"w","objective":"EDP",)"
         R"("axes":["a"],"points":[)" +
         points + "]}";
}

/// One point with parameter a=`a` and the given metric values.
std::string point(double a, const std::string& d, const std::string& pdp = "10",
                  const std::string& edp = "1000",
                  const std::string& ed2p = "100000",
                  const std::string& feasible = "true") {
  return R"({"params":{"a":)" + std::to_string(a) + R"(},"processes":2,)" +
         R"("feasible":)" + feasible + R"(,"metrics":{"D":)" + d +
         R"(,"PDP":)" + pdp + R"(,"EDP":)" + edp + R"(,"ED2P":)" + ed2p +
         R"(},"models":{"PRAM":50,"BSP":80}})";
}

TEST(Gate, IdenticalDocumentsPass) {
  const std::string text = doc(point(1, "100") + "," + point(2, "200"));
  const GateReport r = compare_sweeps_text(text, text);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.points_compared, 2u);
  EXPECT_TRUE(r.issues.empty());
}

TEST(Gate, RealSweepSelfComparisonPasses) {
  const std::string json = to_json(run_sweep(SweepConfig::tiny(), nullptr));
  const GateReport r = compare_sweeps_text(json, json);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.points_compared, SweepConfig::tiny().grid.size());
}

// The acceptance demonstration: perturbing a cost-model constant (here the
// per-flop energy weight w_fp) must trip the gate.
TEST(Gate, PerturbedCostModelConstantFailsTheGate) {
  SweepConfig cfg = SweepConfig::tiny();
  const std::string baseline = to_json(run_sweep(cfg, nullptr));
  cfg.base.energy.w_fp *= 1.5;  // the perturbation
  const std::string fresh = to_json(run_sweep(cfg, nullptr));
  const GateReport r = compare_sweeps_text(baseline, fresh);
  EXPECT_FALSE(r.ok);
  // Energy-bearing metrics drift; pure-time D does not (w_fp is energy-only).
  bool pdp_drift = false;
  for (const GateIssue& i : r.issues)
    if (i.kind == GateIssue::Kind::Drift && i.metric == "PDP")
      pdp_drift = true;
  EXPECT_TRUE(pdp_drift);
}

TEST(Gate, ExactlyAtToleranceIsAPass) {
  // Default D tolerance is 0.02; |98 - 100| / max(100, 98) == 0.02 exactly.
  const GateReport r = compare_sweeps_text(doc(point(1, "100")),
                                           doc(point(1, "98")));
  EXPECT_TRUE(r.ok) << (r.issues.empty() ? "" : r.issues[0].describe());
}

TEST(Gate, JustOverToleranceFails) {
  const GateReport r = compare_sweeps_text(doc(point(1, "100")),
                                           doc(point(1, "97.9")));
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.issues.size(), 1u);
  EXPECT_EQ(r.issues[0].kind, GateIssue::Kind::Drift);
  EXPECT_EQ(r.issues[0].metric, "D");
}

TEST(Gate, CustomTolerancesOverrideDefaults) {
  GateTolerances loose;
  loose.D = 0.5;
  const GateReport r = compare_sweeps_text(doc(point(1, "100")),
                                           doc(point(1, "60")), loose);
  EXPECT_TRUE(r.ok);
}

TEST(Gate, PointMissingFromBaselineFails) {
  const GateReport r = compare_sweeps_text(
      doc(point(1, "100")), doc(point(1, "100") + "," + point(2, "200")));
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.issues.size(), 1u);
  EXPECT_EQ(r.issues[0].kind, GateIssue::Kind::MissingInBaseline);
}

TEST(Gate, PointMissingFromFreshFails) {
  const GateReport r = compare_sweeps_text(
      doc(point(1, "100") + "," + point(2, "200")), doc(point(1, "100")));
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.issues.size(), 1u);
  EXPECT_EQ(r.issues[0].kind, GateIssue::Kind::MissingInFresh);
}

TEST(Gate, NaNMetricFails) {
  // JsonWriter serializes NaN as null; the gate must treat it as failure on
  // either side, even when both sides are null.
  const std::string good = doc(point(1, "100"));
  const std::string bad = doc(point(1, "null"));
  for (const auto& [base, fresh] :
       {std::pair{good, bad}, {bad, good}, {bad, bad}}) {
    const GateReport r = compare_sweeps_text(base, fresh);
    EXPECT_FALSE(r.ok);
    ASSERT_EQ(r.issues.size(), 1u);
    EXPECT_EQ(r.issues[0].kind, GateIssue::Kind::NotANumber);
  }
}

TEST(Gate, MissingMetricKeyFails) {
  const std::string missing_edp =
      doc(R"({"params":{"a":1},"processes":2,"feasible":true,)"
          R"("metrics":{"D":100,"PDP":10,"ED2P":100000},)"
          R"("models":{"PRAM":50,"BSP":80}})");
  const GateReport r = compare_sweeps_text(doc(point(1, "100")), missing_edp);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.issues.size(), 1u);
  EXPECT_EQ(r.issues[0].kind, GateIssue::Kind::MissingMetric);
  EXPECT_EQ(r.issues[0].metric, "EDP");
}

TEST(Gate, FeasibilityFlipFails) {
  const GateReport r = compare_sweeps_text(
      doc(point(1, "100")),
      doc(point(1, "100", "10", "1000", "100000", "false")));
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.issues.size(), 1u);
  EXPECT_EQ(r.issues[0].kind, GateIssue::Kind::FeasibilityFlip);
}

TEST(Gate, ClassicalModelDriftAlsoTrips) {
  const std::string fresh =
      doc(R"({"params":{"a":1},"processes":2,"feasible":true,)"
          R"("metrics":{"D":100,"PDP":10,"EDP":1000,"ED2P":100000},)"
          R"("models":{"PRAM":50,"BSP":120}})");
  const GateReport r = compare_sweeps_text(doc(point(1, "100")), fresh);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.issues.size(), 1u);
  EXPECT_EQ(r.issues[0].metric, "BSP");
}

TEST(Gate, SchemaMismatchShortCircuits) {
  const std::string other =
      R"({"schema":"stamp-sweep/v1","workload":"w","objective":"EDP",)"
      R"("axes":["b"],"points":[)" +
      point(1, "100") + "]}";
  const GateReport r = compare_sweeps_text(doc(point(1, "100")), other);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.issues.size(), 1u);
  EXPECT_EQ(r.issues[0].kind, GateIssue::Kind::SchemaMismatch);
}

TEST(Gate, MalformedDocumentThrows) {
  EXPECT_THROW((void)compare_sweeps_text("{", doc(point(1, "1"))),
               report::JsonParseError);
  // Header matches, but "points" is not an array.
  EXPECT_THROW(
      (void)compare_sweeps_text(R"({"schema":"stamp-sweep/v1","workload":"w",)"
                                R"("objective":"EDP","axes":["a"],)"
                                R"("points":{}})",
                                doc(point(1, "1"))),
      std::runtime_error);
}

}  // namespace
}  // namespace stamp::sweep
