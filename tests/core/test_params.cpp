#include "core/params.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace stamp {
namespace {

TEST(Params, DefaultsValidate) {
  EXPECT_NO_THROW(MachineParams{}.validate());
  EXPECT_NO_THROW(EnergyParams{}.validate());
  EXPECT_NO_THROW(Topology{}.validate());
  EXPECT_NO_THROW(PowerEnvelope{}.validate());
  EXPECT_NO_THROW(MachineModel{}.validate());
}

TEST(Params, IntraFasterThanInterEnforced) {
  MachineParams p;
  p.ell_a = 30;
  p.ell_e = 10;  // intra slower than inter: nonsense
  EXPECT_THROW(p.validate(), ParamError);

  MachineParams q;
  q.L_a = 100;
  q.L_e = 10;
  EXPECT_THROW(q.validate(), ParamError);

  MachineParams r;
  r.g_sh_a = 9;
  r.g_sh_e = 1;
  EXPECT_THROW(r.validate(), ParamError);

  MachineParams s;
  s.g_mp_a = 9;
  s.g_mp_e = 1;
  EXPECT_THROW(s.validate(), ParamError);
}

TEST(Params, NegativeValuesRejected) {
  MachineParams p;
  p.ell_a = -1;
  EXPECT_THROW(p.validate(), ParamError);
  EnergyParams e;
  e.w_int = 0;  // zero energy per op is nonphysical
  EXPECT_THROW(e.validate(), ParamError);
}

TEST(Params, TopologyCounts) {
  const Topology t{.chips = 2, .processors_per_chip = 8, .threads_per_processor = 4};
  EXPECT_EQ(t.total_processors(), 16);
  EXPECT_EQ(t.total_threads(), 64);
}

TEST(Params, TopologyRejectsEmpty) {
  Topology t;
  t.chips = 0;
  EXPECT_THROW(t.validate(), ParamError);
  t = Topology{};
  t.processors_per_chip = 0;
  EXPECT_THROW(t.validate(), ParamError);
  t = Topology{};
  t.threads_per_processor = -1;
  EXPECT_THROW(t.validate(), ParamError);
}

TEST(Params, EnvelopeHierarchyChecked) {
  PowerEnvelope e;
  e.per_processor = 100;
  e.per_chip = 50;  // processor cap exceeds chip cap
  EXPECT_THROW(e.validate(), ParamError);

  PowerEnvelope f;
  f.per_chip = 100;
  f.system = 50;
  EXPECT_THROW(f.validate(), ParamError);

  PowerEnvelope g;
  g.per_processor = 10;  // chip unconstrained: fine
  g.system = 100;
  EXPECT_NO_THROW(g.validate());
}

// -- the inter-node (cluster) tier -------------------------------------------

TEST(Params, NetworkSlowerThanInterEnforced) {
  MachineParams p;
  p.L_net = p.L_e - 1;  // crossing nodes faster than crossing chips: nonsense
  EXPECT_THROW(p.validate(), ParamError);

  MachineParams q;
  q.g_net = q.g_mp_e - 1;
  EXPECT_THROW(q.validate(), ParamError);

  MachineParams r;
  r.L_net = -1;
  EXPECT_THROW(r.validate(), ParamError);

  EnergyParams e;
  e.w_net = -1;
  EXPECT_THROW(e.validate(), ParamError);
}

TEST(Params, TopologyNodesMultiplyAndValidate) {
  const Topology t{.nodes = 3, .chips = 2, .processors_per_chip = 8,
                   .threads_per_processor = 4};
  EXPECT_EQ(t.total_processors(), 48);
  EXPECT_EQ(t.total_threads(), 192);
  EXPECT_NO_THROW(t.validate());

  Topology bad;
  bad.nodes = 0;
  EXPECT_THROW(bad.validate(), ParamError);
}

// Single-node topologies must print exactly as they always have (the node
// tier is invisible until it is used), and multi-node ones must show it.
TEST(Params, TopologyPrintsNodesOnlyWhenClustered) {
  std::ostringstream single;
  single << Topology{};
  EXPECT_EQ(single.str().find("node"), std::string::npos);

  std::ostringstream cluster;
  cluster << Topology{.nodes = 4};
  EXPECT_NE(cluster.str().find("4 node(s)"), std::string::npos);
}

// A preset and its name; each case is named by PrintTo, so the name is the
// preset's rather than the function's address, which changes from run to run.
struct Preset {
  const char* name;
  MachineModel (*make)();
};

void PrintTo(const Preset& preset, std::ostream* os) { *os << preset.name; }

class PresetTest : public ::testing::TestWithParam<Preset> {};

TEST_P(PresetTest, PresetIsValid) {
  const MachineModel m = GetParam().make();
  EXPECT_EQ(m.name, GetParam().name);
  EXPECT_NO_THROW(m.validate());
  EXPECT_FALSE(m.name.empty());
}

TEST_P(PresetTest, PresetHasIntraAdvantage) {
  const MachineModel m = GetParam().make();
  EXPECT_LT(m.params.ell_a, m.params.ell_e);
  EXPECT_LT(m.params.L_a, m.params.L_e);
  EXPECT_LT(m.params.g_sh_a, m.params.g_sh_e);
  EXPECT_LT(m.params.g_mp_a, m.params.g_mp_e);
}

TEST_P(PresetTest, StreamingWorks) {
  std::ostringstream os;
  os << GetParam().make();
  EXPECT_FALSE(os.str().empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, PresetTest,
    ::testing::Values(Preset{"niagara", &presets::niagara},
                      Preset{"desktop", &presets::desktop},
                      Preset{"embedded", &presets::embedded},
                      Preset{"server", &presets::server}));

TEST(Presets, NiagaraMatchesFigure1) {
  const MachineModel m = presets::niagara();
  // Figure 1: one chip, 8 processors, 4 threads each = 32 hardware threads.
  EXPECT_EQ(m.topology.chips, 1);
  EXPECT_EQ(m.topology.processors_per_chip, 8);
  EXPECT_EQ(m.topology.threads_per_processor, 4);
  EXPECT_EQ(m.topology.total_threads(), 32);
}

TEST(Presets, EmbeddedIsMostPowerConstrained) {
  EXPECT_LT(presets::embedded().envelope.per_processor,
            presets::desktop().envelope.per_processor);
  EXPECT_LT(presets::embedded().envelope.system, presets::niagara().envelope.system);
}

TEST(Presets, ServerHasLargestTopology) {
  EXPECT_GT(presets::server().topology.total_threads(),
            presets::niagara().topology.total_threads());
}

}  // namespace
}  // namespace stamp
