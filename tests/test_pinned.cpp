// Bit-exact regression pins for the engines that read a net's sparse
// transition form: the count scheduler's sample paths, the exact
// expected-time solver and the control-state displacement. The values
// were recorded before those engines shared one sparse form; a
// reordered weight product or a wrong sparse walk changes them.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/constructions.h"
#include "petri/control_net.h"
#include "petri/petri_net.h"
#include "sim/expected_time.h"
#include "sim/simulator.h"

namespace core = ppsc::core;
namespace petri = ppsc::petri;
namespace sim = ppsc::sim;

namespace {

struct PinnedRun {
  std::uint64_t seed;
  std::uint64_t steps;
  core::Config final_config;
};

void expect_runs(const core::ConstructedProtocol& cp, core::Count x,
                 const std::vector<PinnedRun>& pins) {
  for (const PinnedRun& pin : pins) {
    sim::RunOptions options;
    options.seed = pin.seed;
    options.max_steps = 100000;  // silent within ~100 steps when correct
    const sim::SilenceRun run = sim::run_to_silence(cp.protocol, {x}, options);
    EXPECT_TRUE(run.silent) << "seed " << pin.seed;
    EXPECT_EQ(run.steps, pin.steps) << "seed " << pin.seed;
    EXPECT_EQ(run.final_config, pin.final_config) << "seed " << pin.seed;
  }
}

}  // namespace

TEST(Pinned, RunToSilenceOnWidthThreeNet) {
  expect_runs(core::example_4_1(3), 60,
              {{1, 27, {0, 60}}, {2, 28, {0, 60}}, {3, 28, {0, 60}}});
}

TEST(Pinned, RunToSilenceOnDestructiveUnaryCounting) {
  const core::Config silent = {0, 32, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8, 0};
  expect_runs(core::destructive_unary_counting(5), 40,
              {{1, 108, silent}, {2, 106, silent}, {3, 104, silent}});
}

TEST(Pinned, ExpectedInteractionsToSilence) {
  const sim::ExpectedTimeResult width3 =
      sim::expected_interactions_to_silence(core::example_4_1(3).protocol,
                                            {9});
  ASSERT_TRUE(width3.computed);
  EXPECT_EQ(width3.reachable_configs, 8u);
  EXPECT_EQ(width3.expected_steps, 0x1.350f16973744ap+2);

  const sim::ExpectedTimeResult destructive =
      sim::expected_interactions_to_silence(
          core::destructive_unary_counting(3).protocol, {6});
  ASSERT_TRUE(destructive.computed);
  EXPECT_EQ(destructive.reachable_configs, 66u);
  EXPECT_EQ(destructive.expected_steps, 0x1.b4fd43aa4ef92p+3);

  const sim::ExpectedTimeResult leaders =
      sim::expected_interactions_to_silence(core::example_4_2(2).protocol,
                                            {3});
  ASSERT_TRUE(leaders.computed);
  EXPECT_EQ(leaders.reachable_configs, 11u);
  EXPECT_EQ(leaders.expected_steps, 0x1.360b60b60b60bp+2);
}

TEST(Pinned, ControlStateDisplacement) {
  petri::PetriNet net(3);
  net.add({2, 0, 1}, {0, 3, 0});  // delta (-2, +3, -1)
  net.add({0, 1, 0}, {1, 0, 0});  // delta (+1, -1, 0)
  net.add({1, 1, 1}, {1, 1, 1});  // identity
  net.add({0, 0, 0}, {0, 0, 4});  // delta (0, 0, +4)
  petri::ControlStateNet cnet(net, 2);
  cnet.add_edge(0, 0, 1);
  cnet.add_edge(1, 1, 0);
  cnet.add_edge(1, 2, 1);
  cnet.add_edge(0, 3, 0);
  cnet.add_edge(1, 1, 0);  // a second edge firing transition 1
  // 3*(-2,3,-1) + 5*(1,-1,0) + 7*0 + 2*(0,0,4) + 2*(1,-1,0) = (1, 2, 5).
  EXPECT_EQ(cnet.displacement({3, 5, 7, 2, 2}),
            (std::vector<petri::Count>{1, 2, 5}));
  EXPECT_EQ(cnet.displacement({0, 0, 0, 0, 0}),
            (std::vector<petri::Count>{0, 0, 0}));
}
