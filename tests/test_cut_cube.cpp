#include <gtest/gtest.h>

#include <algorithm>

#include "atpg/cube.hpp"
#include "atpg/cut.hpp"
#include "circuits/random_circuit.hpp"
#include "opt/mffc.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace splitlock::atpg {
namespace {

TEST(Cut, TrivialConeOfSingleGate) {
  Netlist nl("t");
  const NetId a = nl.AddInput("a");
  const NetId b = nl.AddInput("b");
  const NetId y = nl.AddGate(GateOp::kAnd, {a, b});
  nl.AddOutput(y, "y");
  const Cut cut = ExtractCut(nl, y, 4);
  ASSERT_EQ(cut.root, y);
  EXPECT_EQ(cut.leaves.size(), 2u);
  EXPECT_EQ(cut.cone.size(), 1u);
}

TEST(Cut, ExpandsThroughTree) {
  Netlist nl("t");
  const NetId a = nl.AddInput("a");
  const NetId b = nl.AddInput("b");
  const NetId c = nl.AddInput("c");
  const NetId d = nl.AddInput("d");
  const NetId l = nl.AddGate(GateOp::kAnd, {a, b});
  const NetId r = nl.AddGate(GateOp::kOr, {c, d});
  const NetId root = nl.AddGate(GateOp::kXor, {l, r});
  nl.AddOutput(root, "y");
  const Cut cut = ExtractCut(nl, root, 4);
  ASSERT_EQ(cut.root, root);
  EXPECT_EQ(cut.leaves.size(), 4u);
  EXPECT_EQ(cut.cone.size(), 3u);
}

TEST(Cut, RespectsLeafBound) {
  circuits::CircuitSpec spec;
  spec.num_inputs = 20;
  spec.num_outputs = 8;
  spec.num_gates = 400;
  spec.seed = 77;
  const Netlist nl = circuits::GenerateCircuit(spec);
  for (NetId n = 0; n < nl.NumNets(); n += 13) {
    const Cut cut = ExtractCut(nl, n, 8);
    if (cut.root == kNullId) continue;
    EXPECT_LE(cut.leaves.size(), 8u);
    EXPECT_FALSE(cut.cone.empty());
  }
}

TEST(Cut, ConeIsTopologicallyOrdered) {
  circuits::CircuitSpec spec;
  spec.num_inputs = 16;
  spec.num_outputs = 4;
  spec.num_gates = 200;
  spec.seed = 5;
  const Netlist nl = circuits::GenerateCircuit(spec);
  const std::vector<GateId> topo = nl.TopoOrder();
  std::vector<size_t> pos(nl.NumGates());
  for (size_t i = 0; i < topo.size(); ++i) pos[topo[i]] = i;
  for (NetId n = 0; n < nl.NumNets(); n += 17) {
    const Cut cut = ExtractCut(nl, n, 10);
    if (cut.root == kNullId) continue;
    for (size_t i = 1; i < cut.cone.size(); ++i) {
      EXPECT_LT(pos[cut.cone[i - 1]], pos[cut.cone[i]]);
    }
  }

  // CutFromCone over MFFC cones orders the cone by a DFS inside it, which
  // need not follow the global order: check that every in-cone driver of a
  // fanin comes first, and that the cone enumerates the same minterms as
  // the same cut evaluated in global topological order.
  size_t mffc_cuts = 0;
  for (GateId g = 0; g < nl.NumGates(); ++g) {
    const std::vector<GateId> mffc = MffcOf(nl, g);
    if (mffc.empty()) continue;
    const NetId root = nl.gate(g).out;
    const Cut cut = CutFromCone(nl, root, mffc, 12);
    if (cut.root == kNullId) continue;
    ++mffc_cuts;
    ASSERT_EQ(cut.root, root);
    std::vector<GateId> cone_sorted = cut.cone;
    std::vector<GateId> mffc_sorted = mffc;
    std::sort(cone_sorted.begin(), cone_sorted.end());
    std::sort(mffc_sorted.begin(), mffc_sorted.end());
    EXPECT_EQ(cone_sorted, mffc_sorted);
    std::vector<size_t> at(nl.NumGates(), cut.cone.size());
    for (size_t i = 0; i < cut.cone.size(); ++i) at[cut.cone[i]] = i;
    for (size_t i = 0; i < cut.cone.size(); ++i) {
      for (NetId f : nl.gate(cut.cone[i]).fanins) {
        const GateId d = nl.DriverOf(f);
        if (d != kNullId && at[d] < cut.cone.size()) {
          EXPECT_LT(at[d], i);
        }
      }
    }
    Cut global = cut;
    std::sort(global.cone.begin(), global.cone.end(),
              [&pos](GateId a, GateId b) { return pos[a] < pos[b]; });
    for (bool polarity : {false, true}) {
      EXPECT_EQ(EnumerateConeMinterms(nl, cut, polarity, 1u << 12),
                EnumerateConeMinterms(nl, global, polarity, 1u << 12));
    }
  }
  EXPECT_GT(mffc_cuts, 10u);
}

TEST(Cube, CoversSemantics) {
  // Cube over 4 vars: x1=1, x3=0 (vars 0 and 2 free).
  const Cube c{0b1010, 0b0010};
  EXPECT_TRUE(c.Covers(0b0010));
  EXPECT_TRUE(c.Covers(0b0111));
  EXPECT_FALSE(c.Covers(0b0000));
  EXPECT_FALSE(c.Covers(0b1010));
  EXPECT_EQ(c.CareCount(), 2);
}

TEST(Cube, MintermsToCubesMergesAdjacent) {
  // Minterms {0, 1} over 2 vars = cube "x1=0" (1 care bit).
  const std::vector<uint64_t> minterms = {0, 1};
  const std::vector<Cube> cubes = MintermsToCubes(minterms, 2);
  ASSERT_EQ(cubes.size(), 1u);
  EXPECT_EQ(cubes[0].care, 0b10u);
  EXPECT_EQ(cubes[0].value, 0b00u);
  EXPECT_TRUE(CubesCoverExactly(cubes, minterms, 2));
}

TEST(Cube, FullSpaceCollapsesToEmptyCube) {
  const std::vector<uint64_t> minterms = {0, 1, 2, 3};
  const std::vector<Cube> cubes = MintermsToCubes(minterms, 2);
  ASSERT_EQ(cubes.size(), 1u);
  EXPECT_EQ(cubes[0].care, 0u);
}

TEST(Cube, DisjointMintermsStaySeparate) {
  const std::vector<uint64_t> minterms = {0b000, 0b111};
  const std::vector<Cube> cubes = MintermsToCubes(minterms, 3);
  EXPECT_EQ(cubes.size(), 2u);
  EXPECT_TRUE(CubesCoverExactly(cubes, minterms, 3));
}

TEST(ConeMinterms, MatchesDirectEvaluationOnAndTree) {
  // y = a & b & c & d: on-set of polarity 1 is exactly one minterm.
  Netlist nl("t");
  const NetId a = nl.AddInput("a");
  const NetId b = nl.AddInput("b");
  const NetId c = nl.AddInput("c");
  const NetId d = nl.AddInput("d");
  const NetId y = nl.AddGate(GateOp::kAnd, {a, b, c, d});
  nl.AddOutput(y, "y");
  const Cut cut = ExtractCut(nl, y, 6);
  ASSERT_EQ(cut.root, y);
  const auto ones = EnumerateConeMinterms(nl, cut, true, 1024);
  ASSERT_TRUE(ones.has_value());
  ASSERT_EQ(ones->size(), 1u);
  const auto zeros = EnumerateConeMinterms(nl, cut, false, 1024);
  ASSERT_TRUE(zeros.has_value());
  EXPECT_EQ(zeros->size(), 15u);
}

TEST(ConeMinterms, LimitRejectsLargeOnsets) {
  Netlist nl("t");
  const NetId a = nl.AddInput("a");
  const NetId b = nl.AddInput("b");
  const NetId y = nl.AddGate(GateOp::kOr, {a, b});
  nl.AddOutput(y, "y");
  const Cut cut = ExtractCut(nl, y, 4);
  const auto capped = EnumerateConeMinterms(nl, cut, true, 2);
  EXPECT_FALSE(capped.has_value());  // 3 minterms > limit 2
}

// Property: for random cones, enumerated minterms + compacted cubes agree
// with direct cone simulation over the cut.
class ConeCubeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConeCubeProperty, CubesExactlyMatchConeFunction) {
  circuits::CircuitSpec spec;
  spec.num_inputs = 12;
  spec.num_outputs = 6;
  spec.num_gates = 150;
  spec.seed = GetParam();
  const Netlist nl = circuits::GenerateCircuit(spec);

  size_t checked = 0;
  for (NetId n = 0; n < nl.NumNets() && checked < 6; n += 11) {
    const Cut cut = ExtractCut(nl, n, 10);
    if (cut.root == kNullId || cut.leaves.size() < 2) continue;
    const auto minterms = EnumerateConeMinterms(nl, cut, true, 4096);
    if (!minterms.has_value()) continue;
    const std::vector<Cube> cubes =
        MintermsToCubes(*minterms, cut.leaves.size());
    EXPECT_TRUE(CubesCoverExactly(cubes, *minterms, cut.leaves.size()));

    // Cross-check a few assignments against full-netlist simulation.
    Simulator sim(nl);
    sim.BeginBatch(1);
    Rng rng(GetParam() ^ n);
    std::vector<uint64_t> pi_words(nl.inputs().size());
    for (int trial = 0; trial < 4; ++trial) {
      for (uint64_t& v : pi_words) v = rng.NextWord();
      sim.SetInputColumn(0, pi_words);
      sim.RunBatch();
      uint64_t leaf_pattern = 0;
      for (size_t i = 0; i < cut.leaves.size(); ++i) {
        leaf_pattern |= (sim.BatchNetWord(cut.leaves[i], 0) & 1) << i;
      }
      bool covered = false;
      for (const Cube& c : cubes) {
        if (c.Covers(leaf_pattern)) covered = true;
      }
      EXPECT_EQ(covered, (sim.BatchNetWord(cut.root, 0) & 1) != 0);
    }
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConeCubeProperty,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace splitlock::atpg
