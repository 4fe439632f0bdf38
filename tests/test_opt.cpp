#include <gtest/gtest.h>

#include "circuits/random_circuit.hpp"
#include "lec/lec.hpp"
#include "netlist/netlist.hpp"
#include "opt/optimizer.hpp"
#include "sim/metrics.hpp"
#include "store/artifact_io.hpp"

namespace splitlock {
namespace {

TEST(ConstantPropagate, AndWithZeroFolds) {
  Netlist nl("f");
  const NetId a = nl.AddInput("a");
  const NetId zero = nl.AddGate(GateOp::kConst0, {});
  const NetId y = nl.AddGate(GateOp::kAnd, {a, zero});
  nl.AddOutput(y, "y");
  const OptStats stats = ConstantPropagate(nl);
  EXPECT_GE(stats.folded, 1u);
  // The PO must now observe constant 0.
  const GateId po = nl.outputs()[0];
  const GateId driver = nl.DriverOf(nl.gate(po).fanins[0]);
  EXPECT_EQ(nl.gate(driver).op, GateOp::kConst0);
}

TEST(ConstantPropagate, AndWithOneShrinks) {
  Netlist nl("f");
  const NetId a = nl.AddInput("a");
  const NetId b = nl.AddInput("b");
  const NetId one = nl.AddGate(GateOp::kConst1, {});
  const NetId y = nl.AddGate(GateOp::kAnd, {a, b, one});
  nl.AddOutput(y, "y");
  ConstantPropagate(nl);
  const GateId g = nl.DriverOf(y);
  EXPECT_EQ(nl.gate(g).op, GateOp::kAnd);
  EXPECT_EQ(nl.gate(g).fanins.size(), 2u);
}

TEST(ConstantPropagate, XorWithConstBecomesInv) {
  Netlist nl("f");
  const NetId a = nl.AddInput("a");
  const NetId one = nl.AddGate(GateOp::kConst1, {});
  const NetId y = nl.AddGate(GateOp::kXor, {a, one});
  nl.AddOutput(y, "y");
  ConstantPropagate(nl);
  EXPECT_EQ(nl.gate(nl.DriverOf(y)).op, GateOp::kInv);
}

TEST(ConstantPropagate, MuxConstSelect) {
  Netlist nl("f");
  const NetId a = nl.AddInput("a");
  const NetId b = nl.AddInput("b");
  const NetId one = nl.AddGate(GateOp::kConst1, {});
  const NetId y = nl.AddGate(GateOp::kMux, {one, a, b});  // sel=1 -> b
  nl.AddOutput(y, "y");
  ConstantPropagate(nl);
  const Gate& g = nl.gate(nl.DriverOf(y));
  ASSERT_EQ(g.op, GateOp::kBuf);
  EXPECT_EQ(g.fanins[0], b);
}

TEST(ConstantPropagate, UnflaggedTieFoldsButDontTouchSurvives) {
  Netlist nl("f");
  const NetId a = nl.AddInput("a");
  const NetId tie_free = nl.AddGate(GateOp::kTieHi, {});
  const NetId tie_locked = nl.AddGate(GateOp::kTieHi, {});
  nl.gate(nl.DriverOf(tie_locked)).flags |= kFlagDontTouch | kFlagTie;
  const NetId y1 = nl.AddGate(GateOp::kAnd, {a, tie_free});
  const NetId y2 = nl.AddGate(GateOp::kXnor, {a, tie_locked});
  nl.gate(nl.DriverOf(y2)).flags |= kFlagDontTouch | kFlagKeyGate;
  nl.AddOutput(y1, "y1");
  nl.AddOutput(y2, "y2");
  OptimizeArea(nl);
  // y1's AND folded away; y2's key-gate + TIE untouched.
  EXPECT_EQ(nl.DriverOf(nl.gate(nl.outputs()[0]).fanins[0]),
            nl.DriverOf(a));
  EXPECT_EQ(nl.gate(nl.DriverOf(y2)).op, GateOp::kXnor);
  EXPECT_EQ(nl.gate(nl.DriverOf(tie_locked)).op, GateOp::kTieHi);
}

TEST(SimplifyLocal, BufBypassAndDoubleInv) {
  Netlist nl("f");
  const NetId a = nl.AddInput("a");
  const NetId b1 = nl.AddGate(GateOp::kBuf, {a});
  const NetId i1 = nl.AddGate(GateOp::kInv, {b1});
  const NetId i2 = nl.AddGate(GateOp::kInv, {i1});
  nl.AddOutput(i2, "y");
  SimplifyLocal(nl);
  SweepDeadLogic(nl);
  // Output observes `a` directly.
  EXPECT_EQ(nl.gate(nl.outputs()[0]).fanins[0], a);
  EXPECT_EQ(nl.NumLogicGates(), 0u);
}

TEST(SimplifyLocal, ComplementPairAnnihilates) {
  Netlist nl("f");
  const NetId a = nl.AddInput("a");
  const NetId na = nl.AddGate(GateOp::kInv, {a});
  const NetId y1 = nl.AddGate(GateOp::kAnd, {a, na});  // = 0
  const NetId y2 = nl.AddGate(GateOp::kOr, {a, na});   // = 1
  nl.AddOutput(y1, "y1");
  nl.AddOutput(y2, "y2");
  OptimizeArea(nl);
  EXPECT_EQ(nl.gate(nl.DriverOf(nl.gate(nl.outputs()[0]).fanins[0])).op,
            GateOp::kConst0);
  EXPECT_EQ(nl.gate(nl.DriverOf(nl.gate(nl.outputs()[1]).fanins[0])).op,
            GateOp::kConst1);
}

TEST(SimplifyLocal, DuplicateFaninCollapses) {
  Netlist nl("f");
  const NetId a = nl.AddInput("a");
  const NetId b = nl.AddInput("b");
  const NetId y = nl.AddGate(GateOp::kAnd, {a, a, b});
  nl.AddOutput(y, "y");
  SimplifyLocal(nl);
  EXPECT_EQ(nl.gate(nl.DriverOf(y)).fanins.size(), 2u);
}

TEST(StructuralHash, MergesDuplicates) {
  Netlist nl("f");
  const NetId a = nl.AddInput("a");
  const NetId b = nl.AddInput("b");
  const NetId x1 = nl.AddGate(GateOp::kAnd, {a, b});
  const NetId x2 = nl.AddGate(GateOp::kAnd, {b, a});  // commutative dup
  const NetId y = nl.AddGate(GateOp::kXor, {x1, x2});
  nl.AddOutput(y, "y");
  const OptStats stats = StructuralHash(nl);
  EXPECT_EQ(stats.merged, 1u);
  // XOR(x, x) after merge; SimplifyLocal turns it into const 0.
  SimplifyLocal(nl);
  EXPECT_EQ(nl.gate(nl.DriverOf(nl.gate(nl.outputs()[0]).fanins[0])).op,
            GateOp::kConst0);
}

TEST(SweepDeadLogic, RemovesUnobservedCone) {
  Netlist nl("f");
  const NetId a = nl.AddInput("a");
  const NetId b = nl.AddInput("b");
  const NetId dead1 = nl.AddGate(GateOp::kAnd, {a, b});
  nl.AddGate(GateOp::kInv, {dead1});  // dead cone of two gates
  nl.AddOutput(a, "y");
  const OptStats stats = SweepDeadLogic(nl);
  EXPECT_EQ(stats.swept, 2u);
  EXPECT_EQ(nl.NumLogicGates(), 0u);
}

TEST(SweepDeadLogic, KeyInputsSurvive) {
  Netlist nl("f");
  const NetId a = nl.AddInput("a");
  nl.AddGate(GateOp::kKeyIn, {}, "key_0");  // deliberately dangling
  nl.AddOutput(a, "y");
  SweepDeadLogic(nl);
  EXPECT_EQ(nl.KeyInputs().size(), 1u);
}

std::string NetlistBytes(const Netlist& nl) {
  store::ArtifactWriter w;
  store::EncodeNetlist(w, nl);
  return w.bytes();
}

// The cone sweep deletes what SweepDeadLogic deletes when the only dead
// logic is the root's cone, with the same bytes. The cone holds a MUX with
// a constant data input (the constant dies with it), a driver feeding it
// on two pins, and a gate it shares with live logic (which survives).
TEST(SweepDeadCone, MatchesSweepDeadLogic) {
  Netlist nl("f");
  const NetId a = nl.AddInput("a");
  const NetId b = nl.AddInput("b");
  const NetId shared = nl.AddGate(GateOp::kOr, {a, b});
  const NetId twice = nl.AddGate(GateOp::kNand, {a, b});
  const NetId both_pins = nl.AddGate(GateOp::kXor, {twice, shared});
  const NetId also = nl.AddGate(GateOp::kAnd, {twice, b});
  const NetId zero = nl.AddGate(GateOp::kConst0, {});
  const NetId mux = nl.AddGate(GateOp::kMux, {both_pins, zero, also});
  const NetId root = nl.AddGate(GateOp::kInv, {mux});
  const NetId live = nl.AddGate(GateOp::kAnd, {shared, a});
  nl.AddOutput(root, "y");
  nl.AddOutput(live, "z");
  EXPECT_TRUE(OptimizeArea(nl).converged);

  // Kill the cone: the output now reads `live` instead of `root`.
  nl.ReplaceAllUses(root, live);
  Netlist swept = nl;
  const OptStats cone = SweepDeadCone(nl, nl.DriverOf(root));
  const OptStats full = SweepDeadLogic(swept);
  EXPECT_EQ(cone.swept, 6u);  // root, mux, zero, both_pins, also, twice
  EXPECT_EQ(cone.swept, full.swept);
  EXPECT_EQ(NetlistBytes(nl), NetlistBytes(swept));
  EXPECT_EQ(nl.gate(nl.DriverOf(shared)).op, GateOp::kOr);
}

// Property: OptimizeArea never changes functionality and never grows area.
class OptimizeAreaProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptimizeAreaProperty, PreservesFunctionAndShrinks) {
  circuits::CircuitSpec spec;
  spec.num_inputs = 14;
  spec.num_outputs = 7;
  spec.num_gates = 260;
  spec.seed = GetParam();
  const Netlist original = circuits::GenerateCircuit(spec);
  Netlist optimized = original;
  OptimizeArea(optimized);
  EXPECT_EQ(optimized.Validate(), "");
  EXPECT_LE(optimized.NumLogicGates(), original.NumLogicGates());
  EXPECT_TRUE(RandomPatternsAgree(original, optimized, 1024, spec.seed));
  const LecResult lec = CheckEquivalence(original, optimized);
  EXPECT_TRUE(lec.proven);
  EXPECT_TRUE(lec.equivalent);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizeAreaProperty,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace splitlock
