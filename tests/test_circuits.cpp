#include <gtest/gtest.h>

#include <stdexcept>

#include "circuits/c17.hpp"
#include "circuits/random_circuit.hpp"
#include "circuits/suites.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

namespace splitlock::circuits {
namespace {

TEST(C17, ExactStructure) {
  const Netlist nl = MakeC17();
  EXPECT_EQ(nl.Validate(), "");
  EXPECT_EQ(nl.inputs().size(), 5u);
  EXPECT_EQ(nl.outputs().size(), 2u);
  EXPECT_EQ(nl.NumLogicGates(), 6u);
  for (GateId g = 0; g < nl.NumGates(); ++g) {
    const Gate& gate = nl.gate(g);
    if (gate.op != GateOp::kInput && gate.op != GateOp::kOutput) {
      EXPECT_EQ(gate.op, GateOp::kNand);
    }
  }
}

TEST(C17, FullTruthTable) {
  // Reference model evaluated for all 32 input patterns.
  const Netlist nl = MakeC17();
  Simulator sim(nl);
  // Lanes 0..31 enumerate (G1, G2, G3, G6, G7).
  std::vector<uint64_t> words(5, 0);
  for (int m = 0; m < 32; ++m) {
    for (int b = 0; b < 5; ++b) {
      if ((m >> b) & 1) words[b] |= 1ULL << m;
    }
  }
  sim.BeginBatch(1);
  sim.SetInputColumn(0, words);
  sim.RunBatch();
  for (int m = 0; m < 32; ++m) {
    const bool g1 = m & 1;
    const bool g2 = (m >> 1) & 1;
    const bool g3 = (m >> 2) & 1;
    const bool g6 = (m >> 3) & 1;
    const bool g7 = (m >> 4) & 1;
    const bool g10 = !(g1 && g3);
    const bool g11 = !(g3 && g6);
    const bool g16 = !(g2 && g11);
    const bool g19 = !(g11 && g7);
    const bool g22 = !(g10 && g16);
    const bool g23 = !(g16 && g19);
    EXPECT_EQ((sim.BatchOutputWord(0, 0) >> m) & 1, g22 ? 1u : 0u)
        << "m=" << m;
    EXPECT_EQ((sim.BatchOutputWord(1, 0) >> m) & 1, g23 ? 1u : 0u)
        << "m=" << m;
  }
}

TEST(Suites, IscasTableMatchesPublishedCounts) {
  const auto& suite = IscasSuite();
  ASSERT_EQ(suite.size(), 7u);
  EXPECT_EQ(suite[0].name, "c432");
  EXPECT_EQ(suite[0].inputs, 36u);
  EXPECT_EQ(suite[0].outputs, 7u);
  EXPECT_EQ(suite.back().name, "c7552");
  EXPECT_EQ(suite.back().inputs, 207u);
}

TEST(Suites, Itc99TableOrder) {
  const auto& suite = Itc99Suite();
  ASSERT_EQ(suite.size(), 6u);
  EXPECT_EQ(suite[0].name, "b14");
  EXPECT_EQ(suite.back().name, "b22");
}

TEST(Suites, SynthesizedIscasMatchesDeclaredInterface) {
  for (const BenchmarkInfo& info : IscasSuite()) {
    const Netlist nl = MakeIscas(info.name);
    EXPECT_EQ(nl.Validate(), "") << info.name;
    EXPECT_EQ(nl.inputs().size(), info.inputs) << info.name;
    EXPECT_EQ(nl.outputs().size(), info.outputs) << info.name;
    // Gate budget is approximate (tree rounding, checksum fold).
    EXPECT_GT(nl.NumLogicGates(), info.gates * 8 / 10) << info.name;
    EXPECT_LT(nl.NumLogicGates(), info.gates * 13 / 10) << info.name;
  }
}

TEST(Suites, ScaleShrinksItc99) {
  const Netlist full = MakeItc99("b14", 0.2);
  const Netlist small = MakeItc99("b14", 0.05);
  EXPECT_GT(full.NumLogicGates(), 2 * small.NumLogicGates());
  EXPECT_EQ(full.inputs().size(), small.inputs().size());
}

TEST(Suites, UnknownNamesThrow) {
  EXPECT_THROW(MakeIscas("c9999"), std::invalid_argument);
  EXPECT_THROW(MakeItc99("b99"), std::invalid_argument);
}

TEST(Suites, GenerationIsDeterministic) {
  const Netlist a = MakeIscas("c880");
  const Netlist b = MakeIscas("c880");
  EXPECT_EQ(a.NumGates(), b.NumGates());
  EXPECT_TRUE(RandomPatternsAgree(a, b, 512, 1));
}

TEST(Generator, EveryGateReachesAnOutput) {
  CircuitSpec spec;
  spec.num_inputs = 16;
  spec.num_outputs = 8;
  spec.num_gates = 300;
  spec.seed = 42;
  const Netlist nl = GenerateCircuit(spec);
  // Walk back from outputs; every logic gate must be visited (the
  // checksum output guarantees observability).
  std::vector<bool> reached(nl.NumGates(), false);
  std::vector<GateId> stack;
  for (GateId g : nl.outputs()) stack.push_back(g);
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    if (reached[g]) continue;
    reached[g] = true;
    for (NetId n : nl.gate(g).fanins) stack.push_back(nl.DriverOf(n));
  }
  for (GateId g = 0; g < nl.NumGates(); ++g) {
    if (nl.gate(g).op == GateOp::kInput || nl.gate(g).op == GateOp::kOutput ||
        nl.gate(g).op == GateOp::kDeleted) {
      continue;
    }
    EXPECT_TRUE(reached[g]) << "dangling gate " << g;
  }
}

TEST(Generator, BiasConesCreateBiasedNets) {
  CircuitSpec spec;
  spec.num_inputs = 24;
  spec.num_outputs = 8;
  spec.num_gates = 600;
  spec.seed = 7;
  spec.bias_cone_fraction = 0.2;
  const Netlist nl = GenerateCircuit(spec);
  const std::vector<double> probs = EstimateSignalProbabilities(nl, 8192, 7);
  size_t strongly_biased = 0;
  for (NetId n = 0; n < nl.NumNets(); ++n) {
    const GateId d = nl.DriverOf(n);
    if (d == kNullId || IsSourceOp(nl.gate(d).op)) continue;
    if (std::max(probs[n], 1.0 - probs[n]) > 0.9) ++strongly_biased;
  }
  EXPECT_GT(strongly_biased, 10u);
}

TEST(Generator, RespectsDifferentSeeds) {
  CircuitSpec spec;
  spec.num_inputs = 12;
  spec.num_outputs = 6;
  spec.num_gates = 150;
  spec.seed = 1;
  const Netlist a = GenerateCircuit(spec);
  spec.seed = 2;
  const Netlist b = GenerateCircuit(spec);
  EXPECT_FALSE(RandomPatternsAgree(a, b, 256, 3));
}

}  // namespace
}  // namespace splitlock::circuits
