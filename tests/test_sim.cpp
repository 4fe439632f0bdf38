#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "circuits/c17.hpp"
#include "circuits/random_circuit.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace splitlock {
namespace {

TEST(Simulator, C17TruthSamples) {
  const Netlist nl = circuits::MakeC17();
  Simulator sim(nl);
  // Column 0 sets every input to 0, column 1 every input to 1.
  sim.BeginBatch(2);
  sim.SetInputColumn(0, std::vector<uint64_t>(nl.inputs().size(), 0));
  sim.SetInputColumn(1, std::vector<uint64_t>(nl.inputs().size(), ~0ULL));
  sim.RunBatch();
  // G22 = NAND(G10, G16); with all inputs 0: G10=1, G11=1, G16=1 -> G22=0.
  EXPECT_EQ(sim.BatchOutputWord(0, 0) & 1, 0u);  // G22
  EXPECT_EQ(sim.BatchOutputWord(1, 0) & 1, 0u);  // G23
  // All inputs 1: G10 = NAND(1,1) = 0 -> G22 = 1. G11 = 0, G16 = 1,
  // G19 = 1, G23 = NAND(1,1) = 0.
  EXPECT_EQ(sim.BatchOutputWord(0, 1) & 1, 1u);
  EXPECT_EQ(sim.BatchOutputWord(1, 1) & 1, 0u);
}

TEST(Simulator, LanesAreIndependent) {
  const Netlist nl = circuits::MakeC17();
  Simulator sim(nl);
  // Lane 0: all zeros; lane 1: all ones.
  sim.BeginBatch(1);
  sim.SetInputColumn(0, std::vector<uint64_t>(nl.inputs().size(), 0b10));
  sim.RunBatch();
  EXPECT_EQ(sim.BatchOutputWord(0, 0) & 0b11, 0b10u);
}

TEST(Simulator, KeyBitsBindKeyInputs) {
  Netlist nl("k");
  const NetId a = nl.AddInput("a");
  const NetId k = nl.AddGate(GateOp::kKeyIn, {}, "key_0");
  const NetId y = nl.AddGate(GateOp::kXor, {a, k});
  nl.AddOutput(y, "y");

  Simulator sim(nl);
  const std::vector<uint8_t> key0 = {0};
  const std::vector<uint8_t> key1 = {1};
  const std::vector<uint64_t> pi_words = {0b01};
  sim.BeginBatch(1);
  sim.SetInputColumn(0, pi_words);
  sim.SetKeyBitsBatch(key0);
  sim.RunBatch();
  EXPECT_EQ(sim.BatchOutputWord(0, 0) & 0b11, 0b01u);  // transparent
  sim.SetKeyBitsBatch(key1);
  sim.RunBatch();
  EXPECT_EQ(sim.BatchOutputWord(0, 0) & 0b11, 0b10u);  // inverting
}

TEST(Simulator, TieCellsProduceConstants) {
  Netlist nl("tie");
  const NetId a = nl.AddInput("a");
  const NetId hi = nl.AddGate(GateOp::kTieHi, {});
  const NetId lo = nl.AddGate(GateOp::kTieLo, {});
  nl.AddOutput(nl.AddGate(GateOp::kAnd, {a, hi}), "y1");
  nl.AddOutput(nl.AddGate(GateOp::kOr, {a, lo}), "y2");
  Simulator sim(nl);
  const std::vector<uint64_t> pi_words = {0b10};
  sim.BeginBatch(1);
  sim.SetInputColumn(0, pi_words);
  sim.RunBatch();
  EXPECT_EQ(sim.BatchOutputWord(0, 0) & 0b11, 0b10u);
  EXPECT_EQ(sim.BatchOutputWord(1, 0) & 0b11, 0b10u);
}

TEST(SignalProbabilities, UniformInputsNearHalf) {
  Netlist nl("p");
  const NetId a = nl.AddInput("a");
  const NetId b = nl.AddInput("b");
  const NetId y = nl.AddGate(GateOp::kAnd, {a, b});
  nl.AddOutput(y, "y");
  const std::vector<double> probs = EstimateSignalProbabilities(nl, 16384, 5);
  EXPECT_NEAR(probs[a], 0.5, 0.03);
  EXPECT_NEAR(probs[b], 0.5, 0.03);
  EXPECT_NEAR(probs[y], 0.25, 0.03);
}

TEST(SignalProbabilities, WideAndIsStronglyBiased) {
  Netlist nl("wide");
  std::vector<NetId> ins;
  for (int i = 0; i < 8; ++i) ins.push_back(nl.AddInput("i" + std::to_string(i)));
  NetId acc = nl.AddGate(GateOp::kAnd,
                         std::array<NetId, 4>{ins[0], ins[1], ins[2], ins[3]});
  NetId acc2 = nl.AddGate(GateOp::kAnd,
                          std::array<NetId, 4>{ins[4], ins[5], ins[6], ins[7]});
  const NetId y = nl.AddGate(GateOp::kAnd, {acc, acc2});
  nl.AddOutput(y, "y");
  const std::vector<double> probs = EstimateSignalProbabilities(nl, 65536, 7);
  EXPECT_NEAR(probs[y], 1.0 / 256.0, 0.01);
}

TEST(ToggleRates, ConstantNetNeverToggles) {
  Netlist nl("t");
  const NetId a = nl.AddInput("a");
  const NetId hi = nl.AddGate(GateOp::kTieHi, {});
  const NetId y = nl.AddGate(GateOp::kAnd, {a, hi});
  nl.AddOutput(y, "y");
  const std::vector<double> rates = EstimateToggleRates(nl, 4096, 3);
  EXPECT_DOUBLE_EQ(rates[hi], 0.0);
  EXPECT_NEAR(rates[a], 0.5, 0.05);
  EXPECT_NEAR(rates[y], 0.5, 0.05);
}

TEST(ToggleRates, XorOfIndependentInputsTogglesMore) {
  Netlist nl("x");
  const NetId a = nl.AddInput("a");
  const NetId b = nl.AddInput("b");
  const NetId and_net = nl.AddGate(GateOp::kAnd, {a, b});
  const NetId xor_net = nl.AddGate(GateOp::kXor, {a, b});
  nl.AddOutput(and_net, "y1");
  nl.AddOutput(xor_net, "y2");
  const std::vector<double> rates = EstimateToggleRates(nl, 16384, 11);
  // AND toggles with rate 2*(1/4)*(3/4) = 0.375; XOR with 0.5.
  EXPECT_NEAR(rates[and_net], 0.375, 0.03);
  EXPECT_NEAR(rates[xor_net], 0.5, 0.03);
}

// Net words of `nl` by EvalGateWord over TopoOrder(), the definition the
// compiled kernel must match. `values` holds the source nets' words (other
// entries 0); nets of deleted gates keep 0.
std::vector<uint64_t> ReferenceWords(const Netlist& nl,
                                     std::vector<uint64_t> values) {
  uint64_t fanins[kMaxFanin];
  for (GateId g : nl.TopoOrder()) {
    const Gate& gate = nl.gate(g);
    if (gate.op == GateOp::kInput || gate.op == GateOp::kKeyIn ||
        gate.op == GateOp::kOutput) {
      continue;
    }
    const size_t n = gate.fanins.size();
    for (size_t i = 0; i < n; ++i) fanins[i] = values[gate.fanins[i]];
    values[gate.out] =
        EvalGateWord(gate.op, std::span<const uint64_t>(fanins, n));
  }
  return values;
}

// Every net word and output word of RunBatch() at widths 1, 5, 32 and 33
// on the same simulator, against ReferenceWords. Primary inputs get random
// words column by column, key inputs random rows.
void ExpectKernelMatchesReference(const Netlist& nl) {
  Rng rng(17);
  Simulator sim(nl);
  for (size_t width : {1, 5, 32, 33}) {
    sim.BeginBatch(width);
    std::vector<std::vector<uint64_t>> columns(
        width, std::vector<uint64_t>(nl.NumNets(), 0));
    std::vector<uint64_t> pi_words(nl.inputs().size());
    for (size_t w = 0; w < width; ++w) {
      for (size_t i = 0; i < pi_words.size(); ++i) {
        pi_words[i] = rng.NextWord();
        columns[w][nl.gate(nl.inputs()[i]).out] = pi_words[i];
      }
      sim.SetInputColumn(w, pi_words);
    }
    std::vector<uint64_t> row(width);
    for (GateId k : nl.KeyInputs()) {
      for (size_t w = 0; w < width; ++w) {
        row[w] = rng.NextWord();
        columns[w][nl.gate(k).out] = row[w];
      }
      sim.SetSourceBatch(k, row);
    }
    sim.RunBatch();
    for (size_t w = 0; w < width; ++w) {
      SCOPED_TRACE("width " + std::to_string(width) + " column " +
                   std::to_string(w));
      const std::vector<uint64_t> want = ReferenceWords(nl, columns[w]);
      for (NetId n = 0; n < nl.NumNets(); ++n) {
        ASSERT_EQ(sim.BatchNetWord(n, w), want[n]) << "net " << n;
      }
      for (size_t o = 0; o < nl.outputs().size(); ++o) {
        ASSERT_EQ(sim.BatchOutputWord(o, w),
                  want[nl.gate(nl.outputs()[o]).fanins[0]])
            << "output " << o;
      }
    }
  }
}

// Every op at every arity AddGate admits, key inputs, constants and a
// deleted gate. Generated circuits never build AND4, OR4, NOR4 or MUX.
Netlist EveryOpNetlist() {
  Netlist nl("ops");
  const NetId a = nl.AddInput("a");
  const NetId b = nl.AddInput("b");
  const NetId c = nl.AddInput("c");
  const NetId d = nl.AddInput("d");
  const NetId k0 = nl.AddGate(GateOp::kKeyIn, {}, "key_0");
  const NetId k1 = nl.AddGate(GateOp::kKeyIn, {}, "key_1");
  const NetId ab = nl.AddGate(GateOp::kXor, {a, k0});
  const NetId cd = nl.AddGate(GateOp::kXnor, {c, k1});
  std::vector<NetId> observed = {ab, cd};
  for (GateOp op : {GateOp::kAnd, GateOp::kNand, GateOp::kOr, GateOp::kNor}) {
    observed.push_back(nl.AddGate(op, {ab, b}));
    observed.push_back(nl.AddGate(op, {ab, b, cd}));
    observed.push_back(nl.AddGate(op, {a, b, cd, d}));
  }
  const NetId mux = nl.AddGate(GateOp::kMux, {observed[2], observed[5], d});
  const NetId buf = nl.AddGate(GateOp::kBuf, {mux});
  observed.push_back(nl.AddGate(GateOp::kInv, {buf}));
  const NetId hi = nl.AddGate(GateOp::kTieHi, {});
  const NetId lo = nl.AddGate(GateOp::kTieLo, {});
  const NetId one = nl.AddGate(GateOp::kConst1, {});
  const NetId zero = nl.AddGate(GateOp::kConst0, {});
  observed.push_back(nl.AddGate(GateOp::kAnd, {a, hi}));
  observed.push_back(nl.AddGate(GateOp::kOr, {b, lo}));
  observed.push_back(nl.AddGate(GateOp::kXor, {c, one}));
  observed.push_back(nl.AddGate(GateOp::kNor, {d, zero}));
  const NetId dead = nl.AddGate(GateOp::kNand, {a, d});
  nl.DeleteGate(nl.DriverOf(dead));
  for (NetId n : observed) nl.AddOutput(n, "");
  return nl;
}

TEST(Simulator, KernelMatchesEvalGateWordOnEveryOp) {
  const Netlist nl = EveryOpNetlist();
  ASSERT_EQ(nl.Validate(), "");
  ExpectKernelMatchesReference(nl);
}

// A reused simulator's batch must not see its earlier batches: any
// BeginBatch that clears less than the whole buffer has to keep this.
// Batches at widths 3, 3, 5 and 2 run on one simulator, binding every key
// input to 1 on the first and third and no key on the others, so stale key
// words must not survive a repeated, a grown or a shrunk width: every word
// of each batch must equal a fresh simulator's.
TEST(Simulator, ReusedBatchMatchesAFreshSimulator) {
  const Netlist nl = EveryOpNetlist();
  ASSERT_FALSE(nl.KeyInputs().empty());
  const std::vector<uint8_t> ones(nl.KeyInputs().size(), 1);
  Rng rng(23);
  const auto run = [&](Simulator& sim, size_t width, bool bind_keys,
                       const std::vector<std::vector<uint64_t>>& rows) {
    sim.BeginBatch(width);
    if (bind_keys) sim.SetKeyBitsBatch(ones);
    for (size_t i = 0; i < rows.size(); ++i) {
      sim.SetSourceBatch(nl.inputs()[i], rows[i]);
    }
    sim.RunBatch();
  };

  Simulator reused(nl);
  const std::pair<size_t, bool> batches[] = {
      {3, true}, {3, false}, {5, true}, {2, false}};
  for (const auto& [width, bind_keys] : batches) {
    std::vector<std::vector<uint64_t>> rows(nl.inputs().size(),
                                            std::vector<uint64_t>(width));
    for (std::vector<uint64_t>& row : rows) {
      for (uint64_t& w : row) w = rng.NextWord();
    }
    run(reused, width, bind_keys, rows);
    Simulator fresh(nl);
    run(fresh, width, bind_keys, rows);
    for (NetId n = 0; n < nl.NumNets(); ++n) {
      for (size_t w = 0; w < width; ++w) {
        ASSERT_EQ(reused.BatchNetWord(n, w), fresh.BatchNetWord(n, w))
            << "width " << width << " net " << n << " word " << w;
      }
    }
  }
}

TEST(Simulator, KernelMatchesEvalGateWordOnGeneratedCircuit) {
  circuits::CircuitSpec spec;
  spec.num_inputs = 16;
  spec.num_outputs = 8;
  spec.num_gates = 300;
  spec.seed = 41;
  ExpectKernelMatchesReference(circuits::GenerateCircuit(spec));
}

TEST(Simulator, GeneratedCircuitRunsDeterministically) {
  circuits::CircuitSpec spec;
  spec.num_inputs = 16;
  spec.num_outputs = 8;
  spec.num_gates = 300;
  spec.seed = 99;
  const Netlist nl = circuits::GenerateCircuit(spec);
  Rng rng(5);
  std::vector<uint64_t> pi_words(nl.inputs().size());
  for (uint64_t& v : pi_words) v = rng.NextWord();
  Simulator s1(nl);
  Simulator s2(nl);
  for (Simulator* sim : {&s1, &s2}) {
    sim->BeginBatch(1);
    sim->SetInputColumn(0, pi_words);
    sim->RunBatch();
  }
  for (size_t o = 0; o < nl.outputs().size(); ++o) {
    EXPECT_EQ(s1.BatchOutputWord(o, 0), s2.BatchOutputWord(o, 0));
  }
}

}  // namespace
}  // namespace splitlock
