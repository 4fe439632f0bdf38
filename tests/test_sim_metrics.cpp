#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "circuits/c17.hpp"
#include "circuits/random_circuit.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

namespace splitlock {
namespace {

Netlist InvertedOutputCopy(const Netlist& nl, size_t which_output) {
  // Same circuit with one output complemented.
  Netlist out = nl;
  const GateId po = out.outputs()[which_output];
  const NetId observed = out.gate(po).fanins[0];
  const NetId inv = out.AddGate(GateOp::kInv, {observed});
  out.ReplaceFanin(po, 0, inv);
  return out;
}

TEST(CompareFunctional, IdenticalNetlistsZeroDiff) {
  const Netlist nl = circuits::MakeC17();
  const FunctionalDiff d = CompareFunctional(nl, nl, 1000, 1);
  EXPECT_DOUBLE_EQ(d.hd_percent, 0.0);
  EXPECT_DOUBLE_EQ(d.oer_percent, 0.0);
  EXPECT_EQ(d.patterns, 1000u);
}

TEST(CompareFunctional, OneInvertedOutputOfTwo) {
  const Netlist nl = circuits::MakeC17();
  const Netlist broken = InvertedOutputCopy(nl, 0);
  const FunctionalDiff d = CompareFunctional(nl, broken, 2048, 2);
  // One of two output bits always differs: HD = 50%, OER = 100%.
  EXPECT_NEAR(d.hd_percent, 50.0, 0.01);
  EXPECT_NEAR(d.oer_percent, 100.0, 0.01);
}

TEST(CompareFunctional, BothOutputsInverted) {
  const Netlist nl = circuits::MakeC17();
  const Netlist broken = InvertedOutputCopy(InvertedOutputCopy(nl, 0), 1);
  const FunctionalDiff d = CompareFunctional(nl, broken, 2048, 3);
  EXPECT_NEAR(d.hd_percent, 100.0, 0.01);
  EXPECT_NEAR(d.oer_percent, 100.0, 0.01);
}

TEST(CompareFunctional, PartialWordPatternCountsExact) {
  const Netlist nl = circuits::MakeC17();
  const Netlist broken = InvertedOutputCopy(nl, 0);
  // 100 is not a multiple of 64; masking must keep the rates exact.
  const FunctionalDiff d = CompareFunctional(nl, broken, 100, 4);
  EXPECT_NEAR(d.hd_percent, 50.0, 0.01);
  EXPECT_NEAR(d.oer_percent, 100.0, 0.01);
}

TEST(RandomPatternsAgree, DetectsEquivalence) {
  const Netlist nl = circuits::MakeC17();
  EXPECT_TRUE(RandomPatternsAgree(nl, nl, 512, 5));
}

TEST(RandomPatternsAgree, DetectsDifference) {
  const Netlist nl = circuits::MakeC17();
  const Netlist broken = InvertedOutputCopy(nl, 1);
  EXPECT_FALSE(RandomPatternsAgree(nl, broken, 512, 6));
}

// A keyed copy of `nl`: output 0 flips when key bit 0 and inputs 0..k-1 are
// all 1 (a difference on about one pattern in 2^k), output 1 flips with key
// bit 1 (a difference on every pattern).
Netlist KeyedFlipCopy(const Netlist& nl, size_t k) {
  Netlist out = nl;
  NetId rare = out.AddGate(GateOp::kKeyIn, {}, "key_0");
  for (size_t i = 0; i < k; ++i) {
    rare = out.AddGate(GateOp::kAnd, {rare, out.gate(out.inputs()[i]).out});
  }
  const NetId always = out.AddGate(GateOp::kKeyIn, {}, "key_1");
  const NetId flips[2] = {rare, always};
  for (size_t o = 0; o < 2; ++o) {
    const GateId po = out.outputs()[o];
    const NetId observed = out.gate(po).fanins[0];
    out.ReplaceFanin(po, 0, out.AddGate(GateOp::kXor, {observed, flips[o]}));
  }
  return out;
}

// Checks CheckKeyBitFlips(reference, keyed, patterns, seeds, key, first)
// bit by bit against RandomPatternsAgree with that bit flipped: the answer,
// the stop after the first inactive bit, and the words a word-at-a-time
// check would simulate (the prefix before the bit's last counted word
// agrees, the prefix through it does not). Returns the checks.
std::vector<KeyBitCheck> ExpectKeyBitFlipsMatch(
    const Netlist& reference, const Netlist& keyed, Simulator& reference_sim,
    Simulator& keyed_sim, uint64_t patterns, std::span<const uint64_t> seeds,
    std::span<const uint8_t> key, size_t first) {
  const std::vector<KeyBitCheck> checks = CheckKeyBitFlips(
      reference_sim, keyed_sim, patterns, seeds, key, first);
  const uint64_t num_words = (patterns + 63) / 64;
  std::vector<uint8_t> flipped(key.begin(), key.end());
  for (size_t i = 0; i < checks.size(); ++i) {
    const size_t b = first + i;
    SCOPED_TRACE("patterns " + std::to_string(patterns) + " bit " +
                 std::to_string(b));
    flipped[b] ^= 1;
    EXPECT_EQ(checks[i].active, !RandomPatternsAgree(reference, keyed,
                                                     patterns, seeds[i], {},
                                                     flipped));
    if (checks[i].active) {
      EXPECT_GE(checks[i].words, 1u);
      EXPECT_LE(checks[i].words, num_words);
      EXPECT_TRUE(RandomPatternsAgree(reference, keyed,
                                      (checks[i].words - 1) * 64, seeds[i],
                                      {}, flipped));
      EXPECT_FALSE(RandomPatternsAgree(
          reference, keyed, std::min(checks[i].words * 64, patterns),
          seeds[i], {}, flipped));
    } else {
      EXPECT_EQ(checks[i].words, num_words);
      EXPECT_EQ(i + 1, checks.size()) << "checks go on past a dead bit";
    }
    flipped[b] ^= 1;
  }
  if (checks.empty() || checks.back().active) {
    EXPECT_EQ(checks.size(), key.size() - first);
  }
  return checks;
}

// PatternResponses and CheckKeyBitFlips must answer exactly what
// RandomPatternsAgree answers, on partial final words too, with simulators
// reused across calls and keys.
TEST(RepeatedChecks, MatchRandomPatternsAgree) {
  size_t agree_cases = 0;
  size_t differ_cases = 0;
  size_t tail_only_cases = 0;  // differences only in a final word's dead lanes
  size_t word0_bits = 0;       // bit checks decided by word 0
  size_t later_bits = 0;       // active bits decided by a later word
  size_t dead_bits = 0;
  for (uint64_t circuit_seed : {1, 2, 3}) {
    circuits::CircuitSpec spec;
    spec.num_inputs = 16;
    spec.num_outputs = 4;
    spec.num_gates = 120;
    spec.seed = circuit_seed;
    const Netlist reference = circuits::GenerateCircuit(spec);
    for (size_t k : {1, 5, 9}) {
      const Netlist keyed = KeyedFlipCopy(reference, k);
      Simulator reference_sim(reference);
      Simulator keyed_sim(keyed);
      const std::vector<std::vector<uint8_t>> keys = {
          {0, 0}, {1, 0}, {0, 1}, {}, {1, 1}};
      for (const std::vector<uint8_t>& key : keys) {
        for (uint64_t patterns : {0, 1, 63, 64, 65, 70, 100, 129, 640, 1000}) {
          const uint64_t seed = circuit_seed * 7919 + k * 131 + patterns;
          const bool agree =
              RandomPatternsAgree(reference, keyed, patterns, seed, {}, key);
          EXPECT_EQ(PatternResponses(reference_sim, patterns, seed) ==
                        PatternResponses(keyed_sim, patterns, seed, key),
                    agree);
          ++(agree ? agree_cases : differ_cases);
          const uint64_t num_words = (patterns + 63) / 64;
          if (agree && !RandomPatternsAgree(reference, keyed, num_words * 64,
                                            seed, {}, key)) {
            ++tail_only_cases;
          }
          if (key.empty()) continue;  // no key bits to flip
          const std::vector<uint64_t> seeds = {seed, seed ^ 0x51D0};
          for (size_t first : {0, 1}) {
            for (const KeyBitCheck& check : ExpectKeyBitFlipsMatch(
                     reference, keyed, reference_sim, keyed_sim, patterns,
                     std::span<const uint64_t>(seeds).subspan(first), key,
                     first)) {
              if (!check.active) {
                ++dead_bits;
              } else {
                ++(check.words == 1 ? word0_bits : later_bits);
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(agree_cases, 0u);
  EXPECT_GT(differ_cases, 0u);
  EXPECT_GT(tail_only_cases, 0u);
  EXPECT_GT(word0_bits, 0u);
  EXPECT_GT(later_bits, 0u);
  EXPECT_GT(dead_bits, 0u);
}

// More key bits than one batch holds: word 0 of bits 0-31 and of bits 32-39
// run as two batches. Key bit i flips output i % 4 on the patterns where
// inputs i .. i + i % 4 - 1 (mod 16) are all 1; bit `dead` reaches no
// output, so the checks stop there.
TEST(RepeatedChecks, KeyBitFlipsSpanSeveralBatches) {
  circuits::CircuitSpec spec;
  spec.num_inputs = 16;
  spec.num_outputs = 4;
  spec.num_gates = 120;
  spec.seed = 4;
  const Netlist reference = circuits::GenerateCircuit(spec);
  constexpr size_t kBits = 40;
  for (size_t dead : {kBits, size_t{37}}) {
    Netlist keyed = reference;
    for (size_t i = 0; i < kBits; ++i) {
      NetId term =
          keyed.AddGate(GateOp::kKeyIn, {}, "key_" + std::to_string(i));
      if (i == dead) continue;
      for (size_t j = 0; j < i % 4; ++j) {
        const NetId in = keyed.gate(keyed.inputs()[(i + j) % 16]).out;
        term = keyed.AddGate(GateOp::kAnd, {term, in});
      }
      const GateId po = keyed.outputs()[i % 4];
      const NetId observed = keyed.gate(po).fanins[0];
      keyed.ReplaceFanin(po, 0, keyed.AddGate(GateOp::kXor, {observed, term}));
    }
    Simulator reference_sim(reference);
    Simulator keyed_sim(keyed);
    const std::vector<uint8_t> key(kBits, 0);
    std::vector<uint64_t> seeds;
    for (size_t b = 0; b < kBits; ++b) seeds.push_back(1000 + b);
    for (size_t first : {size_t{0}, size_t{5}}) {
      SCOPED_TRACE("dead bit " + std::to_string(dead) + " first " +
                   std::to_string(first));
      const std::vector<KeyBitCheck> checks = ExpectKeyBitFlipsMatch(
          reference, keyed, reference_sim, keyed_sim, 2048,
          std::span<const uint64_t>(seeds).subspan(first), key, first);
      EXPECT_EQ(checks.size(), std::min(dead + 1, kBits) - first);
    }
  }
}

TEST(CompareFunctional, KeyBindingsRespected) {
  Netlist plain("p");
  const NetId a = plain.AddInput("a");
  plain.AddOutput(a, "y");

  Netlist keyed("k");
  const NetId ka = keyed.AddInput("a");
  const NetId k0 = keyed.AddGate(GateOp::kKeyIn, {}, "key_0");
  keyed.AddOutput(keyed.AddGate(GateOp::kXor, {ka, k0}), "y");

  const std::vector<uint8_t> good = {0};
  const std::vector<uint8_t> bad = {1};
  EXPECT_TRUE(RandomPatternsAgree(plain, keyed, 256, 7, {}, good));
  const FunctionalDiff d = CompareFunctional(plain, keyed, 256, 7, {}, bad);
  EXPECT_NEAR(d.hd_percent, 100.0, 0.01);
}

TEST(CompareFunctional, SubtleDifferenceLowHd) {
  // y = a AND b vs y = a AND b AND c: differ only when a=b=1, c=0 (1/8).
  Netlist lhs("l");
  {
    const NetId a = lhs.AddInput("a");
    const NetId b = lhs.AddInput("b");
    lhs.AddInput("c");
    lhs.AddOutput(lhs.AddGate(GateOp::kAnd, {a, b}), "y");
  }
  Netlist rhs("r");
  {
    const NetId a = rhs.AddInput("a");
    const NetId b = rhs.AddInput("b");
    const NetId c = rhs.AddInput("c");
    rhs.AddOutput(rhs.AddGate(GateOp::kAnd, {a, b, c}), "y");
  }
  const FunctionalDiff d = CompareFunctional(lhs, rhs, 1 << 16, 8);
  EXPECT_NEAR(d.hd_percent, 12.5, 0.6);
  EXPECT_NEAR(d.oer_percent, 12.5, 0.6);
}

}  // namespace
}  // namespace splitlock
