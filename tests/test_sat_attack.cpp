// The oracle-guided SAT attack and its building blocks: key recovery,
// golden DIP/conflict/key digests and registry work counts on c432, c880
// and c1355, the key-copy sweep's budget and soundness, the incremental
// DIP encoder against full EncodeNetlist, and the oracle-less key-space
// probe.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "attack/sat_attack.hpp"
#include "circuits/c17.hpp"
#include "circuits/random_circuit.hpp"
#include "circuits/suites.hpp"
#include "lec/lec.hpp"
#include "lock/atpg_lock.hpp"
#include "lock/epic.hpp"
#include "obs/metrics.hpp"
#include "sat/solver.hpp"
#include "sat/tseitin.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace splitlock::attack {
namespace {

Netlist TestCircuit(uint64_t seed, size_t gates = 400) {
  circuits::CircuitSpec spec;
  spec.num_inputs = 16;
  spec.num_outputs = 8;
  spec.num_gates = gates;
  spec.seed = seed;
  spec.bias_cone_fraction = 0.15;
  return circuits::GenerateCircuit(spec);
}

Netlist RandomCircuit(uint64_t seed, size_t gates = 300, size_t inputs = 14,
                      size_t outputs = 8) {
  circuits::CircuitSpec spec;
  spec.num_inputs = inputs;
  spec.num_outputs = outputs;
  spec.num_gates = gates;
  spec.seed = seed;
  return circuits::GenerateCircuit(spec);
}

TEST(SatAttack, RecoversEpicKeyGivenOracle) {
  // With an oracle (which split manufacturing denies!), the classical SAT
  // attack dismantles random-insertion locking quickly.
  const Netlist original = circuits::MakeC17();
  Rng rng(1);
  const lock::EpicResult locked = lock::LockWithEpic(original, 6, rng);
  const SatAttackResult r = RunSatAttack(locked.locked, original);
  EXPECT_TRUE(r.finished);
  EXPECT_TRUE(r.key_found);
  EXPECT_TRUE(r.functionally_correct);
}

TEST(SatAttack, RecoversAtpgLockKeyGivenOracle) {
  const Netlist original = TestCircuit(2);
  lock::AtpgLockOptions opts;
  opts.key_bits = 24;
  opts.seed = 2;
  opts.verify_lec = false;
  const lock::AtpgLockResult locked = lock::LockWithAtpg(original, opts);
  const SatAttackResult r = RunSatAttack(locked.locked, original);
  EXPECT_TRUE(r.finished);
  EXPECT_TRUE(r.key_found);
  // The recovered key must be *functionally* correct (it may differ
  // bitwise from the designer key, e.g. in parity-padded pairs).
  EXPECT_TRUE(r.functionally_correct);
  EXPECT_GT(r.dips_used, 0u);
}

TEST(SatAttack, RecoveredKeyCanDifferBitwise) {
  // Parity-padded chains admit multiple functionally-correct keys, so the
  // SAT attack's key need not match the designer's bit-for-bit; check the
  // library reports functional correctness, not bit equality.
  const Netlist original = TestCircuit(3);
  lock::AtpgLockOptions opts;
  opts.key_bits = 16;
  opts.seed = 3;
  opts.verify_lec = false;
  const lock::AtpgLockResult locked = lock::LockWithAtpg(original, opts);
  const SatAttackResult r = RunSatAttack(locked.locked, original);
  ASSERT_TRUE(r.key_found);
  EXPECT_TRUE(r.functionally_correct);
  EXPECT_EQ(r.recovered_key.size(), locked.key.size());
}

TEST(SatAttack, DipBudgetRespected) {
  const Netlist original = TestCircuit(4);
  lock::AtpgLockOptions opts;
  opts.key_bits = 24;
  opts.seed = 4;
  opts.verify_lec = false;
  const lock::AtpgLockResult locked = lock::LockWithAtpg(original, opts);
  SatAttackOptions aopts;
  aopts.max_dips = 1;  // starve the attack
  const SatAttackResult r = RunSatAttack(locked.locked, original, aopts);
  if (!r.finished) {
    EXPECT_FALSE(r.key_found);
    EXPECT_LE(r.dips_used, 1u);
  }
}

TEST(SatAttack, MultiDipRoundsRecoverEquivalentKey) {
  // Every round but the last finds one DIP and queries the oracle on it;
  // the last round's miter solve proves no DIP is left.
  const Netlist original = TestCircuit(10);
  lock::AtpgLockOptions opts;
  opts.key_bits = 24;
  opts.seed = 10;
  opts.verify_lec = false;
  const lock::AtpgLockResult locked = lock::LockWithAtpg(original, opts);

  const SatAttackResult r = RunSatAttack(locked.locked, original);
  ASSERT_TRUE(r.finished);
  EXPECT_TRUE(r.key_found);
  EXPECT_TRUE(r.functionally_correct);
  ASSERT_GT(r.dips_used, 1u);
  EXPECT_EQ(r.telemetry.rounds.size(), r.dips_used + 1);
  EXPECT_EQ(r.telemetry.oracle_queries, r.dips_used);
}

TEST(SatAttack, WideRoundsRespectDipBudget) {
  // max_dips caps the DIPs spent whether or not the attack finishes.
  const Netlist original = TestCircuit(4);
  lock::AtpgLockOptions opts;
  opts.key_bits = 24;
  opts.seed = 4;
  opts.verify_lec = false;
  const lock::AtpgLockResult locked = lock::LockWithAtpg(original, opts);
  SatAttackOptions aopts;
  aopts.max_dips = 3;
  const SatAttackResult r = RunSatAttack(locked.locked, original, aopts);
  EXPECT_LE(r.dips_used, 3u);
}

std::string KeyBits(const std::vector<uint8_t>& key) {
  std::string bits;
  for (const uint8_t b : key) bits += b ? '1' : '0';
  return bits;
}

// The solver work one attack added to the registry: its DIP rounds' and
// its key extraction's solves.
struct SolverWorkCounts {
  uint64_t conflicts;
  uint64_t decisions;
  uint64_t propagations;
  bool operator==(const SolverWorkCounts&) const = default;
};

void PrintTo(const SolverWorkCounts& w, std::ostream* os) {
  *os << "{conflicts " << w.conflicts << ", decisions " << w.decisions
      << ", propagations " << w.propagations << "}";
}

// What the registry counted since `before`.
obs::MetricsSnapshot CountedSince(const obs::MetricsSnapshot& before) {
  return obs::MetricsSnapshot::Delta(before,
                                     obs::Registry::Instance().Snapshot());
}

uint64_t CountOf(const obs::MetricsSnapshot& delta, const std::string& name) {
  const auto it = delta.counts.find(name);
  return it == delta.counts.end() ? 0 : it->second;
}

SolverWorkCounts WorkCounts(const obs::MetricsSnapshot& delta) {
  return {CountOf(delta, "attack.sat.conflicts"),
          CountOf(delta, "attack.sat.decisions"),
          CountOf(delta, "attack.sat.propagations")};
}

lock::AtpgLockResult IscasLock(const std::string& circuit, uint64_t seed) {
  lock::AtpgLockOptions opts;
  opts.key_bits = 64;
  opts.seed = seed;
  return lock::LockWithAtpg(circuits::MakeIscas(circuit), opts);
}

// A circuit's 64-bit lock at lock seed 1, attacked by the sequential DIP
// loop: its DIP count, the telemetry's conflict total, the registry's work
// counts and the recovered key.
struct SequentialGolden {
  const char* circuit;
  size_t dips;
  uint64_t total_conflicts;
  SolverWorkCounts counted;
  const char* key;
};

// Pins `golden`'s sequential attack: any change to the DIP sequence, the
// clause stream or the solver trajectory shows here. Returns the registry
// counts the attack added.
obs::MetricsSnapshot ExpectSequentialGolden(const SequentialGolden& golden) {
  SCOPED_TRACE(golden.circuit);
  const Netlist original = circuits::MakeIscas(golden.circuit);
  const lock::AtpgLockResult locked = IscasLock(golden.circuit, 1);
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  const SatAttackResult seq = RunSatAttack(locked.locked, original);
  const obs::MetricsSnapshot delta = CountedSince(before);
  const SolverWorkCounts counted = WorkCounts(delta);
  EXPECT_EQ(counted, golden.counted);
  EXPECT_EQ(counted.conflicts, seq.telemetry.total_conflicts);
  EXPECT_TRUE(seq.finished);
  EXPECT_TRUE(seq.functionally_correct);
  EXPECT_EQ(seq.dips_used, golden.dips);
  EXPECT_EQ(seq.telemetry.total_conflicts, golden.total_conflicts);
  EXPECT_EQ(KeyBits(seq.recovered_key), golden.key);
  return delta;
}

TEST(SatAttack, GoldenDigests) {
  // c432 under the 64-bit lock AtpgLock.GoldenLockDigests pins.
  ExpectSequentialGolden(
      {"c432", 40, 17059, {17059, 59821, 4174468},
       "0010000000001010100101011101100000000101110111101101011101011101"});
}

TEST(SatAttack, GoldenDigestsC880) {
  // c880, the iscas-sat benchmark's second instance: a second miter shape
  // for the sequential loop's pins.
  ExpectSequentialGolden(
      {"c880", 20, 8707, {8707, 30229, 823327},
       "0000111010001110110111011000111100101100101110100110000000001100"});
}

TEST(SatAttack, GoldenDigestsC1355) {
  // c1355, the benchmark's heaviest lock: its termination proof is where
  // the key-copy sweep pays, so some sweep proof must succeed.
  const obs::MetricsSnapshot delta = ExpectSequentialGolden(
      {"c1355", 39, 13486, {13486, 40710, 3281666},
       "1101001100110101011110101110010001001100010000111100000101110101"});
  EXPECT_GT(CountOf(delta, "attack.sat.sweep.proven"), 0u);
}

TEST(SatAttack, SweepRespectsConflictBudget) {
  // A budget that runs out a few conflicts into the first sweep: the
  // attack stops there unfinished, and no sweep proof spends past it.
  const Netlist original = circuits::MakeIscas("c880");
  const lock::AtpgLockResult locked = IscasLock("c880", 1);
  const SatAttackResult full = RunSatAttack(locked.locked, original);
  ASSERT_TRUE(full.finished);

  // A round that spent more than kSweepConflicts paused to sweep; the
  // first one starts where the rounds before it end.
  uint64_t sweep_start = 0;
  size_t round = 0;
  while (round < full.telemetry.rounds.size() &&
         full.telemetry.rounds[round].conflicts <= kSweepConflicts) {
    sweep_start += full.telemetry.rounds[round].conflicts;
    ++round;
  }
  ASSERT_LT(round, full.telemetry.rounds.size());

  SatAttackOptions options;
  options.conflict_budget = sweep_start + kSweepConflicts + 50;
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  const SatAttackResult cut = RunSatAttack(locked.locked, original, options);
  const obs::MetricsSnapshot delta = CountedSince(before);
  EXPECT_GT(CountOf(delta, "attack.sat.sweep.proofs"), 0u);
  EXPECT_FALSE(cut.finished);
  EXPECT_FALSE(cut.key_found);
  EXPECT_EQ(cut.dips_used, round);
  EXPECT_EQ(cut.telemetry.rounds.size(), round + 1);
  EXPECT_LE(cut.telemetry.total_conflicts, options.conflict_budget);
  EXPECT_EQ(CountOf(delta, "attack.sat.conflicts"),
            cut.telemetry.total_conflicts);
}

// Locks the sweep was not tuned on: every attack must finish with a key
// the LEC proves correct. A sweep that kept an equality it did not prove
// would end the DIP loop early with a wrong key.
class SweepCorpus
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(SweepCorpus, AttackFinishesWithLecProvenKey) {
  const auto [circuit, seed] = GetParam();
  const Netlist original = circuits::MakeIscas(circuit);
  const lock::AtpgLockResult locked = IscasLock(circuit, seed);
  const SatAttackResult r = RunSatAttack(locked.locked, original);
  ASSERT_TRUE(r.finished);
  ASSERT_TRUE(r.key_found);
  EXPECT_TRUE(r.functionally_correct);
  const LecResult lec =
      CheckEquivalence(original, locked.locked, {}, r.recovered_key);
  EXPECT_TRUE(lec.proven);
  EXPECT_TRUE(lec.equivalent);
}

INSTANTIATE_TEST_SUITE_P(
    IscasLocks, SweepCorpus,
    ::testing::Combine(::testing::Values(std::string("c432"),
                                         std::string("c880"),
                                         std::string("c1355")),
                       ::testing::Values(uint64_t{2}, uint64_t{3})),
    [](const auto& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(OracleLess, KeySpaceStaysRich) {
  // Without an oracle there is nothing to prune with: sampled keys keep
  // inducing many observably distinct functions and the FEOL cannot rank
  // them — the situation Theorem 1's brute-force bound formalizes. (The
  // observable count undercounts the true class count: parity-padded pairs
  // alias, and comparator bits whose difference sets are rare may not show
  // within the sampled patterns.)
  const Netlist original = TestCircuit(5, 600);
  lock::AtpgLockOptions opts;
  opts.key_bits = 32;
  opts.seed = 5;
  opts.verify_lec = false;
  const lock::AtpgLockResult locked = lock::LockWithAtpg(original, opts);
  const OracleLessProbe probe =
      ProbeOracleLessKeySpace(locked.locked, 256, 2048, 5);
  EXPECT_EQ(probe.sampled_keys, 256u);
  EXPECT_GT(probe.distinct_functions, 16u);  // > 4 bits of visible entropy
}

TEST(OracleLess, EpicKeysAreAllVisiblyDistinctish) {
  // EPIC key-gates invert live nets outright, so nearly every sampled key
  // shows a distinct behaviour even on few patterns.
  const Netlist original = TestCircuit(6, 400);
  Rng rng(6);
  const lock::EpicResult locked = lock::LockWithEpic(original, 16, rng);
  const OracleLessProbe probe =
      ProbeOracleLessKeySpace(locked.locked, 128, 1024, 6);
  EXPECT_GT(probe.DistinctFraction(), 0.8);
}

TEST(OracleLess, UnkeyedNetlistHasOneBehavior) {
  const Netlist original = circuits::MakeC17();
  const OracleLessProbe probe = ProbeOracleLessKeySpace(original, 16, 256, 7);
  EXPECT_EQ(probe.distinct_functions, 1u);
}

// --- Incremental DIP encoder ------------------------------------------------

// The attack encodes each DIP round with IncrementalDipEncoder; the miter
// itself still comes from EncodeNetlist. Both must stay bit-identical.
class IncrementalDip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalDip, BitIdenticalToFullEncodeNetlist) {
  const Netlist original = RandomCircuit(GetParam(), 250);
  Rng lock_rng(GetParam());
  const lock::EpicResult locked =
      lock::LockWithEpic(original, 12, lock_rng);
  const Netlist& nl = locked.locked;
  const size_t num_pis = nl.inputs().size();
  const size_t num_keys = nl.KeyInputs().size();
  ASSERT_GT(num_keys, 0u);

  // Two fresh solver/encoder pairs receive the same call sequence; the
  // incremental path must leave them in bit-identical states: same
  // variable count and literal-identical output vectors, round after
  // round (cache reuse across rounds included).
  sat::Solver full_solver, inc_solver;
  sat::StructuralEncoder full_enc(full_solver), inc_enc(inc_solver);
  std::vector<sat::Lit> full_keys(num_keys), inc_keys(num_keys);
  for (auto& l : full_keys) l = full_enc.FreshLit();
  for (auto& l : inc_keys) l = inc_enc.FreshLit();
  ASSERT_EQ(full_keys, inc_keys);

  sat::IncrementalDipEncoder dip_enc(inc_enc, nl);
  EXPECT_LT(dip_enc.ConeSize(), nl.NumLogicGates());

  Rng rng(GetParam() ^ 0xD1F);
  for (int round = 0; round < 6; ++round) {
    std::vector<uint8_t> dip(num_pis);
    for (auto& b : dip) b = rng.NextBool() ? 1 : 0;
    std::vector<sat::Lit> const_in(num_pis);
    for (size_t i = 0; i < num_pis; ++i) {
      const_in[i] = dip[i] ? full_enc.TrueLit() : full_enc.FalseLit();
    }
    const std::vector<sat::Lit> full_outs =
        full_enc.EncodeNetlist(nl, const_in, full_keys);
    dip_enc.SetDip(dip);
    const std::vector<sat::Lit> inc_outs = dip_enc.Encode(inc_keys);
    ASSERT_EQ(inc_outs, full_outs) << "round " << round;
    ASSERT_EQ(inc_solver.NumVars(), full_solver.NumVars())
        << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalDip,
                         ::testing::Range<uint64_t>(1, 7));

TEST(IncrementalDip, HandlesKeylessNetlist) {
  const Netlist nl = circuits::MakeC17();
  sat::Solver solver;
  sat::StructuralEncoder enc(solver);
  sat::IncrementalDipEncoder dip_enc(enc, nl);
  EXPECT_EQ(dip_enc.ConeSize(), 0u);
  std::vector<uint8_t> dip(nl.inputs().size(), 1);
  dip_enc.SetDip(dip);
  const std::vector<sat::Lit> outs = dip_enc.Encode({});
  // Everything folds: outputs are constants matching plain simulation.
  Simulator sim(nl);
  std::vector<uint64_t> words(nl.inputs().size(), ~0ULL);
  sim.SetInputWords(words);
  sim.Run();
  ASSERT_EQ(outs.size(), nl.outputs().size());
  for (size_t o = 0; o < outs.size(); ++o) {
    const sat::Lit want =
        (sim.OutputWord(o) & 1) != 0 ? enc.TrueLit() : enc.FalseLit();
    EXPECT_EQ(outs[o], want);
  }
}

}  // namespace
}  // namespace splitlock::attack
