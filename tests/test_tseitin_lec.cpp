#include <gtest/gtest.h>

#include "circuits/c17.hpp"
#include "circuits/random_circuit.hpp"
#include "circuits/suites.hpp"
#include "lec/lec.hpp"
#include "lock/atpg_lock.hpp"
#include "netlist/netlist.hpp"
#include "obs/metrics.hpp"
#include "opt/optimizer.hpp"
#include "sat/tseitin.hpp"
#include "sim/simulator.hpp"

namespace splitlock {
namespace {

// Exhaustively checks that the encoder's literal for a 2-input op matches
// EvalGateWord on all four input combinations.
void CheckOpAgainstTruth(GateOp op, size_t arity) {
  sat::Solver solver;
  sat::StructuralEncoder enc(solver);
  std::vector<sat::Lit> ins;
  for (size_t i = 0; i < arity; ++i) ins.push_back(enc.FreshLit());
  const sat::Lit out = enc.EncodeOp(op, ins);

  for (uint32_t m = 0; m < (1u << arity); ++m) {
    std::vector<sat::Lit> assumptions;
    std::vector<uint64_t> words(arity);
    for (size_t i = 0; i < arity; ++i) {
      const bool bit = (m >> i) & 1;
      words[i] = bit ? ~0ULL : 0;
      assumptions.push_back(bit ? ins[i] : sat::Negate(ins[i]));
    }
    const bool expect = EvalGateWord(op, words) & 1;
    assumptions.push_back(expect ? sat::Negate(out) : out);
    // Asserting the wrong output value must be UNSAT.
    EXPECT_EQ(solver.Solve(assumptions), sat::SolveResult::kUnsat)
        << GateOpName(op) << " m=" << m;
  }
}

TEST(Tseitin, AllOpsMatchTruthTables) {
  CheckOpAgainstTruth(GateOp::kAnd, 2);
  CheckOpAgainstTruth(GateOp::kAnd, 3);
  CheckOpAgainstTruth(GateOp::kNand, 2);
  CheckOpAgainstTruth(GateOp::kNand, 4);
  CheckOpAgainstTruth(GateOp::kOr, 2);
  CheckOpAgainstTruth(GateOp::kOr, 3);
  CheckOpAgainstTruth(GateOp::kNor, 2);
  CheckOpAgainstTruth(GateOp::kXor, 2);
  CheckOpAgainstTruth(GateOp::kXnor, 2);
  CheckOpAgainstTruth(GateOp::kMux, 3);
  CheckOpAgainstTruth(GateOp::kBuf, 1);
  CheckOpAgainstTruth(GateOp::kInv, 1);
}

TEST(Tseitin, StructuralHashingMergesIdenticalCones) {
  sat::Solver solver;
  sat::StructuralEncoder enc(solver);
  const sat::Lit a = enc.FreshLit();
  const sat::Lit b = enc.FreshLit();
  const sat::Lit x1 =
      enc.EncodeOp(GateOp::kAnd, std::array<sat::Lit, 2>{a, b});
  const sat::Lit x2 =
      enc.EncodeOp(GateOp::kAnd, std::array<sat::Lit, 2>{b, a});
  EXPECT_EQ(x1, x2);  // commutative canonicalization
  // NAND must be the complement literal of AND.
  const sat::Lit x3 =
      enc.EncodeOp(GateOp::kNand, std::array<sat::Lit, 2>{a, b});
  EXPECT_EQ(x3, sat::Negate(x1));
  // OR(a,b) == NOT(AND(!a,!b)) shares structure through negation.
  const sat::Lit x4 = enc.EncodeOp(GateOp::kOr, std::array<sat::Lit, 2>{a, b});
  const sat::Lit x5 = enc.EncodeOp(
      GateOp::kNor, std::array<sat::Lit, 2>{a, b});
  EXPECT_EQ(x5, sat::Negate(x4));
}

TEST(Tseitin, ConstantFolding) {
  sat::Solver solver;
  sat::StructuralEncoder enc(solver);
  const sat::Lit a = enc.FreshLit();
  EXPECT_EQ(enc.EncodeOp(GateOp::kAnd,
                         std::array<sat::Lit, 2>{a, enc.FalseLit()}),
            enc.FalseLit());
  EXPECT_EQ(
      enc.EncodeOp(GateOp::kAnd, std::array<sat::Lit, 2>{a, enc.TrueLit()}),
      a);
  EXPECT_EQ(
      enc.EncodeOp(GateOp::kXor, std::array<sat::Lit, 2>{a, a}),
      enc.FalseLit());
  EXPECT_EQ(enc.EncodeOp(GateOp::kXor,
                         std::array<sat::Lit, 2>{a, sat::Negate(a)}),
            enc.TrueLit());
}

TEST(Lec, IdenticalNetlistsEquivalent) {
  const Netlist nl = circuits::MakeC17();
  const LecResult r = CheckEquivalence(nl, nl);
  EXPECT_TRUE(r.proven);
  EXPECT_TRUE(r.equivalent);
}

TEST(Lec, DetectsInvertedOutput) {
  const Netlist nl = circuits::MakeC17();
  Netlist broken = nl;
  const GateId po = broken.outputs()[0];
  const NetId inv = broken.AddGate(GateOp::kInv, {broken.gate(po).fanins[0]});
  broken.ReplaceFanin(po, 0, inv);
  const LecResult r = CheckEquivalence(nl, broken);
  ASSERT_TRUE(r.proven);
  EXPECT_FALSE(r.equivalent);
  EXPECT_EQ(r.differing_output, 0u);
  ASSERT_EQ(r.counterexample.size(), nl.inputs().size());

  // The counterexample must actually distinguish the two designs.
  std::vector<uint64_t> pi_words(nl.inputs().size());
  for (size_t i = 0; i < pi_words.size(); ++i) {
    pi_words[i] = r.counterexample[i] ? ~0ULL : 0;
  }
  Simulator sim_a(nl);
  Simulator sim_b(broken);
  for (Simulator* sim : {&sim_a, &sim_b}) {
    sim->BeginBatch(1);
    sim->SetInputColumn(0, pi_words);
    sim->RunBatch();
  }
  bool differs = false;
  for (size_t o = 0; o < nl.outputs().size(); ++o) {
    if ((sim_a.BatchOutputWord(o, 0) ^ sim_b.BatchOutputWord(o, 0)) & 1) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Lec, NandVsAndInvEquivalent) {
  Netlist lhs("lhs");
  {
    const NetId a = lhs.AddInput("a");
    const NetId b = lhs.AddInput("b");
    lhs.AddOutput(lhs.AddGate(GateOp::kNand, {a, b}), "y");
  }
  Netlist rhs("rhs");
  {
    const NetId a = rhs.AddInput("a");
    const NetId b = rhs.AddInput("b");
    const NetId x = rhs.AddGate(GateOp::kAnd, {a, b});
    rhs.AddOutput(rhs.AddGate(GateOp::kInv, {x}), "y");
  }
  const LecResult r = CheckEquivalence(lhs, rhs);
  EXPECT_TRUE(r.proven);
  EXPECT_TRUE(r.equivalent);
}

TEST(Lec, KeyBindingDistinguishes) {
  Netlist plain("p");
  const NetId a = plain.AddInput("a");
  plain.AddOutput(a, "y");

  Netlist keyed("k");
  const NetId ka = keyed.AddInput("a");
  const NetId k0 = keyed.AddGate(GateOp::kKeyIn, {}, "key_0");
  keyed.AddOutput(keyed.AddGate(GateOp::kXor, {ka, k0}), "y");

  const std::vector<uint8_t> good = {0};
  const std::vector<uint8_t> bad = {1};
  EXPECT_TRUE(CheckEquivalence(plain, keyed, {}, good).equivalent);
  const LecResult r = CheckEquivalence(plain, keyed, {}, bad);
  ASSERT_TRUE(r.proven);
  EXPECT_FALSE(r.equivalent);
}

TEST(Lec, SweepingHandlesStructurallyForeignEquivalents) {
  // f = a&b&c&d implemented as one AND4 vs as redundant OR of three
  // distinct trees — the shape the locking flow removes. Plain CDCL on the
  // full miter is expensive; SAT sweeping must keep this trivial.
  Netlist lhs("lhs");
  {
    const NetId a = lhs.AddInput("a");
    const NetId b = lhs.AddInput("b");
    const NetId c = lhs.AddInput("c");
    const NetId d = lhs.AddInput("d");
    lhs.AddOutput(lhs.AddGate(GateOp::kAnd, {a, b, c, d}), "y");
  }
  Netlist rhs("rhs");
  {
    const NetId a = rhs.AddInput("a");
    const NetId b = rhs.AddInput("b");
    const NetId c = rhs.AddInput("c");
    const NetId d = rhs.AddInput("d");
    const NetId t1 = rhs.AddGate(
        GateOp::kAnd, {rhs.AddGate(GateOp::kAnd, {a, b}),
                       rhs.AddGate(GateOp::kAnd, {c, d})});
    const NetId t2 = rhs.AddGate(
        GateOp::kAnd, {rhs.AddGate(GateOp::kAnd, {a, c}),
                       rhs.AddGate(GateOp::kAnd, {b, d})});
    const NetId nand_part = rhs.AddGate(GateOp::kNand, {a, b, c, d});
    const NetId t3 = rhs.AddGate(GateOp::kInv, {nand_part});
    rhs.AddOutput(rhs.AddGate(GateOp::kOr, {t1, t2, t3}), "y");
  }
  const LecResult r = CheckEquivalence(lhs, rhs);
  EXPECT_TRUE(r.proven);
  EXPECT_TRUE(r.equivalent);
}

TEST(Lec, DeepDownstreamAfterLocalChangeStaysCheap) {
  // A locked-style miter: one internal cone re-implemented differently,
  // with a long chain of logic downstream. Sweeping substitutes at the
  // cone boundary, so the downstream re-folds and the proof stays small.
  auto build = [](bool redundant) {
    Netlist nl(redundant ? "red" : "plain");
    const NetId a = nl.AddInput("a");
    const NetId b = nl.AddInput("b");
    const NetId c = nl.AddInput("c");
    NetId core;
    if (!redundant) {
      core = nl.AddGate(GateOp::kAnd, {a, b, c});
    } else {
      const NetId t1 = nl.AddGate(GateOp::kAnd,
                                  {nl.AddGate(GateOp::kAnd, {a, b}), c});
      const NetId t2 = nl.AddGate(GateOp::kAnd,
                                  {nl.AddGate(GateOp::kAnd, {b, c}), a});
      core = nl.AddGate(GateOp::kOr, {t1, t2});
    }
    // Deep downstream chain mixing the core with the inputs.
    NetId cur = core;
    for (int i = 0; i < 64; ++i) {
      cur = nl.AddGate(GateOp::kXor, {cur, i % 2 == 0 ? a : b});
      cur = nl.AddGate(GateOp::kNand, {cur, c});
    }
    nl.AddOutput(cur, "y");
    return nl;
  };
  const Netlist plain = build(false);
  const Netlist redundant = build(true);
  const LecResult r = CheckEquivalence(plain, redundant);
  EXPECT_TRUE(r.proven);
  EXPECT_TRUE(r.equivalent);
  // Sweeping should keep the conflict count tiny.
  EXPECT_LT(r.conflicts, 2000u);
}

TEST(Lec, OptimizedNetlistStaysEquivalent) {
  circuits::CircuitSpec spec;
  spec.num_inputs = 12;
  spec.num_outputs = 6;
  spec.num_gates = 200;
  spec.seed = 31;
  const Netlist original = circuits::GenerateCircuit(spec);
  Netlist optimized = original;
  OptimizeArea(optimized);
  const LecResult r = CheckEquivalence(original, optimized);
  EXPECT_TRUE(r.proven);
  EXPECT_TRUE(r.equivalent);
}

// The LEC a campaign lock ends with: ITC'99 b20 at scale 0.1 against its
// 128-bit seed-5 ATPG lock (pinned by AtpgLock.GoldenLockDigests).
struct B20Lock {
  Netlist original = circuits::MakeItc99("b20", 0.1);
  lock::AtpgLockResult lock = [this] {
    lock::AtpgLockOptions opts;
    opts.key_bits = 128;
    opts.seed = 5;
    opts.verify_lec = false;
    return lock::LockWithAtpg(original, opts);
  }();
};

uint64_t Count(const obs::MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.counts.find(name);
  return it == snap.counts.end() ? 0 : it->second;
}

// conflict_limit caps each sweeping proof and the final miter on its own.
// The b20 LEC spends a few hundred conflicts over its solves, but under 100
// in any one proof; a 200-conflict cap shared by all of them would run out
// and leave the check unproven.
TEST(Lec, ConflictLimitIsPerProof) {
  const B20Lock b20;
  const LecResult unlimited =
      CheckEquivalence(b20.original, b20.lock.locked, {}, b20.lock.key);
  ASSERT_TRUE(unlimited.proven);
  ASSERT_TRUE(unlimited.equivalent);
  ASSERT_GT(unlimited.conflicts, 200u);
  const LecResult capped =
      CheckEquivalence(b20.original, b20.lock.locked, {}, b20.lock.key, 200);
  EXPECT_TRUE(capped.proven);
  EXPECT_TRUE(capped.equivalent);
}

// A stored counterexample may only skip proofs that would fail. Then every
// substitution stays as it was, and so does the number of candidates that
// reach the proof stage: 203 on the b20 LEC, the lec.proofs count before
// refutation existed.
TEST(Lec, CounterexamplesRefuteOnlyFailingProofs) {
  const B20Lock b20;
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  const LecResult r =
      CheckEquivalence(b20.original, b20.lock.locked, {}, b20.lock.key);
  const obs::MetricsSnapshot delta = obs::MetricsSnapshot::Delta(
      before, obs::Registry::Instance().Snapshot());
  EXPECT_TRUE(r.proven);
  EXPECT_TRUE(r.equivalent);
  EXPECT_GT(Count(delta, "lec.proofs_refuted"), 0u);
  EXPECT_EQ(Count(delta, "lec.proofs") + Count(delta, "lec.proofs_refuted"),
            203u);
  EXPECT_EQ(Count(delta, "lec.proofs_skipped"), 469u);
}

}  // namespace
}  // namespace splitlock
