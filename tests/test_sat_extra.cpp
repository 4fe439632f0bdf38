// Additional SAT-solver and encoder coverage: incremental use across Solve
// calls, assumption reuse, conflict accounting, encoder determinism, and
// the Clone()/diversification contract the portfolio attack builds on.
#include <gtest/gtest.h>

#include <atomic>

#include "sat/solver.hpp"
#include "sat/tseitin.hpp"
#include "util/rng.hpp"

namespace splitlock::sat {
namespace {

// Random 3-CNF over `vars` variables. Low clause/var ratio keeps the
// instances satisfiable with overwhelming likelihood.
Solver RandomCnf(uint64_t seed, int vars, int clauses,
                 std::vector<std::vector<Lit>>* out_clauses = nullptr) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < vars; ++i) v.push_back(s.NewVar());
  Rng rng(seed);
  for (int c = 0; c < clauses; ++c) {
    std::vector<Lit> clause;
    for (int k = 0; k < 3; ++k) {
      clause.push_back(MakeLit(v[rng.NextUint(v.size())], rng.NextBool()));
    }
    if (out_clauses) out_clauses->push_back(clause);
    s.AddClause(clause);
  }
  return s;
}

bool ModelSatisfies(const Solver& s,
                    const std::vector<std::vector<Lit>>& clauses) {
  for (const std::vector<Lit>& clause : clauses) {
    bool sat = false;
    for (const Lit l : clause) {
      if (s.ModelValue(VarOf(l)) != IsNegated(l)) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

TEST(SatIncremental, ClausesPersistAcrossSolves) {
  Solver s;
  const Var a = s.NewVar();
  const Var b = s.NewVar();
  s.AddBinary(MakeLit(a), MakeLit(b));
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  s.AddUnit(Negate(MakeLit(a)));
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_FALSE(s.ModelValue(a));
  EXPECT_TRUE(s.ModelValue(b));
  s.AddUnit(Negate(MakeLit(b)));
  EXPECT_EQ(s.Solve(), SolveResult::kUnsat);
  // Once root-level UNSAT, it stays UNSAT.
  EXPECT_EQ(s.Solve(), SolveResult::kUnsat);
}

TEST(SatIncremental, AssumptionsDoNotPollute) {
  // UNSAT under assumptions must not leave permanent damage.
  Solver s;
  const Var a = s.NewVar();
  const Var b = s.NewVar();
  s.AddBinary(Negate(MakeLit(a)), MakeLit(b));  // a -> b
  const std::vector<Lit> bad = {MakeLit(a), Negate(MakeLit(b))};
  EXPECT_EQ(s.Solve(bad), SolveResult::kUnsat);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(s.Solve(), SolveResult::kSat);
    EXPECT_EQ(s.Solve(bad), SolveResult::kUnsat);
  }
}

TEST(SatIncremental, AlternatingAssumptionPolarities) {
  Solver s;
  const Var x = s.NewVar();
  const Var y = s.NewVar();
  s.AddBinary(MakeLit(x), MakeLit(y));
  const std::vector<Lit> ax = {MakeLit(x)};
  const std::vector<Lit> nx = {Negate(MakeLit(x))};
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(s.Solve(ax), SolveResult::kSat);
    EXPECT_TRUE(s.ModelValue(x));
    ASSERT_EQ(s.Solve(nx), SolveResult::kSat);
    EXPECT_FALSE(s.ModelValue(x));
    EXPECT_TRUE(s.ModelValue(y));
  }
}

TEST(SatIncremental, ConflictCountMonotonic) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 30; ++i) v.push_back(s.NewVar());
  Rng rng(3);
  for (int c = 0; c < 120; ++c) {
    std::vector<Lit> clause;
    for (int k = 0; k < 3; ++k) {
      clause.push_back(
          MakeLit(v[rng.NextUint(v.size())], rng.NextBool()));
    }
    s.AddClause(clause);
  }
  const uint64_t before = s.conflicts();
  s.Solve();
  const uint64_t mid = s.conflicts();
  s.Solve();
  EXPECT_GE(mid, before);
  EXPECT_GE(s.conflicts(), mid);
}

TEST(Encoder, DeterministicLiteralAssignment) {
  // Two encoders fed the same structure must produce identical literals —
  // the property that makes LEC runs reproducible.
  auto build = []() {
    auto solver = std::make_unique<Solver>();
    StructuralEncoder enc(*solver);
    const Lit a = enc.FreshLit();
    const Lit b = enc.FreshLit();
    const Lit c = enc.EncodeOp(GateOp::kAnd, std::array<Lit, 2>{a, b});
    const Lit d = enc.EncodeOp(GateOp::kXor, std::array<Lit, 2>{c, a});
    const Lit e = enc.EncodeOp(GateOp::kMux, std::array<Lit, 3>{a, c, d});
    return std::tuple<Lit, Lit, Lit>(c, d, e);
  };
  EXPECT_EQ(build(), build());
}

TEST(Encoder, SharedSubexpressionAcrossNetlists) {
  // Two netlists with a common cone encoded into one solver share
  // variables for that cone (the basis of cheap miters).
  Netlist n1("n1");
  {
    const NetId a = n1.AddInput("a");
    const NetId b = n1.AddInput("b");
    n1.AddOutput(n1.AddGate(GateOp::kAnd, {a, b}), "y");
  }
  Netlist n2("n2");
  {
    const NetId a = n2.AddInput("a");
    const NetId b = n2.AddInput("b");
    const NetId x = n2.AddGate(GateOp::kAnd, {a, b});
    n2.AddOutput(n2.AddGate(GateOp::kInv, {x}), "y");
  }
  Solver solver;
  StructuralEncoder enc(solver);
  const std::vector<Lit> inputs = {enc.FreshLit(), enc.FreshLit()};
  const std::vector<Lit> o1 = enc.EncodeNetlist(n1, inputs);
  const std::vector<Lit> o2 = enc.EncodeNetlist(n2, inputs);
  EXPECT_EQ(o2[0], Negate(o1[0]));
}

TEST(Encoder, WideAndFoldsDuplicateInputs) {
  Solver solver;
  StructuralEncoder enc(solver);
  const Lit a = enc.FreshLit();
  const Lit b = enc.FreshLit();
  const Lit dup =
      enc.EncodeOp(GateOp::kAnd, std::array<Lit, 4>{a, b, a, b});
  const Lit plain = enc.EncodeOp(GateOp::kAnd, std::array<Lit, 2>{a, b});
  EXPECT_EQ(dup, plain);
  // a & ~a inside a wide AND collapses to false.
  const Lit contradiction = enc.EncodeOp(
      GateOp::kAnd, std::array<Lit, 3>{a, Negate(a), b});
  EXPECT_EQ(contradiction, enc.FalseLit());
}

// --- Clone() + diversification (the portfolio attack's substrate) ----------

TEST(SolverClone, CloneSolvesIdenticallyOnRandomCnf) {
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    std::vector<std::vector<Lit>> clauses;
    Solver original = RandomCnf(seed, 40, 150, &clauses);
    Solver clone = original.Clone();
    const SolveResult a = original.Solve();
    const SolveResult b = clone.Solve();
    ASSERT_EQ(a, b) << "seed " << seed;
    // Identical config => identical search tree => identical conflicts and
    // (when SAT) identical models.
    EXPECT_EQ(original.conflicts(), clone.conflicts()) << "seed " << seed;
    if (a == SolveResult::kSat) {
      for (Var v = 0; v < original.NumVars(); ++v) {
        ASSERT_EQ(original.ModelValue(v), clone.ModelValue(v))
            << "seed " << seed << " var " << v;
      }
      EXPECT_TRUE(ModelSatisfies(clone, clauses));
    }
  }
}

TEST(SolverClone, CloneCarriesLearntClausesAndRemainsIdentical) {
  // Clone mid-way: after the original has already solved, learnt and
  // deleted learnt clauses in a reduction, a clone must behave identically
  // on the next queries too, through the next reduction. 150 variables at
  // clause ratio 4.1 sit near the 3-SAT threshold, so two random
  // assumptions per query make for real searches.
  std::vector<std::vector<Lit>> clauses;
  Solver original = RandomCnf(21, 150, 615, &clauses);
  Rng rng(22);
  const auto next_query = [&] {
    std::vector<Lit> assumptions;
    for (int k = 0; k < 2; ++k) {
      assumptions.push_back(MakeLit(static_cast<Var>(rng.NextUint(150)),
                                    rng.NextBool()));
    }
    return assumptions;
  };
  for (int q = 0; q < 100 && original.learnts_deleted() == 0; ++q) {
    ASSERT_NE(original.Solve(next_query()), SolveResult::kUnknown);
  }
  ASSERT_GT(original.learnts_deleted(), 0u);

  Solver clone = original.Clone();
  const uint64_t deleted = original.learnts_deleted();
  for (int q = 0; q < 100 && original.learnts_deleted() == deleted; ++q) {
    const std::vector<Lit> assumptions = next_query();
    const SolveResult a = original.Solve(assumptions);
    const SolveResult b = clone.Solve(assumptions);
    ASSERT_EQ(a, b) << "query " << q;
    ASSERT_EQ(original.conflicts(), clone.conflicts()) << "query " << q;
    if (a == SolveResult::kSat) {
      EXPECT_TRUE(ModelSatisfies(clone, clauses));
      for (Var v = 0; v < original.NumVars(); ++v) {
        ASSERT_EQ(original.ModelValue(v), clone.ModelValue(v));
      }
    }
  }
  EXPECT_GT(original.learnts_deleted(), deleted);
  EXPECT_EQ(original.learnts_deleted(), clone.learnts_deleted());
}

TEST(SolverClone, CloneIsIndependentOfTheOriginal) {
  Solver original;
  const Var a = original.NewVar();
  const Var b = original.NewVar();
  original.AddBinary(MakeLit(a), MakeLit(b));
  Solver clone = original.Clone();
  clone.AddUnit(Negate(MakeLit(a)));
  clone.AddUnit(Negate(MakeLit(b)));
  EXPECT_EQ(clone.Solve(), SolveResult::kUnsat);
  EXPECT_EQ(original.Solve(), SolveResult::kSat);
}

TEST(SolverClone, DivergesOnlyUnderDiversificationKnobs) {
  // An unconstrained variable pins down the polarity policy exactly: saved
  // phase (and kFalse) assign it false, kTrue assigns it true.
  Solver s;
  const Var free_var = s.NewVar();
  const Var x = s.NewVar();
  const Var y = s.NewVar();
  s.AddBinary(MakeLit(x), MakeLit(y));

  Solver same = s.Clone();
  ASSERT_EQ(same.Solve(), SolveResult::kSat);
  Solver base = s.Clone();
  ASSERT_EQ(base.Solve(), SolveResult::kSat);
  EXPECT_EQ(base.ModelValue(free_var), same.ModelValue(free_var));

  Solver flipped = s.Clone();
  SolverConfig config;
  config.polarity = PolarityMode::kTrue;
  flipped.SetConfig(config);
  ASSERT_EQ(flipped.Solve(), SolveResult::kSat);
  EXPECT_TRUE(flipped.ModelValue(free_var));
  EXPECT_FALSE(base.ModelValue(free_var));
}

TEST(SolverClone, DiversifiedClonesStillSolveCorrectly) {
  std::vector<std::vector<Lit>> clauses;
  Solver original = RandomCnf(31, 50, 180, &clauses);
  const SolveResult ref = original.Clone().Solve();
  for (size_t i = 1; i <= 4; ++i) {
    Solver diversified = original.Clone();
    SolverConfig config;
    config.branch_seed = 1000 + i;
    config.polarity = i % 2 ? PolarityMode::kRandom : PolarityMode::kTrue;
    config.random_branch_freq = 0.05 * static_cast<double>(i);
    config.restart_unit = 32ULL << i;
    diversified.SetConfig(config);
    const SolveResult r = diversified.Solve();
    ASSERT_EQ(r, ref) << "config " << i;
    if (r == SolveResult::kSat) {
      EXPECT_TRUE(ModelSatisfies(diversified, clauses)) << "config " << i;
    }
  }
}

TEST(SolverClone, DiversifiedSolveIsReproducible) {
  // Same clone + same config => identical conflicts and model, even with
  // random branching: the diversification stream is deterministic.
  std::vector<std::vector<Lit>> clauses;
  Solver original = RandomCnf(41, 50, 180, &clauses);
  SolverConfig config;
  config.branch_seed = 77;
  config.polarity = PolarityMode::kRandom;
  config.random_branch_freq = 0.2;
  Solver a = original.Clone();
  Solver b = original.Clone();
  a.SetConfig(config);
  b.SetConfig(config);
  const SolveResult ra = a.Solve();
  const SolveResult rb = b.Solve();
  ASSERT_EQ(ra, rb);
  EXPECT_EQ(a.conflicts(), b.conflicts());
  if (ra == SolveResult::kSat) {
    for (Var v = 0; v < a.NumVars(); ++v) {
      ASSERT_EQ(a.ModelValue(v), b.ModelValue(v));
    }
  }
}

TEST(SolverAbort, PreSetAbortFlagYieldsUnknown) {
  Solver s = RandomCnf(51, 30, 100);
  std::atomic<bool> abort{true};
  s.SetAbortFlag(&abort);
  EXPECT_EQ(s.Solve(), SolveResult::kUnknown);
  // Detached again, the solve completes.
  s.SetAbortFlag(nullptr);
  EXPECT_NE(s.Solve(), SolveResult::kUnknown);
}

TEST(SolverAbort, CloneDoesNotInheritAbortFlag) {
  Solver s = RandomCnf(52, 30, 100);
  std::atomic<bool> abort{true};
  s.SetAbortFlag(&abort);
  Solver clone = s.Clone();
  EXPECT_NE(clone.Solve(), SolveResult::kUnknown);
  EXPECT_EQ(s.Solve(), SolveResult::kUnknown);
}

TEST(Encoder, MuxNormalizations) {
  Solver solver;
  StructuralEncoder enc(solver);
  const Lit s = enc.FreshLit();
  const Lit a = enc.FreshLit();
  // MUX(s, a, a) = a regardless of the select.
  EXPECT_EQ(enc.EncodeOp(GateOp::kMux, std::array<Lit, 3>{s, a, a}), a);
  // MUX(true, a, b) = b; MUX(false, a, b) = a.
  const Lit b = enc.FreshLit();
  EXPECT_EQ(enc.EncodeOp(GateOp::kMux,
                         std::array<Lit, 3>{enc.TrueLit(), a, b}),
            b);
  EXPECT_EQ(enc.EncodeOp(GateOp::kMux,
                         std::array<Lit, 3>{enc.FalseLit(), a, b}),
            a);
  // MUX(s, a, ~a) degenerates to XNOR/XOR of (s, a).
  const Lit x = enc.EncodeOp(GateOp::kMux,
                             std::array<Lit, 3>{s, a, Negate(a)});
  const Lit ref = enc.EncodeOp(GateOp::kXor, std::array<Lit, 2>{s, a});
  EXPECT_EQ(x, ref);
}

}  // namespace
}  // namespace splitlock::sat
