// Additional SAT-solver and encoder coverage: incremental use across Solve
// calls, assumption reuse, conflict accounting and encoder determinism.
#include <gtest/gtest.h>

#include "sat/solver.hpp"
#include "sat/tseitin.hpp"
#include "util/rng.hpp"

namespace splitlock::sat {
namespace {

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
