#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "sat/solver.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace splitlock::sat {
namespace {

TEST(SatSolver, TrivialSat) {
  Solver s;
  const Var a = s.NewVar();
  EXPECT_TRUE(s.AddUnit(MakeLit(a)));
  EXPECT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_TRUE(s.ModelValue(a));
}

TEST(SatSolver, TrivialUnsat) {
  Solver s;
  const Var a = s.NewVar();
  EXPECT_TRUE(s.AddUnit(MakeLit(a)));
  EXPECT_FALSE(s.AddUnit(Negate(MakeLit(a))));
  EXPECT_EQ(s.Solve(), SolveResult::kUnsat);
}

TEST(SatSolver, EmptyClauseUnsat) {
  Solver s;
  s.NewVar();
  EXPECT_FALSE(s.AddClause({}));
  EXPECT_EQ(s.Solve(), SolveResult::kUnsat);
}

TEST(SatSolver, TautologyIgnored) {
  Solver s;
  const Var a = s.NewVar();
  EXPECT_TRUE(s.AddBinary(MakeLit(a), Negate(MakeLit(a))));
  EXPECT_EQ(s.Solve(), SolveResult::kSat);
}

TEST(SatSolver, ImplicationChainPropagates) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 20; ++i) v.push_back(s.NewVar());
  for (int i = 0; i + 1 < 20; ++i) {
    s.AddBinary(Negate(MakeLit(v[i])), MakeLit(v[i + 1]));  // v_i -> v_{i+1}
  }
  s.AddUnit(MakeLit(v[0]));
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(s.ModelValue(v[i]));
}

TEST(SatSolver, XorChainConsistency) {
  // x0 ^ x1 = 1, x1 ^ x2 = 1, x0 ^ x2 = 1 is UNSAT (parity).
  Solver s;
  const Var x0 = s.NewVar();
  const Var x1 = s.NewVar();
  const Var x2 = s.NewVar();
  auto add_xor1 = [&](Var a, Var b) {
    s.AddBinary(MakeLit(a), MakeLit(b));
    s.AddBinary(Negate(MakeLit(a)), Negate(MakeLit(b)));
  };
  add_xor1(x0, x1);
  add_xor1(x1, x2);
  add_xor1(x0, x2);
  EXPECT_EQ(s.Solve(), SolveResult::kUnsat);
}

// Pigeonhole principle PHP(n+1, n): n+1 pigeons into n holes — classically
// hard for resolution, still fine at this size, and definitely UNSAT.
TEST(SatSolver, Pigeonhole54Unsat) {
  constexpr int kPigeons = 5;
  constexpr int kHoles = 4;
  Solver s;
  Var p[kPigeons][kHoles];
  for (auto& row : p) {
    for (Var& v : row) v = s.NewVar();
  }
  for (int i = 0; i < kPigeons; ++i) {
    std::vector<Lit> clause;
    for (int j = 0; j < kHoles; ++j) clause.push_back(MakeLit(p[i][j]));
    s.AddClause(clause);
  }
  for (int j = 0; j < kHoles; ++j) {
    for (int i1 = 0; i1 < kPigeons; ++i1) {
      for (int i2 = i1 + 1; i2 < kPigeons; ++i2) {
        s.AddBinary(Negate(MakeLit(p[i1][j])), Negate(MakeLit(p[i2][j])));
      }
    }
  }
  EXPECT_EQ(s.Solve(), SolveResult::kUnsat);
}

TEST(SatSolver, AssumptionsSelectBranch) {
  Solver s;
  const Var a = s.NewVar();
  const Var b = s.NewVar();
  s.AddBinary(MakeLit(a), MakeLit(b));  // a | b
  const std::vector<Lit> assume_na = {Negate(MakeLit(a))};
  ASSERT_EQ(s.Solve(assume_na), SolveResult::kSat);
  EXPECT_FALSE(s.ModelValue(a));
  EXPECT_TRUE(s.ModelValue(b));
  // Conflicting assumptions: a & !a via clauses.
  s.AddUnit(MakeLit(a));
  EXPECT_EQ(s.Solve(assume_na), SolveResult::kUnsat);
  // Without assumptions, still satisfiable.
  EXPECT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_TRUE(s.ModelValue(a));
}

TEST(SatSolver, ConflictLimitYieldsUnknown) {
  // A hard instance with a conflict budget of 1 must give up.
  constexpr int kPigeons = 8;
  constexpr int kHoles = 7;
  Solver s;
  std::vector<std::vector<Var>> p(kPigeons, std::vector<Var>(kHoles));
  for (auto& row : p) {
    for (Var& v : row) v = s.NewVar();
  }
  for (int i = 0; i < kPigeons; ++i) {
    std::vector<Lit> clause;
    for (int j = 0; j < kHoles; ++j) clause.push_back(MakeLit(p[i][j]));
    s.AddClause(clause);
  }
  for (int j = 0; j < kHoles; ++j) {
    for (int i1 = 0; i1 < kPigeons; ++i1) {
      for (int i2 = i1 + 1; i2 < kPigeons; ++i2) {
        s.AddBinary(Negate(MakeLit(p[i1][j])), Negate(MakeLit(p[i2][j])));
      }
    }
  }
  EXPECT_EQ(s.Solve({}, 1), SolveResult::kUnknown);
}

TEST(SatSolver, LearntUnitUnderAssumptionsOutlivesTheQuery) {
  // (u | x) & (u | !x) forces u. Under the assumption a, the solver
  // branches u false first (saved phases start false), hits a conflict and
  // learns the unit u. The unit follows from the clauses alone, so it must
  // outlive the query: refuting !u afterwards costs no conflict.
  Solver s;
  const Var u = s.NewVar();
  const Var x = s.NewVar();
  const Var a = s.NewVar();
  s.AddBinary(MakeLit(u), MakeLit(x));
  s.AddBinary(MakeLit(u), Negate(MakeLit(x)));
  const std::vector<Lit> assume_a = {MakeLit(a)};
  ASSERT_EQ(s.Solve(assume_a), SolveResult::kSat);
  ASSERT_GT(s.conflicts(), 0u);  // u was learnt, not propagated
  const uint64_t learnt_at = s.conflicts();
  const std::vector<Lit> assume_not_u = {Negate(MakeLit(u))};
  EXPECT_EQ(s.Solve(assume_not_u), SolveResult::kUnsat);
  EXPECT_EQ(s.conflicts(), learnt_at);
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_TRUE(s.ModelValue(u));
}

TEST(SatSolver, RootConflictUnderAssumptionsIsFinal) {
  // x is forced both ways. The conflict that proves it surfaces at the root
  // once the learnt unit is asserted there, even though the query carried
  // an assumption: every later query is UNSAT without a search.
  Solver s;
  const Var x = s.NewVar();
  const Var y = s.NewVar();
  const Var a = s.NewVar();
  s.AddBinary(MakeLit(x), MakeLit(y));
  s.AddBinary(MakeLit(x), Negate(MakeLit(y)));
  s.AddBinary(Negate(MakeLit(x)), MakeLit(y));
  s.AddBinary(Negate(MakeLit(x)), Negate(MakeLit(y)));
  const std::vector<Lit> assume_a = {MakeLit(a)};
  EXPECT_EQ(s.Solve(assume_a), SolveResult::kUnsat);
  const uint64_t refuted_at = s.conflicts();
  EXPECT_EQ(s.Solve(), SolveResult::kUnsat);
  EXPECT_EQ(s.conflicts(), refuted_at);
}

bool Satisfies(const Solver& s, const std::vector<std::vector<Lit>>& clauses,
               std::span<const Lit> assumptions) {
  const auto holds = [&](Lit l) {
    return s.ModelValue(VarOf(l)) != IsNegated(l);
  };
  for (const std::vector<Lit>& clause : clauses) {
    if (std::none_of(clause.begin(), clause.end(), holds)) return false;
  }
  return std::all_of(assumptions.begin(), assumptions.end(), holds);
}

Solver SolverFor(int vars, const std::vector<std::vector<Lit>>& clauses) {
  Solver s;
  for (int i = 0; i < vars; ++i) s.NewVar();
  for (const std::vector<Lit>& clause : clauses) s.AddClause(clause);
  return s;
}

// PHP(pigeons, holes): variable i * holes + j puts pigeon i in hole j.
Lit InHole(int holes, int i, int j) { return MakeLit(i * holes + j); }

std::vector<std::vector<Lit>> PigeonholeClauses(int pigeons, int holes) {
  std::vector<std::vector<Lit>> clauses;
  for (int i = 0; i < pigeons; ++i) {
    std::vector<Lit> clause;
    for (int j = 0; j < holes; ++j) clause.push_back(InHole(holes, i, j));
    clauses.push_back(clause);
  }
  for (int j = 0; j < holes; ++j) {
    for (int i1 = 0; i1 < pigeons; ++i1) {
      for (int i2 = i1 + 1; i2 < pigeons; ++i2) {
        clauses.push_back(
            {Negate(InHole(holes, i1, j)), Negate(InHole(holes, i2, j))});
      }
    }
  }
  return clauses;
}

TEST(SatSolver, RepeatedAssumptionsOpenMoreLevelsThanVariables) {
  // An assumption that already holds still opens a decision level, so
  // PHP(5, 4) searched under 30 copies of one assumption learns clauses
  // whose levels exceed the variable count.
  constexpr int kPigeons = 5;
  constexpr int kHoles = 4;
  Solver s =
      SolverFor(kPigeons * kHoles + 1, PigeonholeClauses(kPigeons, kHoles));
  const Var free_var = kPigeons * kHoles;
  const std::vector<Lit> assumptions(30, MakeLit(free_var));
  EXPECT_EQ(s.Solve(assumptions), SolveResult::kUnsat);
  EXPECT_GT(s.conflicts(), 0u);
}

// Reductions delete learnt clauses and compact the clause arena mid-search,
// remapping every reason and watcher. These queries run the solver through
// several reductions (the schedule reduces after 2,000, 4,300 and 6,900
// conflicts) and check each answer independently.
TEST(SatSolverReduction, RandomThreeSatQueriesAcrossReductions) {
  // 150 variables at clause ratio 4.1, near the 3-SAT threshold, queried
  // under two random assumptions at a time: the answers mix SAT and UNSAT.
  constexpr int kVars = 150;
  constexpr int kClauses = 615;
  splitlock::Rng rng(15041);
  std::vector<std::vector<Lit>> clauses(kClauses);
  for (std::vector<Lit>& clause : clauses) {
    for (int k = 0; k < 3; ++k) {
      clause.push_back(MakeLit(static_cast<Var>(rng.NextUint(kVars)),
                               rng.NextBool()));
    }
  }
  Solver s = SolverFor(kVars, clauses);
  size_t sat = 0;
  size_t unsat = 0;
  for (int q = 0; q < 40; ++q) {
    std::vector<Lit> assumptions;
    for (int k = 0; k < 2; ++k) {
      assumptions.push_back(MakeLit(static_cast<Var>(rng.NextUint(kVars)),
                                    rng.NextBool()));
    }
    const SolveResult r = s.Solve(assumptions);
    ASSERT_NE(r, SolveResult::kUnknown) << "query " << q;
    if (r == SolveResult::kSat) {
      ++sat;
      EXPECT_TRUE(Satisfies(s, clauses, assumptions)) << "query " << q;
    } else {
      ++unsat;
      EXPECT_EQ(SolverFor(kVars, clauses).Solve(assumptions),
                SolveResult::kUnsat)
          << "query " << q;
    }
  }
  EXPECT_GT(sat, 0u);
  EXPECT_GT(unsat, 0u);
  EXPECT_GT(s.conflicts(), 6900u);  // past the third reduction
  EXPECT_GT(s.learnts_deleted(), 0u);
}

TEST(SatSolverReduction, PigeonholeQueriesAcrossReductions) {
  // PHP(8, 7) is UNSAT under any assumptions; a fresh solver given the
  // same query must agree with each answer.
  constexpr int kPigeons = 8;
  constexpr int kHoles = 7;
  const std::vector<std::vector<Lit>> clauses =
      PigeonholeClauses(kPigeons, kHoles);
  Solver s = SolverFor(kPigeons * kHoles, clauses);
  for (int i = 0; i < kPigeons; ++i) {
    const std::vector<Lit> assumption = {InHole(kHoles, i, i % kHoles)};
    EXPECT_EQ(s.Solve(assumption), SolveResult::kUnsat) << "pigeon " << i;
    EXPECT_EQ(SolverFor(kPigeons * kHoles, clauses).Solve(assumption),
              SolveResult::kUnsat)
        << "pigeon " << i;
  }
  EXPECT_EQ(s.Solve(), SolveResult::kUnsat);
  EXPECT_GT(s.learnts_deleted(), 0u);
}

// One query of a pinned trajectory: the answer, then the solver's
// conflicts, decisions, propagations and deleted learnt clauses after it,
// then an FNV-1a digest of the model ("-" unless SAT).
std::string TrajectoryStep(Solver& s, std::span<const Lit> assumptions) {
  const SolveResult r = s.Solve(assumptions);
  std::string model = "-";
  if (r == SolveResult::kSat) {
    std::string bits;
    for (Var v = 0; v < s.NumVars(); ++v) bits += s.ModelValue(v) ? '1' : '0';
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(util::Fnv1a(bits)));
    model = hex;
  }
  const char* answer = r == SolveResult::kSat     ? "sat"
                       : r == SolveResult::kUnsat ? "unsat"
                                                  : "unknown";
  return std::string(answer) + " " + std::to_string(s.conflicts()) + " " +
         std::to_string(s.decisions()) + " " +
         std::to_string(s.propagations()) + " " +
         std::to_string(s.learnts_deleted()) + " " + model;
}

// Pins the search itself, query by query: propagation order, learnt
// clauses, deletions and decisions all feed these counts, so a change meant
// only to make the solver cheaper must leave every line as it is. The
// queries carry assumptions and run through several reductions.
TEST(SatSolver, TrajectoryDigest) {
  std::vector<std::string> trace;
  // Random 3-SAT at clause ratio 4.1, queried under three random
  // assumptions at a time.
  constexpr int kVars = 150;
  splitlock::Rng rng(20261019);
  std::vector<std::vector<Lit>> clauses(615);
  for (std::vector<Lit>& clause : clauses) {
    for (int k = 0; k < 3; ++k) {
      clause.push_back(MakeLit(static_cast<Var>(rng.NextUint(kVars)),
                               rng.NextBool()));
    }
  }
  Solver random = SolverFor(kVars, clauses);
  for (int q = 0; q < 22; ++q) {
    std::vector<Lit> assumptions;
    for (int k = 0; k < 3; ++k) {
      assumptions.push_back(MakeLit(static_cast<Var>(rng.NextUint(kVars)),
                                    rng.NextBool()));
    }
    trace.push_back(TrajectoryStep(random, assumptions));
  }
  // PHP(8, 7), UNSAT under any assumption, one assumption per query.
  constexpr int kPigeons = 8;
  constexpr int kHoles = 7;
  Solver php =
      SolverFor(kPigeons * kHoles, PigeonholeClauses(kPigeons, kHoles));
  for (int i = 0; i < 10; ++i) {
    const std::vector<Lit> assumption = {
        InHole(kHoles, i % kPigeons, (3 * i) % kHoles)};
    trace.push_back(TrajectoryStep(php, assumption));
  }
  // answer, conflicts, decisions, propagations, learnts deleted, model
  const std::vector<std::string> want = {
      // random 3-SAT: reductions at 2,000, 4,300 and 6,900 conflicts
      "sat 478 606 15689 0 bfa596aadc311678",
      "unsat 883 1122 27733 0 -",
      "unsat 1511 1888 48526 0 -",
      "unsat 1847 2283 59142 0 -",
      "sat 1997 2484 64226 0 805a56c72bd20f83",
      "unsat 2494 3056 80919 42 -",
      "unsat 2813 3430 90713 42 -",
      "sat 3231 3984 103102 42 21f015e4eafe7cba",
      "unsat 3708 4561 118083 42 -",
      "sat 4212 5170 134004 42 cc0cb4fe095c96aa",
      "sat 4847 5949 154254 937 b21b9005caa3e95f",
      "sat 5412 6629 172540 937 acca6ec982991f5f",
      "unsat 5914 7203 187507 937 -",
      "sat 6305 7668 200146 937 bcef7dffef35c38c",
      "sat 6357 7752 202121 937 e80b511d46d28b0e",
      "sat 6532 7983 207304 937 a74ec546f40290f7",
      "sat 6532 8013 207454 937 3c933c2e2978e855",
      "sat 6809 8380 216659 937 031c53d13fc803b3",
      "sat 6973 8585 222408 2266 9891e7ca8bbde034",
      "sat 7001 8637 223681 2266 20c01efc17d7f1bc",
      "unsat 7249 8906 230866 2266 -",
      "sat 7255 8938 231174 2266 976bb28a7682e248",
      // PHP(8, 7): a second solver, reductions at 2,000 and 4,300
      "unsat 817 984 12252 0 -",
      "unsat 1572 1896 22828 0 -",
      "unsat 2103 2543 30410 38 -",
      "unsat 2536 3047 36287 38 -",
      "unsat 3002 3598 42433 38 -",
      "unsat 3300 3946 46059 38 -",
      "unsat 3524 4197 48960 38 -",
      "unsat 3751 4460 52014 38 -",
      "unsat 4187 4967 56678 38 -",
      "unsat 4412 5221 59386 954 -"
  };
  EXPECT_EQ(trace, want);
}

// Property sweep: random 3-SAT instances cross-checked against brute force.
class RandomSatTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomSatTest, MatchesBruteForce) {
  splitlock::Rng rng(GetParam());
  constexpr int kVars = 12;
  const int num_clauses = 30 + static_cast<int>(rng.NextUint(40));

  std::vector<std::vector<Lit>> clauses;
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<Lit> clause;
    for (int k = 0; k < 3; ++k) {
      const Var v = static_cast<Var>(rng.NextUint(kVars));
      clause.push_back(MakeLit(v, rng.NextBool()));
    }
    clauses.push_back(clause);
  }

  bool brute_sat = false;
  for (uint32_t m = 0; m < (1u << kVars) && !brute_sat; ++m) {
    bool all = true;
    for (const auto& clause : clauses) {
      bool any = false;
      for (Lit l : clause) {
        const bool val = (m >> VarOf(l)) & 1;
        if (IsNegated(l) ? !val : val) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    brute_sat = all;
  }

  Solver s;
  for (int i = 0; i < kVars; ++i) s.NewVar();
  bool root_consistent = true;
  for (const auto& clause : clauses) {
    root_consistent = s.AddClause(clause) && root_consistent;
  }
  const SolveResult r = s.Solve();
  EXPECT_EQ(r == SolveResult::kSat, brute_sat);
  if (r == SolveResult::kSat) {
    // Verify the model actually satisfies the formula.
    for (const auto& clause : clauses) {
      bool any = false;
      for (Lit l : clause) {
        const bool val = s.ModelValue(VarOf(l));
        if (IsNegated(l) ? !val : val) any = true;
      }
      EXPECT_TRUE(any);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSatTest,
                         ::testing::Range<uint64_t>(1, 25));

}  // namespace
}  // namespace splitlock::sat
