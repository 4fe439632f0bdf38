// A compact CDCL SAT solver.
//
// Feature set: two-watched-literal propagation over one inline clause
// arena, with binary clauses decided from their watchers alone; first-UIP
// conflict-clause learning with backjumping and recursive learnt-clause
// minimization (Sorensson & Biere, SAT'09) whose verdicts are memoized per
// analysis (Van Gelder, SAT'09); learnt units kept at the root
// across queries; LBD-tiered learnt-clause reduction on a deterministic
// conflict schedule (Audemard & Simon, IJCAI'09); VSIDS branching with
// phase saving; and Luby restarts. This is the engine behind the
// logic-equivalence checker (the Cadence Conformal LEC stand-in in the
// locking flow of Fig. 3), the oracle-guided SAT attack and the
// SAT-based cross-checks in the test suite.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace splitlock::sat {

using Var = int32_t;
using Lit = int32_t;  // encoded as 2*var + (negated ? 1 : 0)

inline Lit MakeLit(Var v, bool negated = false) {
  return 2 * v + (negated ? 1 : 0);
}
inline Lit Negate(Lit l) { return l ^ 1; }
inline Var VarOf(Lit l) { return l >> 1; }
inline bool IsNegated(Lit l) { return (l & 1) != 0; }

enum class SolveResult { kSat, kUnsat, kUnknown };

class Solver {
 public:
  Solver() = default;

  Var NewVar();
  int NumVars() const { return static_cast<int>(model_.size()); }

  // Adds a clause (empty clause makes the instance trivially UNSAT).
  // Returns false when the formula is already unsatisfiable at root level.
  bool AddClause(std::vector<Lit> lits);

  // Convenience overloads.
  bool AddUnit(Lit a) { return AddClause({a}); }
  bool AddBinary(Lit a, Lit b) { return AddClause({a, b}); }
  bool AddTernary(Lit a, Lit b, Lit c) { return AddClause({a, b, c}); }

  // Solves under optional assumptions. `conflict_limit` caps the solver's
  // lifetime conflicts() (0 = unlimited), not this call's: reaching it
  // yields kUnknown. A caller that wants a per-call budget passes
  // conflicts() + budget, as the LEC does.
  SolveResult Solve(std::span<const Lit> assumptions = {},
                    uint64_t conflict_limit = 0);

  // Model access, valid after kSat.
  bool ModelValue(Var v) const { return model_[v] == 1; }

  uint64_t conflicts() const { return conflicts_; }
  // Branching decisions so far; placed assumptions are not decisions
  // (read-only statistic).
  uint64_t decisions() const { return decisions_; }
  // Literals propagated so far, one per literal taken off the trail, not
  // one per watcher visited (read-only statistic).
  uint64_t propagations() const { return propagations_; }
  // Learnt clauses deleted by reductions so far (read-only statistic).
  uint64_t learnts_deleted() const { return learnts_deleted_; }

 private:
  enum : int8_t { kUndef = -1, kFalse = 0, kTrue = 1 };

  // A clause is a header word followed inline by its literals in arena_;
  // its ClauseRef is the offset of the header. Header bits: kLearntBit,
  // kUsedBit (used in conflict analysis since the last reduction),
  // kDeletedBit (set only while a reduction runs) and the size from
  // kSizeShift up. A learnt clause keeps its LBD in one more word between
  // the header and the literals.
  using ClauseRef = uint32_t;
  static constexpr ClauseRef kNoReason = ~ClauseRef{0};
  static constexpr uint32_t kLearntBit = 1;
  static constexpr uint32_t kUsedBit = 2;
  static constexpr uint32_t kDeletedBit = 4;
  static constexpr int kSizeShift = 3;

  // 8 bytes: the clause ref shifted left by one with a binary tag in bit
  // 0. For a binary clause the blocker is the other literal, so
  // propagation decides it without reading the arena.
  struct Watcher {
    uint32_t tagged_ref;
    Lit blocker;

    static Watcher Of(ClauseRef c, bool binary, Lit blocker) {
      return {(c << 1) | (binary ? 1u : 0u), blocker};
    }
    ClauseRef clause() const { return tagged_ref >> 1; }
    bool binary() const { return (tagged_ref & 1u) != 0; }
  };

  int8_t ValueOfLit(Lit l) const { return value_[l]; }

  // Inline: the watch loop enqueues once per propagated literal.
  void Enqueue(Lit l, ClauseRef reason) {
    assert(value_[l] == kUndef);
    value_[l] = kTrue;
    value_[Negate(l)] = kFalse;
    level_[VarOf(l)] = DecisionLevel();
    reason_[VarOf(l)] = reason;
    trail_.push_back(l);
  }
  ClauseRef Propagate();
  void Analyze(ClauseRef conflict, std::vector<Lit>* learnt, int* bt_level);
  bool LitRedundant(Lit p, uint32_t abstract_levels);
  uint32_t AbstractLevel(Var v) const { return 1u << (level_[v] & 31); }
  uint32_t Lbd(std::span<const Lit> lits);
  void BacktrackTo(int level);
  Lit PickBranchLit();
  void BumpVar(Var v);
  void DecayActivities();
  ClauseRef AttachClause(std::span<const Lit> lits, bool learnt,
                         uint32_t lbd = 0);
  void ReduceLearnts();
  void CompactArena();

  uint32_t Header(ClauseRef c) const {
    return static_cast<uint32_t>(arena_[c]);
  }
  bool IsLearnt(ClauseRef c) const { return (Header(c) & kLearntBit) != 0; }
  uint32_t SizeOf(ClauseRef c) const { return Header(c) >> kSizeShift; }
  uint32_t LbdOf(ClauseRef c) const {
    return static_cast<uint32_t>(arena_[c + 1]);
  }
  // Words the clause occupies in the arena, header included.
  uint32_t WordsOf(ClauseRef c) const {
    return 1 + (Header(c) & kLearntBit) + SizeOf(c);
  }
  void SetFlag(ClauseRef c, uint32_t bit) {
    arena_[c] = static_cast<Lit>(Header(c) | bit);
  }
  std::span<Lit> LitsOf(ClauseRef c) {
    const uint32_t h = Header(c);
    return {arena_.data() + c + 1 + (h & kLearntBit), h >> kSizeShift};
  }

  // Heap-based VSIDS priority queue.
  void HeapInsert(Var v);
  Var HeapPop();
  void HeapDecrease(Var v);
  void HeapSiftUp(int i);
  void HeapSiftDown(int i);

  std::vector<Lit> arena_;                     // clause headers + literals
  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit

  std::vector<int8_t> value_;     // per literal: kTrue, kFalse or kUndef
  std::vector<int8_t> model_;     // per var, snapshot at SAT
  std::vector<int8_t> phase_;     // saved phases
  std::vector<int> level_;        // per var
  std::vector<ClauseRef> reason_;  // per var
  std::vector<double> activity_;  // per var

  std::vector<Lit> trail_;
  std::vector<int> trail_limits_;  // decision-level boundaries
  size_t propagate_head_ = 0;

  std::vector<Var> heap_;
  std::vector<int> heap_pos_;  // per var, -1 if absent

  // Scratch for Analyze: marks per var, the minimization stack, the
  // literals whose marks to clear, and per-level stamps for the LBD. A
  // mark says a variable is in the learnt clause (kSeenSource), or that
  // minimization proved it implied by the clause (kSeenRemovable) or not
  // (kSeenFailed); every mark lasts one analysis.
  enum : int8_t {
    kSeenNone = 0,
    kSeenSource = 1,
    kSeenRemovable = 2,
    kSeenFailed = 3,
  };
  // A variable on the minimization walk's path and the index of the next
  // literal of its reason to visit.
  struct RedundantFrame {
    Var var;
    uint32_t next;
  };
  std::vector<int8_t> seen_;
  std::vector<RedundantFrame> analyze_stack_;
  std::vector<Lit> analyze_toclear_;
  std::vector<uint32_t> level_stamp_;
  uint32_t lbd_stamp_ = 0;

  double var_inc_ = 1.0;
  uint64_t conflicts_ = 0;
  uint64_t decisions_ = 0;
  uint64_t propagations_ = 0;
  // Base interval of the Luby restart sequence, in conflicts.
  static constexpr uint64_t kRestartUnit = 128;
  // Learnt-clause reduction schedule, in lifetime conflicts: the first
  // reduction after kFirstReduce, each interval kReduceGrowth longer than
  // the last. Clauses with LBD <= kKeepLbd are never deleted.
  static constexpr uint64_t kFirstReduce = 2000;
  static constexpr uint64_t kReduceGrowth = 300;
  static constexpr uint32_t kKeepLbd = 2;
  uint64_t next_reduce_ = kFirstReduce;
  uint64_t reduce_interval_ = kFirstReduce;
  uint64_t learnts_deleted_ = 0;
  bool unsat_at_root_ = false;

  int DecisionLevel() const { return static_cast<int>(trail_limits_.size()); }
};

// Model value of `lit`, valid after kSat.
inline bool LitValue(const Solver& solver, Lit lit) {
  return solver.ModelValue(VarOf(lit)) != IsNegated(lit);
}

// Proves a == b under `solver`'s clause database, spending at most
// `conflict_limit` conflicts (0 = unlimited) across both polarities.
// kUnsat: proven, and the equality clauses are added to help later
// queries; kSat: the model distinguishes a and b; kUnknown: the budget ran
// out. The SAT-sweeping LEC and the SAT attack's key-copy sweep use it.
SolveResult ProveEqual(Solver& solver, Lit a, Lit b, uint64_t conflict_limit);

}  // namespace splitlock::sat
