#include "sat/solver.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace splitlock::sat {
namespace {

// Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
uint64_t Luby(uint64_t i) {
  uint64_t size = 1;
  uint64_t seq = 0;
  while (size < i + 1) {
    size = 2 * size + 1;
    ++seq;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i %= size;
  }
  return 1ULL << seq;
}

constexpr double kVarDecay = 1.0 / 0.95;
constexpr double kActivityRescale = 1e100;

}  // namespace

Var Solver::NewVar() {
  const Var v = NumVars();
  value_.push_back(kUndef);
  value_.push_back(kUndef);
  model_.push_back(kUndef);
  phase_.push_back(kFalse);
  level_.push_back(0);
  reason_.push_back(kNoReason);
  activity_.push_back(0.0);
  heap_pos_.push_back(-1);
  seen_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  HeapInsert(v);
  return v;
}

bool Solver::AddClause(std::vector<Lit> lits) {
  if (unsat_at_root_) return false;
  assert(DecisionLevel() == 0);
  // Remove duplicates and satisfied/false literals at root.
  std::sort(lits.begin(), lits.end());
  std::vector<Lit> out;
  out.reserve(lits.size());
  for (size_t i = 0; i < lits.size(); ++i) {
    const Lit l = lits[i];
    if (i + 1 < lits.size() && lits[i + 1] == Negate(l)) return true;  // taut
    if (!out.empty() && out.back() == l) continue;
    if (!out.empty() && out.back() == Negate(l)) return true;  // tautology
    const int8_t v = ValueOfLit(l);
    if (v == kTrue) return true;  // already satisfied
    if (v == kFalse) continue;    // drop falsified literal
    out.push_back(l);
  }
  if (out.empty()) {
    unsat_at_root_ = true;
    return false;
  }
  if (out.size() == 1) {
    Enqueue(out[0], kNoReason);
    if (Propagate() != kNoReason) {
      unsat_at_root_ = true;
      return false;
    }
    return true;
  }
  AttachClause(out, /*learnt=*/false);
  return true;
}

Solver::ClauseRef Solver::AttachClause(std::span<const Lit> lits,
                                       bool learnt, uint32_t lbd) {
  // Watchers keep the ref in 31 bits, the header the size in 29.
  if (lits.size() >= (size_t{1} << (32 - kSizeShift)) ||
      arena_.size() + 2 + lits.size() >= (size_t{1} << 31)) {
    throw std::length_error("sat::Solver: clause arena exceeds 2^31 words");
  }
  const ClauseRef ref = static_cast<ClauseRef>(arena_.size());
  arena_.push_back(static_cast<Lit>(
      (static_cast<uint32_t>(lits.size()) << kSizeShift) |
      (learnt ? kLearntBit : 0)));
  if (learnt) arena_.push_back(static_cast<Lit>(lbd));
  arena_.insert(arena_.end(), lits.begin(), lits.end());
  const bool binary = lits.size() == 2;
  watches_[Negate(lits[0])].push_back(Watcher::Of(ref, binary, lits[1]));
  watches_[Negate(lits[1])].push_back(Watcher::Of(ref, binary, lits[0]));
  return ref;
}

// The watch loop. Its visit order, the blockers it leaves and its
// replacement scan (lits[2] upward) decide which clause propagates or
// conflicts first, and so the whole search; SatSolver.TrajectoryDigest
// pins them.
Solver::ClauseRef Solver::Propagate() {
  // Neither the arena nor the value array grows while propagating, so
  // their buffers are read through local pointers.
  const int8_t* const value = value_.data();
  Lit* const arena = arena_.data();

  ClauseRef conflict = kNoReason;
  while (conflict == kNoReason && propagate_head_ < trail_.size()) {
    const Lit p = trail_[propagate_head_++];
    ++propagations_;
    const Lit not_p = Negate(p);
    // One pass over p's watchers: `read` visits each in order, `write`
    // keeps the ones that stay on this list.
    std::vector<Watcher>& ws = watches_[p];
    Watcher* read = ws.data();
    Watcher* write = read;
    Watcher* const end = read + ws.size();
    while (read != end) {
      const Watcher w = *read++;
      const int8_t blocker_value = value[w.blocker];
      if (blocker_value == kTrue) {
        *write++ = w;
        continue;
      }
      if (w.binary()) {
        // The blocker is the clause's other literal.
        *write++ = w;
        if (blocker_value == kFalse) {
          conflict = w.clause();
          break;
        }
        Enqueue(w.blocker, w.clause());
        continue;
      }
      const ClauseRef c = w.clause();
      const uint32_t header = static_cast<uint32_t>(arena[c]);
      Lit* const lits = arena + c + 1 + (header & kLearntBit);
      // Make the falsified literal lits[1].
      if (lits[0] == not_p) {
        lits[0] = lits[1];
        lits[1] = not_p;
      }
      const Lit first = lits[0];
      const Watcher kept = Watcher::Of(c, false, first);
      if (value[first] == kTrue) {
        *write++ = kept;
        continue;
      }
      // Look for a replacement watch, from lits[2] upward.
      Lit* const lits_end = lits + (header >> kSizeShift);
      Lit* k = lits + 2;
      while (k != lits_end && value[*k] == kFalse) ++k;
      if (k != lits_end) {
        lits[1] = *k;
        *k = not_p;
        // A clause holds no literal twice, so the watch moves to another
        // list and `ws` cannot reallocate under the cursors.
        assert(Negate(lits[1]) != p);
        watches_[Negate(lits[1])].push_back(kept);
        continue;
      }
      if (value[first] == kFalse) {
        *write++ = w;  // the conflicting watcher stays as it was
        conflict = c;
        break;
      }
      *write++ = kept;
      Enqueue(first, c);
    }
    write = std::copy(read, end, write);
    ws.resize(static_cast<size_t>(write - ws.data()));
  }
  return conflict;
}

void Solver::BumpVar(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > kActivityRescale) {
    for (double& a : activity_) a /= kActivityRescale;
    var_inc_ /= kActivityRescale;
  }
  if (heap_pos_[v] >= 0) HeapDecrease(v);
}

void Solver::DecayActivities() { var_inc_ *= kVarDecay; }

void Solver::Analyze(ClauseRef conflict, std::vector<Lit>* learnt,
                     int* bt_level) {
  learnt->clear();
  learnt->push_back(0);  // slot for the asserting literal
  int counter = 0;
  Lit p = -1;
  size_t trail_index = trail_.size();
  ClauseRef reason = conflict;
  do {
    if (IsLearnt(reason)) SetFlag(reason, kUsedBit);
    for (const Lit q : LitsOf(reason)) {
      if (q == p) continue;  // the literal this reason implied
      const Var v = VarOf(q);
      if (seen_[v] != kSeenNone || level_[v] == 0) continue;
      seen_[v] = kSeenSource;
      BumpVar(v);
      if (level_[v] >= DecisionLevel()) {
        ++counter;
      } else {
        learnt->push_back(q);
      }
    }
    // Walk the trail backwards to the next marked literal.
    do {
      --trail_index;
      p = trail_[trail_index];
    } while (seen_[VarOf(p)] == kSeenNone);
    seen_[VarOf(p)] = kSeenNone;
    reason = reason_[VarOf(p)];
    --counter;
    assert(counter == 0 || reason != kNoReason);
  } while (counter > 0);
  (*learnt)[0] = Negate(p);

  // Recursive minimization (Sorensson & Biere, SAT'09; MiniSat's ccmin
  // mode 2): drop every literal implied by the others through the
  // implication graph.
  analyze_toclear_ = *learnt;
  uint32_t abstract_levels = 0;
  for (size_t i = 1; i < learnt->size(); ++i) {
    abstract_levels |= AbstractLevel(VarOf((*learnt)[i]));
  }
  size_t kept = 1;
  for (size_t i = 1; i < learnt->size(); ++i) {
    const Lit l = (*learnt)[i];
    if (reason_[VarOf(l)] == kNoReason || !LitRedundant(l, abstract_levels)) {
      (*learnt)[kept++] = l;
    }
  }
  learnt->resize(kept);

  // Compute the backjump level (second-highest level in the clause).
  *bt_level = 0;
  if (learnt->size() > 1) {
    size_t max_i = 1;
    for (size_t i = 2; i < learnt->size(); ++i) {
      if (level_[VarOf((*learnt)[i])] > level_[VarOf((*learnt)[max_i])]) {
        max_i = i;
      }
    }
    std::swap((*learnt)[1], (*learnt)[max_i]);
    *bt_level = level_[VarOf((*learnt)[1])];
  }
  for (const Lit l : analyze_toclear_) seen_[VarOf(l)] = kSeenNone;
}

bool Solver::LitRedundant(Lit p, uint32_t abstract_levels) {
  // Depth-first over the reasons below p. Whether a literal is implied by
  // the clause does not depend on the path that reached it, so every
  // literal the walk settles keeps its verdict (kSeenRemovable or
  // kSeenFailed) for the rest of this analysis, and no later walk
  // re-enters it (Van Gelder, SAT'09).
  analyze_stack_.clear();
  Var x = VarOf(p);
  std::span<const Lit> lits = LitsOf(reason_[x]);
  uint32_t next = 0;
  for (;;) {
    if (next < lits.size()) {
      const Lit q = lits[next++];
      const Var v = VarOf(q);
      // A binary reason may hold the literal it implies in either slot.
      if (v == x) continue;
      const int8_t mark = seen_[v];
      if (mark == kSeenSource || mark == kSeenRemovable || level_[v] == 0) {
        continue;
      }
      if (mark == kSeenFailed || reason_[v] == kNoReason ||
          (AbstractLevel(v) & abstract_levels) == 0) {
        // q failed before, rests on a decision, or rests on a level the
        // clause does not contain: neither q nor anything on the path to
        // it is implied.
        analyze_stack_.push_back({x, next});
        for (const RedundantFrame& f : analyze_stack_) {
          if (seen_[f.var] == kSeenNone) {
            seen_[f.var] = kSeenFailed;
            analyze_toclear_.push_back(MakeLit(f.var));
          }
        }
        return false;
      }
      analyze_stack_.push_back({x, next});
      x = v;
      lits = LitsOf(reason_[x]);
      next = 0;
      continue;
    }
    // Every literal of x's reason is implied: so is x.
    if (seen_[x] == kSeenNone) {
      seen_[x] = kSeenRemovable;
      analyze_toclear_.push_back(MakeLit(x));
    }
    if (analyze_stack_.empty()) return true;
    x = analyze_stack_.back().var;
    next = analyze_stack_.back().next;
    analyze_stack_.pop_back();
    lits = LitsOf(reason_[x]);
  }
}

uint32_t Solver::Lbd(std::span<const Lit> lits) {
  // Assumptions that already hold still open a level, so levels can
  // outnumber variables.
  const size_t levels = static_cast<size_t>(DecisionLevel()) + 1;
  if (level_stamp_.size() < levels) level_stamp_.resize(levels, 0);
  if (++lbd_stamp_ == 0) {  // wrapped: old stamps could alias
    std::fill(level_stamp_.begin(), level_stamp_.end(), 0);
    lbd_stamp_ = 1;
  }
  uint32_t lbd = 0;
  for (const Lit l : lits) {
    uint32_t& stamp = level_stamp_[level_[VarOf(l)]];
    if (stamp != lbd_stamp_) {
      stamp = lbd_stamp_;
      ++lbd;
    }
  }
  return lbd;
}

void Solver::ReduceLearnts() {
  size_t deleted = 0;
  {
    // Learnt clauses above the keep tier, each keyed by (LBD << 32 | size)
    // and its arena offset: a total order (lower LBD, then shorter, then
    // earlier in the arena first), so a given database always loses the
    // same clauses. The key holds every field whole. The keys are freed
    // before compaction copies the arena, so they never add to that peak.
    std::vector<std::pair<uint64_t, ClauseRef>> candidates;
    for (ClauseRef c = 0; c < arena_.size(); c += WordsOf(c)) {
      if (IsLearnt(c) && LbdOf(c) > kKeepLbd) {
        candidates.push_back({(uint64_t{LbdOf(c)} << 32) | SizeOf(c), c});
      }
    }
    std::sort(candidates.begin(), candidates.end());
    for (size_t i = candidates.size() / 2; i < candidates.size(); ++i) {
      const ClauseRef c = candidates[i].second;
      if ((Header(c) & kUsedBit) != 0) continue;  // spared this time
      // A long clause that is a reason implies its first literal.
      const Lit first = LitsOf(c)[0];
      if (ValueOfLit(first) == kTrue && reason_[VarOf(first)] == c) continue;
      SetFlag(c, kDeletedBit);
      ++deleted;
    }
  }
  for (ClauseRef c = 0; c < arena_.size(); c += WordsOf(c)) {
    arena_[c] = static_cast<Lit>(Header(c) & ~kUsedBit);
  }
  learnts_deleted_ += deleted;
  if (deleted > 0) CompactArena();
}

void Solver::CompactArena() {
  // Copy the live clauses into a fresh arena in order. Each moved clause
  // leaves its new offset in the word after its old header (the LBD word
  // or the first literal), which the remap passes below read.
  size_t live_words = 0;
  for (ClauseRef c = 0; c < arena_.size(); c += WordsOf(c)) {
    if ((Header(c) & kDeletedBit) == 0) live_words += WordsOf(c);
  }
  std::vector<Lit> fresh;
  fresh.reserve(live_words);
  for (ClauseRef c = 0; c < arena_.size();) {
    const uint32_t words = WordsOf(c);
    if ((Header(c) & kDeletedBit) == 0) {
      const auto from = arena_.begin() + c;
      const ClauseRef to = static_cast<ClauseRef>(fresh.size());
      fresh.insert(fresh.end(), from, from + words);
      arena_[c + 1] = static_cast<Lit>(to);
    }
    c += words;
  }
  const auto moved = [&](ClauseRef c) {
    return static_cast<ClauseRef>(arena_[c + 1]);
  };
  for (std::vector<Watcher>& ws : watches_) {
    size_t keep = 0;
    for (const Watcher w : ws) {
      if ((Header(w.clause()) & kDeletedBit) != 0) continue;
      ws[keep++] = Watcher::Of(moved(w.clause()), w.binary(), w.blocker);
    }
    ws.resize(keep);
  }
  for (const Lit l : trail_) {
    ClauseRef& r = reason_[VarOf(l)];
    if (r != kNoReason) r = moved(r);
  }
  arena_.swap(fresh);
}

void Solver::BacktrackTo(int target_level) {
  if (DecisionLevel() <= target_level) return;
  const int bound = trail_limits_[target_level];
  for (int i = static_cast<int>(trail_.size()) - 1; i >= bound; --i) {
    const Var v = VarOf(trail_[i]);
    phase_[v] = value_[MakeLit(v)];
    value_[MakeLit(v)] = kUndef;
    value_[MakeLit(v, true)] = kUndef;
    reason_[v] = kNoReason;
    if (heap_pos_[v] < 0) HeapInsert(v);
  }
  trail_.resize(bound);
  trail_limits_.resize(target_level);
  propagate_head_ = trail_.size();
}

// The most active unassigned variable, in its saved phase.
Lit Solver::PickBranchLit() {
  while (!heap_.empty()) {
    const Var v = HeapPop();
    if (value_[MakeLit(v)] == kUndef) return MakeLit(v, phase_[v] != kTrue);
  }
  return -1;
}

SolveResult Solver::Solve(std::span<const Lit> assumptions,
                          uint64_t conflict_limit) {
  if (unsat_at_root_) return SolveResult::kUnsat;
  BacktrackTo(0);
  if (Propagate() != kNoReason) {
    unsat_at_root_ = true;
    return SolveResult::kUnsat;
  }

  const int num_assumptions = static_cast<int>(assumptions.size());
  uint64_t restart_round = 0;
  uint64_t conflicts_until_restart = Luby(restart_round) * kRestartUnit;
  uint64_t local_conflicts = 0;
  std::vector<Lit> learnt;

  for (;;) {
    const ClauseRef conflict = Propagate();
    if (conflict != kNoReason) {
      ++conflicts_;
      ++local_conflicts;
      if (DecisionLevel() == 0) {
        // Conflict at the root: the clauses alone are UNSAT.
        unsat_at_root_ = true;
        return SolveResult::kUnsat;
      }
      if (DecisionLevel() <= num_assumptions) {
        // Conflict among the assumptions: UNSAT for this query.
        BacktrackTo(0);
        return SolveResult::kUnsat;
      }
      int bt_level = 0;
      Analyze(conflict, &learnt, &bt_level);
      if (learnt.size() == 1) {
        // A learnt unit follows from the clauses alone: assert it at the
        // root, so it outlives this query.
        BacktrackTo(0);
        Enqueue(learnt[0], kNoReason);
      } else {
        const uint32_t lbd = Lbd(learnt);
        // Never backjump into the assumption prefix.
        BacktrackTo(std::max(bt_level, num_assumptions));
        Enqueue(learnt[0], AttachClause(learnt, /*learnt=*/true, lbd));
      }
      DecayActivities();
      if (conflict_limit != 0 && conflicts_ >= conflict_limit) {
        BacktrackTo(0);
        return SolveResult::kUnknown;
      }
      if (local_conflicts >= conflicts_until_restart) {
        local_conflicts = 0;
        conflicts_until_restart = Luby(++restart_round) * kRestartUnit;
        BacktrackTo(num_assumptions);
      }
      continue;
    }

    if (conflicts_ >= next_reduce_) {
      ReduceLearnts();
      reduce_interval_ += kReduceGrowth;
      next_reduce_ = conflicts_ + reduce_interval_;
    }

    // Place pending assumptions as decisions.
    if (DecisionLevel() < num_assumptions) {
      const Lit a = assumptions[DecisionLevel()];
      const int8_t v = ValueOfLit(a);
      if (v == kFalse) {
        BacktrackTo(0);
        return SolveResult::kUnsat;
      }
      trail_limits_.push_back(static_cast<int>(trail_.size()));
      if (v == kUndef) Enqueue(a, kNoReason);
      continue;
    }

    const Lit next = PickBranchLit();
    if (next < 0) {
      // Full assignment: record the model.
      for (Var v = 0; v < NumVars(); ++v) model_[v] = value_[MakeLit(v)];
      BacktrackTo(0);
      return SolveResult::kSat;
    }
    ++decisions_;
    trail_limits_.push_back(static_cast<int>(trail_.size()));
    Enqueue(next, kNoReason);
  }
}

// --- VSIDS heap -------------------------------------------------------------
//
// The sifts carry the moving variable in a hole and write it once where it
// stops. They compare exactly as swapping sifts do, so the heap's layout,
// and with it the tie order, is the same.

void Solver::HeapSiftUp(int i) {
  const Var v = heap_[i];
  const double a = activity_[v];
  while (i > 0) {
    const int parent = (i - 1) / 2;
    const Var up = heap_[parent];
    if (activity_[up] >= a) break;
    heap_[i] = up;
    heap_pos_[up] = i;
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[v] = i;
}

void Solver::HeapSiftDown(int i) {
  const Var v = heap_[i];
  const double a = activity_[v];
  const int n = static_cast<int>(heap_.size());
  for (;;) {
    // The larger child, the left one on a tie, moves up if it beats v.
    const int l = 2 * i + 1;
    const int r = l + 1;
    int best = -1;
    double best_a = a;
    if (l < n && activity_[heap_[l]] > best_a) {
      best = l;
      best_a = activity_[heap_[l]];
    }
    if (r < n && activity_[heap_[r]] > best_a) best = r;
    if (best < 0) break;
    heap_[i] = heap_[best];
    heap_pos_[heap_[i]] = i;
    i = best;
  }
  heap_[i] = v;
  heap_pos_[v] = i;
}

void Solver::HeapInsert(Var v) {
  heap_.push_back(v);
  HeapSiftUp(static_cast<int>(heap_.size()) - 1);
}

// Activity increased: sift up.
void Solver::HeapDecrease(Var v) { HeapSiftUp(heap_pos_[v]); }

Var Solver::HeapPop() {
  const Var top = heap_[0];
  heap_pos_[top] = -1;
  const Var last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    HeapSiftDown(0);
  }
  return top;
}

SolveResult ProveEqual(Solver& solver, Lit a, Lit b, uint64_t conflict_limit) {
  const uint64_t limit =
      conflict_limit == 0 ? 0 : solver.conflicts() + conflict_limit;
  for (const std::array<Lit, 2>& differ :
       {std::array<Lit, 2>{a, Negate(b)}, std::array<Lit, 2>{Negate(a), b}}) {
    // A first polarity proven on its last allowed conflict leaves nothing
    // for the second: Solve checks the limit only after a conflict.
    if (limit != 0 && solver.conflicts() >= limit) {
      return SolveResult::kUnknown;
    }
    const SolveResult r = solver.Solve(differ, limit);
    if (r != SolveResult::kUnsat) return r;
  }
  // Lock in the equivalence for future propagation.
  solver.AddBinary(Negate(a), b);
  solver.AddBinary(a, Negate(b));
  return SolveResult::kUnsat;
}

}  // namespace splitlock::sat
