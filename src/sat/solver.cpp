#include "sat/solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

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

Solver Solver::Clone() const {
  Solver copy(*this);
  copy.abort_flag_ = nullptr;
  return copy;
}

uint64_t Solver::NextDiversificationWord() {
  if (!div_seeded_) {
    // SplitMix64 finalizer over the seed, so nearby seeds give unrelated
    // streams.
    uint64_t x = config_.branch_seed + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    div_state_ = x ^ (x >> 31);
    div_seeded_ = true;
  }
  div_state_ += 0x9e3779b97f4a7c15ULL;
  uint64_t x = div_state_;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

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

void Solver::Enqueue(Lit l, ClauseRef reason) {
  const Var v = VarOf(l);
  assert(value_[l] == kUndef);
  value_[l] = kTrue;
  value_[Negate(l)] = kFalse;
  level_[v] = DecisionLevel();
  reason_[v] = reason;
  trail_.push_back(l);
}

Solver::ClauseRef Solver::Propagate() {
  while (propagate_head_ < trail_.size()) {
    const Lit p = trail_[propagate_head_++];
    auto& ws = watches_[p];
    size_t keep = 0;
    for (size_t i = 0; i < ws.size(); ++i) {
      const Watcher w = ws[i];
      const int8_t blocker_value = ValueOfLit(w.blocker);
      if (blocker_value == kTrue) {
        ws[keep++] = w;
        continue;
      }
      if (w.binary()) {
        // The blocker is the clause's other literal.
        if (blocker_value == kFalse) {
          for (size_t j = i; j < ws.size(); ++j) ws[keep++] = ws[j];
          ws.resize(keep);
          return w.clause();
        }
        ws[keep++] = w;
        Enqueue(w.blocker, w.clause());
        continue;
      }
      auto cl = LitsOf(w.clause());
      // Ensure the falsified literal is cl[1].
      const Lit not_p = Negate(p);
      if (cl[0] == not_p) std::swap(cl[0], cl[1]);
      if (ValueOfLit(cl[0]) == kTrue) {
        ws[keep++] = Watcher::Of(w.clause(), false, cl[0]);
        continue;
      }
      // Search a replacement watch.
      bool moved = false;
      for (size_t k = 2; k < cl.size(); ++k) {
        if (ValueOfLit(cl[k]) != kFalse) {
          std::swap(cl[1], cl[k]);
          watches_[Negate(cl[1])].push_back(
              Watcher::Of(w.clause(), false, cl[0]));
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Clause is unit or conflicting.
      if (ValueOfLit(cl[0]) == kFalse) {
        // Conflict: restore remaining watchers and report.
        for (size_t j = i; j < ws.size(); ++j) ws[keep++] = ws[j];
        ws.resize(keep);
        return w.clause();
      }
      ws[keep++] = Watcher::Of(w.clause(), false, cl[0]);
      Enqueue(cl[0], w.clause());
    }
    ws.resize(keep);
  }
  return kNoReason;
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
      if (seen_[v] != 0 || level_[v] == 0) continue;
      seen_[v] = 1;
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
    } while (seen_[VarOf(p)] == 0);
    seen_[VarOf(p)] = 0;
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
  for (const Lit l : analyze_toclear_) seen_[VarOf(l)] = 0;
}

bool Solver::LitRedundant(Lit p, uint32_t abstract_levels) {
  analyze_stack_.clear();
  analyze_stack_.push_back(p);
  const size_t top = analyze_toclear_.size();
  while (!analyze_stack_.empty()) {
    const Var x = VarOf(analyze_stack_.back());
    analyze_stack_.pop_back();
    for (const Lit q : LitsOf(reason_[x])) {
      const Var v = VarOf(q);
      if (v == x || seen_[v] != 0 || level_[v] == 0) continue;
      if (reason_[v] == kNoReason ||
          (AbstractLevel(v) & abstract_levels) == 0) {
        // q rests on a decision, or on a level the clause does not
        // contain: p is not implied by the other literals.
        for (size_t k = top; k < analyze_toclear_.size(); ++k) {
          seen_[VarOf(analyze_toclear_[k])] = 0;
        }
        analyze_toclear_.resize(top);
        return false;
      }
      seen_[v] = 1;
      analyze_stack_.push_back(q);
      analyze_toclear_.push_back(q);
    }
  }
  return true;
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
  std::vector<ClauseRef> candidates;  // learnt clauses above the keep tier
  for (ClauseRef c = 0; c < arena_.size(); c += WordsOf(c)) {
    if (IsLearnt(c) && LbdOf(c) > kKeepLbd) candidates.push_back(c);
  }
  // Total order: lower LBD, then shorter, then earlier in the arena first,
  // so a given database always loses the same clauses.
  std::sort(candidates.begin(), candidates.end(),
            [&](ClauseRef a, ClauseRef b) {
              if (LbdOf(a) != LbdOf(b)) return LbdOf(a) < LbdOf(b);
              if (SizeOf(a) != SizeOf(b)) return SizeOf(a) < SizeOf(b);
              return a < b;
            });
  size_t deleted = 0;
  for (size_t i = candidates.size() / 2; i < candidates.size(); ++i) {
    const ClauseRef c = candidates[i];
    if ((Header(c) & kUsedBit) != 0) continue;  // spared this time
    // A long clause that is a reason implies its first literal.
    const Lit first = LitsOf(c)[0];
    if (ValueOfLit(first) == kTrue && reason_[VarOf(first)] == c) continue;
    SetFlag(c, kDeletedBit);
    ++deleted;
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

Lit Solver::PickBranchLit() {
  const auto branch_true = [&](Var v) -> bool {
    switch (config_.polarity) {
      case PolarityMode::kSaved:
        return phase_[v] == kTrue;
      case PolarityMode::kFalse:
        return false;
      case PolarityMode::kTrue:
        return true;
      case PolarityMode::kRandom:
        return (NextDiversificationWord() & 1u) != 0;
    }
    return phase_[v] == kTrue;
  };
  if (config_.random_branch_freq > 0.0 && !heap_.empty()) {
    const double u = static_cast<double>(NextDiversificationWord() >> 11) *
                     0x1p-53;  // uniform in [0, 1)
    if (u < config_.random_branch_freq) {
      // One draw into the VSIDS heap; a hit on an assigned variable simply
      // falls through to the activity order (keeps the stream's draw count
      // a pure function of the search path).
      const Var v = heap_[NextDiversificationWord() % heap_.size()];
      if (value_[MakeLit(v)] == kUndef) return MakeLit(v, !branch_true(v));
    }
  }
  while (!heap_.empty()) {
    const Var v = HeapPop();
    if (value_[MakeLit(v)] == kUndef) {
      return MakeLit(v, !branch_true(v));
    }
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

  const uint64_t restart_unit = std::max<uint64_t>(config_.restart_unit, 1);
  const int num_assumptions = static_cast<int>(assumptions.size());
  uint64_t restart_round = 0;
  uint64_t conflicts_until_restart = Luby(restart_round) * restart_unit;
  uint64_t local_conflicts = 0;
  std::vector<Lit> learnt;

  for (;;) {
    if (abort_flag_ && abort_flag_->load(std::memory_order_relaxed)) {
      BacktrackTo(0);
      return SolveResult::kUnknown;
    }
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
        conflicts_until_restart = Luby(++restart_round) * restart_unit;
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
    trail_limits_.push_back(static_cast<int>(trail_.size()));
    Enqueue(next, kNoReason);
  }
}

// --- VSIDS heap -------------------------------------------------------------

void Solver::HeapSwap(int i, int j) {
  std::swap(heap_[i], heap_[j]);
  heap_pos_[heap_[i]] = i;
  heap_pos_[heap_[j]] = j;
}

void Solver::HeapInsert(Var v) {
  heap_.push_back(v);
  int i = static_cast<int>(heap_.size()) - 1;
  heap_pos_[v] = i;
  while (i > 0) {
    const int parent = (i - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[heap_[i]]) break;
    HeapSwap(i, parent);
    i = parent;
  }
}

void Solver::HeapDecrease(Var v) {
  // Activity increased: sift up.
  int i = heap_pos_[v];
  while (i > 0) {
    const int parent = (i - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[heap_[i]]) break;
    HeapSwap(i, parent);
    i = parent;
  }
}

Var Solver::HeapPop() {
  const Var top = heap_[0];
  heap_pos_[top] = -1;
  if (heap_.size() > 1) {
    heap_[0] = heap_.back();
    heap_pos_[heap_[0]] = 0;
  }
  heap_.pop_back();
  // Sift down.
  int i = 0;
  const int n = static_cast<int>(heap_.size());
  for (;;) {
    const int l = 2 * i + 1;
    const int r = 2 * i + 2;
    int best = i;
    if (l < n && activity_[heap_[l]] > activity_[heap_[best]]) best = l;
    if (r < n && activity_[heap_[r]] > activity_[heap_[best]]) best = r;
    if (best == i) break;
    HeapSwap(i, best);
    i = best;
  }
  return top;
}

}  // namespace splitlock::sat
