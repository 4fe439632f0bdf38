#include "attack/sat_attack.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <set>

#include "exec/parallel.hpp"
#include "exec/stream_rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sat/solver.hpp"
#include "util/lanes.hpp"
#include "sat/tseitin.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/stopwatch.hpp"

namespace splitlock::attack {
namespace {

// SAT-attack observability. All nine counters are count-class: rounds,
// DIPs, oracle queries and the sweep's tallies are pure functions of the
// instance + options, and the solver's conflicts, decisions and
// propagations are deterministic by the solver contract. They are
// registry-only: no record stores decisions, propagations or the sweep's
// tallies.
struct SatMetrics {
  obs::Counter* rounds;
  obs::Counter* dips;
  obs::Counter* oracle_queries;
  obs::Counter* conflicts;
  obs::Counter* decisions;
  obs::Counter* propagations;
  obs::Counter* sweep_proofs;   // ProveEqual calls
  obs::Counter* sweep_proven;   // pairs proven equal
  obs::Counter* sweep_refuted;  // pairs an earlier failed proof told apart
};

SatMetrics& Metrics() {
  static SatMetrics m = [] {
    obs::Registry& r = obs::Registry::Instance();
    return SatMetrics{
        r.RegisterCounter("attack.sat.rounds"),
        r.RegisterCounter("attack.sat.dips"),
        r.RegisterCounter("attack.sat.oracle_queries"),
        r.RegisterCounter("attack.sat.conflicts"),
        r.RegisterCounter("attack.sat.decisions"),
        r.RegisterCounter("attack.sat.propagations"),
        r.RegisterCounter("attack.sat.sweep.proofs"),
        r.RegisterCounter("attack.sat.sweep.proven"),
        r.RegisterCounter("attack.sat.sweep.refuted"),
    };
  }();
  return m;
}

// The solver's work counters before a solve.
struct SolverWork {
  uint64_t conflicts;
  uint64_t decisions;
  uint64_t propagations;
};

SolverWork WorkOf(const sat::Solver& s) {
  return {s.conflicts(), s.decisions(), s.propagations()};
}

// Adds the work `s` did since `before` to the registry; returns its
// conflicts.
uint64_t CountRoundWork(const sat::Solver& s, const SolverWork& before) {
  const SolverWork now = WorkOf(s);
  Metrics().conflicts->Add(now.conflicts - before.conflicts);
  Metrics().decisions->Add(now.decisions - before.decisions);
  Metrics().propagations->Add(now.propagations - before.propagations);
  return now.conflicts - before.conflicts;
}

// The oracle-guided attack's state: the two-copy miter over the locked
// netlist, the oracle's simulator and the per-round DIP constraint
// encoding.
class MiterAttack {
 public:
  MiterAttack(const Netlist& locked, const Netlist& oracle)
      : enc_(solver_),
        oracle_sim_(oracle),
        num_pis_(locked.inputs().size()),
        num_pos_(locked.outputs().size()),
        num_keys_(locked.KeyInputs().size()),
        dip_enc_(enc_, locked) {
    x_.resize(num_pis_);
    for (auto& l : x_) l = enc_.FreshLit();
    k1_.resize(num_keys_);
    k2_.resize(num_keys_);
    for (auto& l : k1_) l = enc_.FreshLit();
    for (auto& l : k2_) l = enc_.FreshLit();

    std::vector<sat::Lit> lits1;
    std::vector<sat::Lit> lits2;
    const std::vector<sat::Lit> outs1 =
        enc_.EncodeNetlist(locked, x_, k1_, &lits1);
    const std::vector<sat::Lit> outs2 =
        enc_.EncodeNetlist(locked, x_, k2_, &lits2);
    // Sweep candidates: each key-dependent gate's two copies, unless
    // structural hashing already made them equal or complementary.
    for (GateId g : dip_enc_.ConeGates()) {
      const NetId n = locked.gate(g).out;
      if (sat::VarOf(lits1[n]) != sat::VarOf(lits2[n])) {
        pairs_.push_back({lits1[n], lits2[n]});
      }
    }

    // Miter: exists an input where the two key hypotheses disagree.
    std::vector<sat::Lit> diffs;
    for (size_t o = 0; o < num_pos_; ++o) {
      const sat::Lit d = enc_.EncodeOp(
          GateOp::kXor, std::array<sat::Lit, 2>{outs1[o], outs2[o]});
      if (d != enc_.FalseLit()) diffs.push_back(d);
    }
    // diff_any <-> OR(diffs): encode via a fresh selector we can assume.
    diff_any_ = enc_.FreshLit();
    std::vector<sat::Lit> clause{sat::Negate(diff_any_)};
    clause.insert(clause.end(), diffs.begin(), diffs.end());
    solver_.AddClause(clause);  // diff_any -> OR(diffs)
  }

  sat::Solver& solver() { return solver_; }

  // One round's miter solve: is there a DIP left? A solve still open after
  // kSweepConflicts pauses once for Sweep, then resumes. `conflict_budget`
  // caps the solver's lifetime conflicts (0 = unlimited).
  sat::SolveResult SolveRound(uint64_t conflict_budget) {
    const std::array<sat::Lit, 1> assumptions{diff_any_};
    const uint64_t pause = solver_.conflicts() + kSweepConflicts;
    const sat::SolveResult sr = solver_.Solve(
        assumptions,
        conflict_budget == 0 ? pause : std::min(conflict_budget, pause));
    if (sr != sat::SolveResult::kUnknown || Spent(conflict_budget)) return sr;
    Sweep(conflict_budget);
    if (Spent(conflict_budget)) return sat::SolveResult::kUnknown;
    return solver_.Solve(assumptions, conflict_budget);
  }

  // Takes the DIP from the model currently held in solver(), queries the
  // oracle on it and constrains both key hypotheses to agree with the
  // response. Counts the DIP in `result` and fills the oracle/encode
  // timings of its last telemetry round.
  void LearnDip(SatAttackResult* result) {
    std::vector<uint8_t> dip(num_pis_);
    for (size_t i = 0; i < num_pis_; ++i) {
      dip[i] = static_cast<uint8_t>(sat::LitValue(solver_, x_[i]));
    }
    ++result->dips_used;
    ++result->telemetry.oracle_queries;
    Metrics().dips->Add(1);
    Metrics().oracle_queries->Add(1);
    RoundStat& round = result->telemetry.rounds.back();

    const Stopwatch oracle_sw;
    {
      obs::Span span("attack.sat.oracle");
      std::vector<uint64_t> words(num_pis_);
      for (size_t i = 0; i < num_pis_; ++i) words[i] = dip[i] ? ~0ULL : 0ULL;
      oracle_sim_.SetInputWords(words);
      oracle_sim_.Run();
    }
    round.oracle_ms = oracle_sw.Ms();

    // Under constant inputs all non-key logic folds to constants; only the
    // key-dependent cone produces CNF (see IncrementalDipEncoder).
    obs::Span encode_span("attack.sat.encode");
    const Stopwatch encode_sw;
    dip_enc_.SetDip(dip);
    for (const auto& keys : {k1_, k2_}) {
      const std::vector<sat::Lit> outs = dip_enc_.Encode(keys);
      for (size_t o = 0; o < num_pos_; ++o) {
        const bool want = (oracle_sim_.OutputWord(o) & 1) != 0;
        solver_.AddUnit(want ? outs[o] : sat::Negate(outs[o]));
      }
    }
    round.encode_ms = encode_sw.Ms();
  }

  // All DIPs exhausted: any key satisfying the accumulated IO constraints
  // is functionally correct. Solve once more without the miter assumption.
  void ExtractKey(uint64_t conflict_limit, SatAttackResult* result) {
    obs::Span span("attack.sat.extract_key");
    const Stopwatch final_sw;
    const SolverWork work_before = WorkOf(solver_);
    const sat::SolveResult final_sr = solver_.Solve({}, conflict_limit);
    CountRoundWork(solver_, work_before);
    result->telemetry.final_solve_ms = final_sw.Ms();
    if (final_sr != sat::SolveResult::kSat) return;
    result->key_found = true;
    result->recovered_key.resize(num_keys_);
    for (size_t i = 0; i < num_keys_; ++i) {
      result->recovered_key[i] =
          static_cast<uint8_t>(sat::LitValue(solver_, k1_[i]));
    }
  }

 private:
  // A key-dependent gate's literal in each key copy of the miter.
  struct SweepPair {
    sat::Lit lit1;
    sat::Lit lit2;
    bool proven = false;
  };

  bool Spent(uint64_t conflict_budget) const {
    return conflict_budget != 0 && solver_.conflicts() >= conflict_budget;
  }

  // SAT sweeping across the two key copies (Mishchenko et al., ICCAD'06):
  // tries to prove each unproven pair equal, in topological order, so the
  // termination proof can propagate through the equalities instead of
  // rediscovering them. No proof assumes diff_any, so a proven equality
  // follows from the two copies and the DIP constraints alone, and keeping
  // it leaves every later answer, the final UNSAT included, sound. A
  // failed proof's model satisfies that same clause database, so any later
  // pair it tells apart would fail too and is skipped for this sweep.
  void Sweep(uint64_t conflict_budget) {
    obs::Span span("attack.sat.sweep");
    SatMetrics& metrics = Metrics();
    std::vector<uint8_t> told_apart(pairs_.size(), 0);
    for (size_t i = 0; i < pairs_.size(); ++i) {
      SweepPair& pair = pairs_[i];
      if (pair.proven) continue;
      if (told_apart[i] != 0) {
        metrics.sweep_refuted->Add(1);
        continue;
      }
      if (Spent(conflict_budget)) return;
      const uint64_t limit =
          conflict_budget == 0
              ? kSweepConflicts
              : std::min(kSweepConflicts,
                         conflict_budget - solver_.conflicts());
      metrics.sweep_proofs->Add(1);
      const sat::SolveResult r =
          sat::ProveEqual(solver_, pair.lit1, pair.lit2, limit);
      if (r == sat::SolveResult::kUnsat) {
        pair.proven = true;
        metrics.sweep_proven->Add(1);
      } else if (r == sat::SolveResult::kSat) {
        for (size_t j = i + 1; j < pairs_.size(); ++j) {
          if (sat::LitValue(solver_, pairs_[j].lit1) !=
              sat::LitValue(solver_, pairs_[j].lit2)) {
            told_apart[j] = 1;
          }
        }
      }
    }
  }

  sat::Solver solver_;  // declared before the encoders
  sat::StructuralEncoder enc_;
  Simulator oracle_sim_;
  const size_t num_pis_;
  const size_t num_pos_;
  const size_t num_keys_;
  sat::IncrementalDipEncoder dip_enc_;
  std::vector<sat::Lit> x_;
  std::vector<sat::Lit> k1_;
  std::vector<sat::Lit> k2_;
  sat::Lit diff_any_ = 0;
  std::vector<SweepPair> pairs_;  // topological order
};

}  // namespace

SatAttackResult RunSatAttack(const Netlist& locked, const Netlist& oracle,
                             const SatAttackOptions& options) {
  assert(locked.inputs().size() == oracle.inputs().size());
  assert(locked.outputs().size() == oracle.outputs().size());
  SatAttackResult result;
  const Stopwatch total_sw;

  MiterAttack miter(locked, oracle);
  sat::Solver& solver = miter.solver();

  while (result.dips_used < options.max_dips) {
    RoundStat tel;
    obs::Span round_span("attack.sat.round", result.telemetry.rounds.size());
    Metrics().rounds->Add(1);
    const Stopwatch solve_sw;
    const SolverWork work_before = WorkOf(solver);
    sat::SolveResult sr;
    {
      obs::Span span("attack.sat.solve");
      sr = miter.SolveRound(options.conflict_budget);
    }
    tel.solve_ms = solve_sw.Ms();
    tel.conflicts = CountRoundWork(solver, work_before);
    result.telemetry.rounds.push_back(tel);
    if (sr == sat::SolveResult::kUnknown) break;  // budget blown; unfinished
    if (sr == sat::SolveResult::kUnsat) {
      result.finished = true;
      break;
    }
    miter.LearnDip(&result);
  }
  if (result.finished) {
    miter.ExtractKey(options.conflict_budget, &result);
    if (result.key_found) {
      const Stopwatch verify_sw;
      result.functionally_correct =
          RandomPatternsAgree(oracle, locked, options.verify_patterns,
                              options.seed, {}, result.recovered_key);
      result.telemetry.verify_ms = verify_sw.Ms();
    }
  }
  result.telemetry.total_conflicts = solver.conflicts();
  result.telemetry.total_ms = total_sw.Ms();
  return result;
}

OracleLessProbe ProbeOracleLessKeySpace(const Netlist& locked, size_t samples,
                                        uint64_t patterns, uint64_t seed) {
  OracleLessProbe probe;
  const std::vector<GateId> keys = locked.KeyInputs();
  const uint64_t words = (patterns + 63) / 64;
  const size_t num_pos = locked.outputs().size();

  // Shared input stimulus across all sampled keys, so fingerprints are
  // comparable. Word w is a pure function of (seed, w): shard boundaries
  // cannot change what any key sees.
  std::vector<std::vector<uint64_t>> stimulus(
      words, std::vector<uint64_t>(locked.inputs().size()));
  for (uint64_t w = 0; w < words; ++w) FillStimulusWord(seed, w, stimulus[w]);
  // Lanes of the final word beyond `patterns` carry garbage from unused
  // stimulus bits; LaneMaskForWord masks them out of the fingerprint so
  // they cannot split functionally identical keys into distinct
  // fingerprints.

  // Key sampling is sharded across the pool; each sample's key bits come
  // from the counter-based stream (seed, kKeySample, s), so the sampled key
  // set is identical at any thread count. Fingerprints merge through a set,
  // which is order-insensitive.
  constexpr size_t kSamplesPerShard = 8;
  const std::set<std::vector<uint64_t>> fingerprints =
      exec::ParallelReduce<std::set<std::vector<uint64_t>>>(
      samples, kSamplesPerShard, {},
      [&](size_t lo, size_t hi) {
        Simulator sim(locked);
        std::set<std::vector<uint64_t>> local;
        for (size_t s = lo; s < hi; ++s) {
          exec::StreamRng krng(seed, exec::StreamDomain::kKeySample, s);
          std::vector<uint8_t> key(keys.size());
          for (auto& b : key) b = krng.NextBool() ? 1 : 0;
          sim.SetKeyBits(key);
          std::vector<uint64_t> fp;
          fp.reserve(words * num_pos);
          for (uint64_t w = 0; w < words; ++w) {
            sim.SetInputWords(stimulus[w]);
            sim.Run();
            const uint64_t mask = LaneMaskForWord(w, words, patterns);
            for (size_t o = 0; o < num_pos; ++o) {
              fp.push_back(sim.OutputWord(o) & mask);
            }
          }
          local.insert(std::move(fp));
        }
        return local;
      },
      [](std::set<std::vector<uint64_t>> x, std::set<std::vector<uint64_t>> y) {
        x.merge(std::move(y));
        return x;
      });
  probe.sampled_keys = samples;
  probe.distinct_functions = fingerprints.size();
  return probe;
}

}  // namespace splitlock::attack
