#include "lock/atpg_lock.hpp"

#include <algorithm>
#include <cassert>
#include <set>
#include <stdexcept>

#include "atpg/cube.hpp"
#include "atpg/cut.hpp"
#include "lec/lec.hpp"
#include "lock/epic.hpp"
#include "lock/key.hpp"
#include "lock/restore.hpp"
#include "netlist/libcell.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/mffc.hpp"
#include "opt/optimizer.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace splitlock::lock {
namespace {

// Lock-stage counters, all count-class: the lock is sequential and every
// count is a pure function of (netlist, options).
struct LockMetrics {
  obs::Counter* faults;  // accepted faults
  // Candidates rejected before apply, by reason.
  obs::Counter* rejected_cut;         // MFFC cut over max_cut_leaves
  obs::Counter* rejected_minterms;    // empty or oversized on-set
  obs::Counter* rejected_cubes;       // too many comparator cubes
  obs::Counter* rejected_degenerate;  // a cube without care literals
  obs::Counter* rejected_gain;        // restore logic outweighs the cone
  obs::Counter* rejected_prescreen;   // a literal dead on the shared samples
  // Applies by path: the O(cone) sweep, or a full OptimizeArea.
  obs::Counter* apply_local;
  obs::Counter* apply_full;
  // Faults applied and then rolled back because a key bit was dead.
  obs::Counter* rollbacks;
  obs::Counter* key_bit_checks;  // per-bit activity checks run
  obs::Counter* check_words;     // pattern words those checks simulated
};

LockMetrics& Metrics() {
  static LockMetrics m = [] {
    obs::Registry& r = obs::Registry::Instance();
    return LockMetrics{
        r.RegisterCounter("lock.faults"),
        r.RegisterCounter("lock.rejected.cut"),
        r.RegisterCounter("lock.rejected.minterms"),
        r.RegisterCounter("lock.rejected.cubes"),
        r.RegisterCounter("lock.rejected.degenerate"),
        r.RegisterCounter("lock.rejected.gain"),
        r.RegisterCounter("lock.rejected.prescreen"),
        r.RegisterCounter("lock.apply.local"),
        r.RegisterCounter("lock.apply.full"),
        r.RegisterCounter("lock.rollbacks"),
        r.RegisterCounter("lock.key_bit_checks"),
        r.RegisterCounter("lock.check_words"),
    };
  }();
  return m;
}

struct Candidate {
  NetId net = kNullId;
  bool majority = false;  // stuck-at value (the likely value)
  double score = 0.0;     // bias-weighted removable area
};

// Ranks fault-site candidates on the current netlist.
std::vector<Candidate> RankCandidates(const Netlist& nl,
                                      const AtpgLockOptions& options,
                                      uint64_t seed) {
  const std::vector<double> probs =
      EstimateSignalProbabilities(nl, options.bias_patterns, seed);
  std::vector<Candidate> candidates;
  for (GateId g = 0; g < nl.NumGates(); ++g) {
    const Gate& gate = nl.gate(g);
    if (gate.op == GateOp::kDeleted || gate.HasFlag(kFlagDontTouch) ||
        gate.HasFlag(kFlagRestore) || IsSourceOp(gate.op) ||
        gate.op == GateOp::kOutput) {
      continue;
    }
    const NetId n = gate.out;
    if (nl.net(n).sinks.empty()) continue;
    const double p1 = probs[n];
    const double bias = std::max(p1, 1.0 - p1);
    if (bias < options.min_bias) continue;
    const std::vector<GateId> cone = MffcOf(nl, g);
    const double removable = AreaOfGates(nl, cone);
    if (removable <= 0.0) continue;
    Candidate c;
    c.net = n;
    c.majority = p1 >= 0.5;
    // Stronger bias means a smaller failing-pattern on-set and hence a
    // cheaper comparator; weight the removable area by it.
    c.score = removable * (bias - options.min_bias + 0.05);
    candidates.push_back(c);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.score > b.score;
            });
  return candidates;
}

// Spreads ranked candidates across `partitions` round-robin buckets and
// re-interleaves them, so accepted faults distribute over the design the
// way the paper's per-partition fault selection does.
std::vector<Candidate> InterleaveByPartition(std::vector<Candidate> ranked,
                                             size_t partitions, Rng& rng) {
  if (partitions <= 1 || ranked.size() <= partitions) return ranked;
  std::vector<std::vector<Candidate>> buckets(partitions);
  // Random balanced assignment, preserving rank inside each bucket.
  std::vector<size_t> slots(ranked.size());
  for (size_t i = 0; i < slots.size(); ++i) slots[i] = i % partitions;
  rng.Shuffle(slots);
  for (size_t i = 0; i < ranked.size(); ++i) {
    buckets[slots[i]].push_back(std::move(ranked[i]));
  }
  std::vector<Candidate> out;
  out.reserve(slots.size());
  for (size_t round = 0; !buckets.empty(); ++round) {
    bool any = false;
    for (auto& b : buckets) {
      if (round < b.size()) {
        out.push_back(b[round]);
        any = true;
      }
    }
    if (!any) break;
  }
  return out;
}

// Every key bit from `first` on must actually lock something: flipping it
// alone must make `nl` differ from `original` on that bit's random patterns
// (comparator literals over correlated cut signals can be insensitive
// because parts of the cut space are unreachable). Each check is exactly
// !RandomPatternsAgree(original, nl, check_patterns, seed ^ (0x51D0 + b),
// {}, flipped key); most are decided by the first pattern word. Stops at
// the first dead bit.
bool KeyBitsActive(Simulator& original_sim, Simulator& nl_sim,
                   std::span<const uint8_t> key, size_t first,
                   const AtpgLockOptions& options) {
  std::vector<uint64_t> seeds;
  for (size_t b = first; b < key.size(); ++b) {
    seeds.push_back(options.seed ^ (0x51D0 + b));
  }
  const std::vector<KeyBitCheck> checks = CheckKeyBitFlips(
      original_sim, nl_sim, options.check_patterns, seeds, key, first);
  LockMetrics& metrics = Metrics();
  metrics.key_bit_checks->Add(checks.size());
  for (const KeyBitCheck& check : checks) metrics.check_words->Add(check.words);
  return checks.empty() || checks.back().active;
}

// True when some sink of `net` is an INV that SimplifyLocal may fold.
bool HasFoldableInvSink(const Netlist& nl, NetId net) {
  for (const Pin& p : nl.net(net).sinks) {
    const Gate& sink = nl.gate(p.gate);
    if (sink.op == GateOp::kInv && !sink.HasFlag(kFlagDontTouch)) return true;
  }
  return false;
}

}  // namespace

RestoreResult ApplyFault(Netlist& nl, const atpg::Cut& cut, bool stuck_value,
                         std::span<const atpg::Cube> cubes, Rng& rng,
                         size_t next_key_index, bool* at_fixed_point) {
  const bool local =
      *at_fixed_point && !(stuck_value && HasFoldableInvSink(nl, cut.root));
  const GateId old_driver = nl.DriverOf(cut.root);
  RestoreResult restore =
      BuildRestore(nl, cut, stuck_value, cubes, rng, next_key_index);
  nl.ReplaceAllUses(cut.root, restore.restored_net);
  if (local) {
    SweepDeadCone(nl, old_driver);
    Metrics().apply_local->Add(1);
  } else {
    *at_fixed_point = OptimizeArea(nl).converged;
    Metrics().apply_full->Add(1);
  }
  return restore;
}

AtpgLockResult LockWithAtpg(const Netlist& original,
                            const AtpgLockOptions& options) {
  AtpgLockResult result;
  result.locked = original.Compacted();
  result.original_area_um2 = TotalCellArea(result.locked);
  Netlist& nl = result.locked;
  Rng rng(options.seed);
  LockMetrics& metrics = Metrics();

  // The original's side of the per-fault checks, built once per lock: its
  // simulator and its responses to the fixed sanity stimulus.
  const uint64_t sanity_seed = options.seed ^ 0xabcdef;
  Simulator original_sim(original);
  const std::vector<uint64_t> original_responses =
      PatternResponses(original_sim, options.check_patterns, sanity_seed);

  size_t bits = 0;
  size_t next_key_index = 0;
  // The compacted original is not at OptimizeArea's fixed point; the first
  // apply's full pass brings it there.
  bool at_fixed_point = false;
  bool progress = true;
  // Nets whose fault was tried and rejected; never re-attempted (the
  // rejection reasons — cut size, on-set shape, dead key bits — do not go
  // away as other faults are injected).
  std::set<NetId> rejected;
  for (uint64_t round = 0; bits < options.key_bits && progress; ++round) {
    progress = false;
    obs::Span round_span("lock.round", round);
    std::vector<Candidate> candidates;
    // One shared random-sample sweep per round: per-net 64-bit sample
    // words used to pre-screen key-bit activity cheaply before paying for
    // the real apply-and-verify. `samples` is the sweep's batch buffer:
    // word w of net n at [n * kSampleWords + w].
    constexpr size_t kSampleWords = 32;
    std::vector<uint64_t> samples;
    {
      obs::Span span("lock.rank");
      candidates = RankCandidates(nl, options, rng.NextWord());
      candidates = InterleaveByPartition(std::move(candidates),
                                         options.partitions, rng);
      Simulator sim(nl);
      sim.BeginBatch(kSampleWords);
      if (!result.key.empty()) sim.SetKeyBitsBatch(result.key);
      // Drawn word by word, one word per primary input in inputs() order.
      Rng sample_rng(options.seed ^ 0x5a5a5a5a);
      const std::vector<GateId>& pis = nl.inputs();
      std::vector<uint64_t> rows(pis.size() * kSampleWords);
      for (size_t w = 0; w < kSampleWords; ++w) {
        for (size_t i = 0; i < pis.size(); ++i) {
          rows[i * kSampleWords + w] = sample_rng.NextWord();
        }
      }
      for (size_t i = 0; i < pis.size(); ++i) {
        sim.SetSourceBatch(
            pis[i], std::span<const uint64_t>(rows.data() + i * kSampleWords,
                                              kSampleWords));
      }
      sim.RunBatch();
      samples = sim.ReleaseBatch();
    }
    const size_t sampled_nets = samples.size() / kSampleWords;

    for (const Candidate& cand : candidates) {
      if (bits >= options.key_bits) break;
      if (rejected.count(cand.net) != 0) continue;
      // Re-check liveness: earlier accepted faults may have swept this net.
      const GateId driver = nl.DriverOf(cand.net);
      if (driver == kNullId || nl.gate(driver).op == GateOp::kDeleted ||
          nl.net(cand.net).sinks.empty()) {
        continue;
      }

      // The module boundary is the candidate's MFFC: the comparator's
      // support equals exactly the logic the fault removes, which keeps
      // the failing-pattern set compact (Sec. III-A's per-module ATPG).
      const std::vector<GateId> mffc = MffcOf(nl, driver);
      const atpg::Cut cut =
          atpg::CutFromCone(nl, cand.net, mffc, options.max_cut_leaves);
      if (cut.root == kNullId) {
        rejected.insert(cand.net);
        metrics.rejected_cut->Add(1);
        continue;
      }

      // Failing patterns: cut assignments on which the cone disagrees with
      // the stuck value.
      const auto minterms = atpg::EnumerateConeMinterms(
          nl, cut, !cand.majority, options.max_minterms);
      if (!minterms || minterms->empty()) {
        rejected.insert(cand.net);
        metrics.rejected_minterms->Add(1);
        continue;
      }
      const std::vector<atpg::Cube> cubes =
          atpg::MintermsToCubes(*minterms, cut.leaves.size());
      if (cubes.empty() || cubes.size() > options.max_cubes) {
        rejected.insert(cand.net);
        metrics.rejected_cubes->Add(1);
        continue;
      }
      size_t fault_bits = 0;
      bool degenerate = false;
      for (const atpg::Cube& c : cubes) {
        if (c.CareCount() == 0) degenerate = true;
        fault_bits += static_cast<size_t>(c.CareCount());
      }
      if (degenerate || fault_bits == 0) {
        rejected.insert(cand.net);
        metrics.rejected_degenerate->Add(1);
        continue;
      }
      if (bits + fault_bits > options.key_bits) continue;  // retry later

      // Cheap activity pre-screen on the shared samples: flipping any
      // single comparator literal must change the match function on at
      // least one observed (reachable) leaf pattern; otherwise the key
      // bit would be dead (correlated cut signals).
      {
        bool leaves_sampled = true;
        for (NetId leaf : cut.leaves) {
          if (leaf >= sampled_nets) leaves_sampled = false;
        }
        if (leaves_sampled) {
          bool all_literals_alive = true;
          // Literal words per cube: literal true iff leaf matches the
          // cube's required value.
          for (size_t ci = 0; ci < cubes.size() && all_literals_alive;
               ++ci) {
            for (size_t li = 0; li < cut.leaves.size(); ++li) {
              if ((cubes[ci].care & (1ULL << li)) == 0) continue;
              bool alive = false;
              for (size_t w = 0; w < kSampleWords && !alive; ++w) {
                uint64_t match = 0;
                uint64_t match_flipped = 0;
                for (size_t cj = 0; cj < cubes.size(); ++cj) {
                  uint64_t cube_word = ~0ULL;
                  uint64_t cube_word_f = ~0ULL;
                  for (size_t lj = 0; lj < cut.leaves.size(); ++lj) {
                    if ((cubes[cj].care & (1ULL << lj)) == 0) continue;
                    const uint64_t leaf_word =
                        samples[cut.leaves[lj] * kSampleWords + w];
                    uint64_t lit = ((cubes[cj].value >> lj) & 1)
                                       ? leaf_word
                                       : ~leaf_word;
                    cube_word &= lit;
                    if (cj == ci && lj == li) lit = ~lit;
                    cube_word_f &= lit;
                  }
                  match |= cube_word;
                  match_flipped |= cube_word_f;
                }
                if ((match ^ match_flipped) != 0) alive = true;
              }
              if (!alive) {
                all_literals_alive = false;
                break;
              }
            }
          }
          if (!all_literals_alive) {
            rejected.insert(cand.net);
            metrics.rejected_prescreen->Add(1);
            continue;
          }
        }
      }

      // Cost check (Sec. III-A): only accept when removing the cone pays
      // for the restore circuitry.
      const double removed = AreaOfGates(nl, mffc);
      const LibCell& xor_cell =
          CellFor(Gate{GateOp::kXor, {0, 0}, 0, "", 0, 1});
      const LibCell& tie_cell = CellFor(Gate{GateOp::kTieHi, {}, 0, "", 0, 1});
      const LibCell& and_cell =
          CellFor(Gate{GateOp::kAnd, {0, 0}, 0, "", 0, 1});
      const double added =
          fault_bits * (xor_cell.AreaUm2() + tie_cell.AreaUm2()) +
          (fault_bits + cubes.size()) * 0.5 * and_cell.AreaUm2();
      if (options.require_area_gain && added >= removed) {
        rejected.insert(cand.net);
        metrics.rejected_gain->Add(1);
        continue;
      }

      // Apply: build restore, swap it in, sweep the cone. Keep a backup:
      // the fault is rolled back if any of its key bits turns out to be
      // functionally dead.
      const Netlist backup = nl;
      const bool backup_at_fixed_point = at_fixed_point;
      const size_t saved_key_index = next_key_index;
      std::vector<uint8_t> key_so_far = result.key;
      {
        obs::Span span("lock.apply");
        const RestoreResult restore =
            ApplyFault(nl, cut, cand.majority, cubes, rng, next_key_index,
                       &at_fixed_point);
        next_key_index += restore.key_bits_used;
        key_so_far.insert(key_so_far.end(), restore.key_values.begin(),
                          restore.key_values.end());
      }

      bool all_bits_active = false;
      {
        obs::Span span("lock.check");
        Simulator nl_sim(nl);
        // Fast per-fault sanity check (exactly RandomPatternsAgree(original,
        // nl, check_patterns, sanity_seed, {}, key_so_far)); the
        // construction guarantees equivalence, so a mismatch is a library
        // bug, not a recoverable condition.
        if (PatternResponses(nl_sim, options.check_patterns, sanity_seed,
                             key_so_far) != original_responses) {
          throw std::logic_error(
              "ATPG lock: restore circuitry for net '" +
              nl.net(cand.net).name + "' broke functional equivalence");
        }
        all_bits_active = KeyBitsActive(original_sim, nl_sim, key_so_far,
                                        result.key.size(), options);
      }
      if (!all_bits_active) {
        nl = backup;
        at_fixed_point = backup_at_fixed_point;
        next_key_index = saved_key_index;
        rejected.insert(cand.net);
        metrics.rollbacks->Add(1);
        continue;
      }

      result.key = std::move(key_so_far);
      bits += fault_bits;
      InjectedFault record;
      record.net_name = nl.net(cand.net).name;
      record.stuck_value = cand.majority;
      record.cut_leaves = cut.leaves.size();
      record.cubes = cubes.size();
      record.key_bits = fault_bits;
      record.cone_area_removed = removed;
      result.faults.push_back(record);
      result.pattern_bits += fault_bits;
      metrics.faults->Add(1);
      progress = true;
    }
  }

  // Pad to exactly |K| = k.
  if (bits < options.key_bits) {
    obs::Span span("lock.pad");
    result.padding_bits =
        InsertParityPaddedKeyGates(nl, options.key_bits - bits, rng,
                                   &result.key);
    bits += result.padding_bits;
  }
  assert(bits == options.key_bits);
  assert(result.key.size() == options.key_bits);

  if (options.verify_lec) {
    obs::Span span("lock.lec");
    const LecResult lec = CheckEquivalence(original, nl, {}, result.key);
    result.lec_proven = lec.proven;
    result.lec_equivalent = lec.equivalent;
  }

  result.locked_area_um2 = TotalCellArea(nl);
  return result;
}

}  // namespace splitlock::lock
