#include "sim/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <vector>

#include "exec/parallel.hpp"
#include "exec/stream_rng.hpp"
#include "sim/simulator.hpp"
#include "util/lanes.hpp"

namespace splitlock {

void FillStimulusWord(uint64_t seed, uint64_t word,
                      std::span<uint64_t> pi_words) {
  exec::StreamRng rng(seed, exec::StreamDomain::kStimulus, word);
  for (uint64_t& v : pi_words) v = rng.NextWord();
}

namespace {

// Words per parallel shard. Each shard constructs its own Simulator pair,
// so the grain must amortize that setup; 16 words = 1024 patterns.
constexpr size_t kWordsPerShard = 16;

// Words per RunBatch of the repeated checks: bounds the batch buffers for
// large pattern counts (2048 patterns, the lock's check size, is one batch).
constexpr uint64_t kCheckBatchWords = 32;

// Stimulus for global word `w` is a pure function of (seed, w): shard
// boundaries and thread count cannot change what any pattern looks like.
void FillStimulusRows(uint64_t seed, size_t lo, size_t hi, size_t num_pis,
                      std::vector<std::vector<uint64_t>>& rows) {
  rows.assign(num_pis, std::vector<uint64_t>(hi - lo));
  std::vector<uint64_t> word(num_pis);
  for (size_t w = lo; w < hi; ++w) {
    FillStimulusWord(seed, w, word);
    for (size_t i = 0; i < num_pis; ++i) rows[i][w - lo] = word[i];
  }
}

struct SweepPartial {
  uint64_t bit_mismatches = 0;
  uint64_t erroneous_patterns = 0;
  bool agree = true;
};

// Simulates both netlists over one shard of word indices [lo, hi) and
// accumulates mismatch statistics. `stop` lets agreement checks abandon
// remaining shards once any shard has found a disagreement (the *result*
// stays deterministic: it is a pure AND over all shards).
SweepPartial SweepShard(const Netlist& a, const Netlist& b, uint64_t patterns,
                        uint64_t seed, std::span<const uint8_t> a_key,
                        std::span<const uint8_t> b_key, size_t lo, size_t hi,
                        const std::atomic<bool>* stop) {
  SweepPartial p;
  if (stop != nullptr && stop->load(std::memory_order_relaxed)) return p;
  const size_t num_pis = a.inputs().size();
  const size_t num_pos = a.outputs().size();
  const uint64_t num_words = (patterns + 63) / 64;
  Simulator sim_a(a);
  Simulator sim_b(b);
  const size_t width = hi - lo;
  sim_a.BeginBatch(width);
  sim_b.BeginBatch(width);
  if (!a_key.empty()) sim_a.SetKeyBitsBatch(a_key);
  if (!b_key.empty()) sim_b.SetKeyBitsBatch(b_key);
  std::vector<std::vector<uint64_t>> rows;
  FillStimulusRows(seed, lo, hi, num_pis, rows);
  for (size_t i = 0; i < num_pis; ++i) {
    sim_a.SetSourceBatch(a.inputs()[i], rows[i]);
    sim_b.SetSourceBatch(b.inputs()[i], rows[i]);
  }
  sim_a.RunBatch();
  sim_b.RunBatch();
  for (size_t w = 0; w < width; ++w) {
    const uint64_t lane_mask = LaneMaskForWord(lo + w, num_words, patterns);
    uint64_t any = 0;
    for (size_t o = 0; o < num_pos; ++o) {
      const uint64_t diff =
          (sim_a.BatchOutputWord(o, w) ^ sim_b.BatchOutputWord(o, w)) &
          lane_mask;
      p.bit_mismatches += std::popcount(diff);
      any |= diff;
    }
    p.erroneous_patterns += std::popcount(any);
    if (any != 0) p.agree = false;
  }
  return p;
}

SweepPartial SweepPairsParallel(const Netlist& a, const Netlist& b,
                                uint64_t patterns, uint64_t seed,
                                std::span<const uint8_t> a_key,
                                std::span<const uint8_t> b_key) {
  assert(a.inputs().size() == b.inputs().size());
  assert(a.outputs().size() == b.outputs().size());
  const uint64_t num_words = (patterns + 63) / 64;
  return exec::ParallelReduce<SweepPartial>(
      num_words, kWordsPerShard, SweepPartial{},
      [&](size_t lo, size_t hi) {
        return SweepShard(a, b, patterns, seed, a_key, b_key, lo, hi,
                          /*stop=*/nullptr);
      },
      [](SweepPartial x, SweepPartial y) {
        x.bit_mismatches += y.bit_mismatches;
        x.erroneous_patterns += y.erroneous_patterns;
        x.agree = x.agree && y.agree;
        return x;
      });
}

}  // namespace

FunctionalDiff CompareFunctional(const Netlist& reference,
                                 const Netlist& candidate, uint64_t patterns,
                                 uint64_t seed,
                                 std::span<const uint8_t> reference_key,
                                 std::span<const uint8_t> candidate_key) {
  const SweepPartial p = SweepPairsParallel(reference, candidate, patterns,
                                            seed, reference_key, candidate_key);
  FunctionalDiff d;
  d.patterns = patterns;
  const double total_bits = static_cast<double>(patterns) *
                            static_cast<double>(reference.outputs().size());
  d.hd_percent =
      total_bits == 0.0 ? 0.0 : 100.0 * p.bit_mismatches / total_bits;
  d.oer_percent =
      patterns == 0 ? 0.0
                    : 100.0 * static_cast<double>(p.erroneous_patterns) /
                          static_cast<double>(patterns);
  return d;
}

bool RandomPatternsAgree(const Netlist& reference, const Netlist& candidate,
                         uint64_t patterns, uint64_t seed,
                         std::span<const uint8_t> reference_key,
                         std::span<const uint8_t> candidate_key) {
  std::atomic<bool> stop{false};
  assert(reference.inputs().size() == candidate.inputs().size());
  assert(reference.outputs().size() == candidate.outputs().size());
  const uint64_t num_words = (patterns + 63) / 64;
  const bool agree = exec::ParallelReduce<bool>(
      num_words, kWordsPerShard, true,
      [&](size_t lo, size_t hi) {
        const SweepPartial p =
            SweepShard(reference, candidate, patterns, seed, reference_key,
                       candidate_key, lo, hi, &stop);
        if (!p.agree) stop.store(true, std::memory_order_relaxed);
        return p.agree;
      },
      [](bool x, bool y) { return x && y; });
  return agree;
}

std::vector<uint64_t> PatternResponses(Simulator& sim, uint64_t patterns,
                                       uint64_t seed,
                                       std::span<const uint8_t> key) {
  const Netlist& nl = sim.netlist();
  const size_t num_pos = nl.outputs().size();
  const uint64_t num_words = (patterns + 63) / 64;
  std::vector<uint64_t> responses(num_words * num_pos);
  std::vector<std::vector<uint64_t>> rows;
  for (uint64_t lo = 0; lo < num_words; lo += kCheckBatchWords) {
    const uint64_t hi = std::min(num_words, lo + kCheckBatchWords);
    sim.BeginBatch(hi - lo);
    if (!key.empty()) sim.SetKeyBitsBatch(key);
    FillStimulusRows(seed, lo, hi, nl.inputs().size(), rows);
    for (size_t i = 0; i < rows.size(); ++i) {
      sim.SetSourceBatch(nl.inputs()[i], rows[i]);
    }
    sim.RunBatch();
    for (uint64_t w = lo; w < hi; ++w) {
      const uint64_t lane_mask = LaneMaskForWord(w, num_words, patterns);
      for (size_t o = 0; o < num_pos; ++o) {
        responses[w * num_pos + o] = sim.BatchOutputWord(o, w - lo) & lane_mask;
      }
    }
  }
  return responses;
}

std::vector<KeyBitCheck> CheckKeyBitFlips(Simulator& reference,
                                          Simulator& candidate,
                                          uint64_t patterns,
                                          std::span<const uint64_t> seeds,
                                          std::span<const uint8_t> key,
                                          size_t first) {
  const Netlist& ref_nl = reference.netlist();
  const Netlist& cand_nl = candidate.netlist();
  assert(ref_nl.inputs().size() == cand_nl.inputs().size());
  assert(ref_nl.outputs().size() == cand_nl.outputs().size());
  assert(key.size() == candidate.key_inputs().size());
  assert(first <= key.size() && seeds.size() == key.size() - first);
  const size_t num_pis = ref_nl.inputs().size();
  const size_t num_pos = ref_nl.outputs().size();
  const uint64_t num_words = (patterns + 63) / 64;
  std::vector<KeyBitCheck> checks;
  if (first == key.size()) return checks;
  if (num_words == 0) return {KeyBitCheck{false, 0}};

  // Binds both netlists' inputs to `rows` (one row per primary input) and
  // runs them; the caller has bound the candidate's key words.
  const auto run_both = [&](const std::vector<std::vector<uint64_t>>& rows) {
    for (size_t i = 0; i < num_pis; ++i) {
      reference.SetSourceBatch(ref_nl.inputs()[i], rows[i]);
      candidate.SetSourceBatch(cand_nl.inputs()[i], rows[i]);
    }
    reference.RunBatch();
    candidate.RunBatch();
  };
  // Lanes of batch column `w` on which some primary output differs.
  const auto differing_lanes = [&](size_t w) {
    uint64_t diff = 0;
    for (size_t o = 0; o < num_pos; ++o) {
      diff |= reference.BatchOutputWord(o, w) ^ candidate.BatchOutputWord(o, w);
    }
    return diff;
  };

  std::vector<std::vector<uint64_t>> rows;
  std::vector<uint64_t> stimulus(num_pis);
  std::vector<uint64_t> key_row;
  std::vector<uint64_t> word0_diff;
  std::vector<uint8_t> flipped(key.begin(), key.end());
  for (size_t lo = first; lo < key.size(); lo += kCheckBatchWords) {
    // Word 0 of bits [lo, hi): column j flips bit lo + j under that bit's
    // own stimulus.
    const size_t hi = std::min(key.size(), lo + kCheckBatchWords);
    const size_t width = hi - lo;
    reference.BeginBatch(width);
    candidate.BeginBatch(width);
    candidate.SetKeyBitsBatch(key);
    rows.assign(num_pis, std::vector<uint64_t>(width));
    for (size_t j = 0; j < width; ++j) {
      const size_t b = lo + j;
      key_row.assign(width, key[b] ? ~0ULL : 0ULL);
      key_row[j] = ~key_row[j];
      candidate.SetSourceBatch(candidate.key_inputs()[b], key_row);
      FillStimulusWord(seeds[b - first], 0, stimulus);
      for (size_t i = 0; i < num_pis; ++i) rows[i][j] = stimulus[i];
    }
    run_both(rows);
    const uint64_t word0_mask = LaneMaskForWord(0, num_words, patterns);
    word0_diff.resize(width);
    for (size_t j = 0; j < width; ++j) {
      word0_diff[j] = differing_lanes(j) & word0_mask;
    }

    // Bits in order; an undecided one gets words [1, num_words).
    for (size_t j = 0; j < width; ++j) {
      const size_t b = lo + j;
      KeyBitCheck check{word0_diff[j] != 0, 1};
      flipped[b] ^= 1;
      for (uint64_t wlo = 1; wlo < num_words && !check.active;
           wlo += kCheckBatchWords) {
        const uint64_t whi = std::min(num_words, wlo + kCheckBatchWords);
        reference.BeginBatch(whi - wlo);
        candidate.BeginBatch(whi - wlo);
        candidate.SetKeyBitsBatch(flipped);
        FillStimulusRows(seeds[b - first], wlo, whi, num_pis, rows);
        run_both(rows);
        for (uint64_t w = wlo; w < whi && !check.active; ++w) {
          check.words = w + 1;
          check.active = (differing_lanes(w - wlo) &
                          LaneMaskForWord(w, num_words, patterns)) != 0;
        }
      }
      flipped[b] ^= 1;
      checks.push_back(check);
      if (!check.active) return checks;
    }
  }
  return checks;
}

}  // namespace splitlock
