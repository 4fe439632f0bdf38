// Functional-difference metrics between two netlists.
//
// Hamming distance (HD) and output error rate (OER) are the paper's
// Table II / Table III metrics: HD is the average fraction of output bits
// that differ between the original netlist and the attacker-recovered one;
// OER is the fraction of input patterns producing at least one wrong output.
//
// Both sweeps shard their pattern words across the exec thread pool in
// batched multi-word simulations. Stimulus is drawn from counter-based
// streams keyed by (seed, word index), so results are bit-identical for a
// given seed at any thread count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace splitlock {

class Simulator;

struct FunctionalDiff {
  double hd_percent = 0.0;   // average per-output-bit mismatch, in %
  double oer_percent = 0.0;  // patterns with >= 1 wrong output, in %
  uint64_t patterns = 0;
};

// Compares `reference` against `candidate` over `patterns` uniform random
// input patterns (inputs matched by position; both netlists must have the
// same PI and PO counts). Key inputs of either netlist, if any, are bound to
// the provided bit vectors (in KeyInputs() order; pass empty spans for
// unkeyed netlists).
FunctionalDiff CompareFunctional(const Netlist& reference,
                                 const Netlist& candidate, uint64_t patterns,
                                 uint64_t seed,
                                 std::span<const uint8_t> reference_key = {},
                                 std::span<const uint8_t> candidate_key = {});

// True when the two netlists agree on every one of `patterns` random
// patterns (a fast pre-filter before formal LEC).
bool RandomPatternsAgree(const Netlist& reference, const Netlist& candidate,
                         uint64_t patterns, uint64_t seed,
                         std::span<const uint8_t> reference_key = {},
                         std::span<const uint8_t> candidate_key = {});

// The stimulus every sweep above applies in pattern word `word` under
// `seed`: one 64-pattern word per primary input, in inputs() order. A pure
// function of (seed, word).
void FillStimulusWord(uint64_t seed, uint64_t word,
                      std::span<uint64_t> pi_words);

// --- Repeated checks against one netlist ---------------------------------
//
// Callers that check many candidates against one reference (the ATPG lock
// checks every applied fault) reuse their Simulators instead of paying
// RandomPatternsAgree's per-call setup. Both helpers answer exactly what
// RandomPatternsAgree answers for the same arguments. They run on the
// calling thread.

// Primary-output responses of `sim`'s netlist, with `key` bound (KeyInputs()
// order, empty for unkeyed netlists), to RandomPatternsAgree's stimulus for
// (patterns, seed): one word per (pattern word, output), word-major, with
// the lanes beyond `patterns` cleared. Two netlists' responses are equal
// exactly when RandomPatternsAgree holds for them.
std::vector<uint64_t> PatternResponses(Simulator& sim, uint64_t patterns,
                                       uint64_t seed,
                                       std::span<const uint8_t> key = {});

// One key bit's activity check (see CheckKeyBitFlips).
struct KeyBitCheck {
  bool active = false;  // flipping the bit alone changes some response
  uint64_t words = 0;   // pattern words up to the first differing one
};

// Activity checks of key bits first, first + 1, ... of `key` (KeyInputs()
// order of `candidate`'s netlist), in bit order, ending at the first
// inactive bit. Bit b is active exactly when !RandomPatternsAgree(reference,
// candidate, patterns, seeds[b - first], {}, key with bit b flipped): the
// reference's key inputs, if any, read 0. `words` is what a check of one
// word at a time would simulate on each netlist: up to and including the
// bit's first differing word, or every word when it is inactive. Stopping
// at that word is exact because agreement is a pure AND over words.
//
// Word 0 of every bit is one batch column per bit (most bits differ there);
// each bit still undecided then gets its remaining words in one more batch.
// Batches hold at most 32 words, as PatternResponses' do.
std::vector<KeyBitCheck> CheckKeyBitFlips(Simulator& reference,
                                          Simulator& candidate,
                                          uint64_t patterns,
                                          std::span<const uint64_t> seeds,
                                          std::span<const uint8_t> key,
                                          size_t first);

}  // namespace splitlock
