// SAT-based key extraction (Subramanyan et al., HOST'15) and the
// oracle-less contrast.
//
// The paper argues (Sec. II-C) that SAT attacks on the locked FEOL are
// futile because split manufacturing's threat model provides *no oracle*:
// fabrication is incomplete and the end-user is trusted, so the attacker
// never holds a functioning chip to query. This module makes that argument
// executable in both directions:
//
//  * RunSatAttack: the classical oracle-guided attack. Given the locked
//    netlist AND an oracle (the original function — deliberately violating
//    the split-manufacturing threat model), iteratively find
//    distinguishing input patterns (DIPs), constrain the key space with
//    the oracle's responses, and extract a functionally correct key. This
//    demonstrates what the attacker could do IF an oracle existed — and
//    therefore what the missing oracle is worth.
//
//  * ProbeOracleLessKeySpace: what the FEOL-only attacker actually faces.
//    Samples random keys and checks how many distinct functions they
//    induce: the key space stays functionally rich and nothing in the
//    FEOL distinguishes the correct key, so exhaustive guessing (Theorem 1)
//    is the best available strategy.
#pragma once

#include <cstdint>
#include <vector>

#include "attack/engine.hpp"  // RoundStat
#include "netlist/netlist.hpp"

namespace splitlock::attack {

struct SatAttackTelemetry {
  // Per-round instrumentation of the DIP loop. One entry is recorded for
  // every *miter solve* — including the terminating UNSAT round and a
  // budget-blown kUnknown attempt — so `rounds.size()` can exceed
  // `SatAttackResult::dips_used` by one. solve_ms and conflicts cover the
  // miter solve, a key-copy sweep inside it included; encode_ms the
  // DIP-constraint CNF encoding, oracle_ms the oracle query.
  std::vector<RoundStat> rounds;
  uint64_t oracle_queries = 0;
  uint64_t total_conflicts = 0;  // solver conflicts at exit
  double final_solve_ms = 0.0;   // key-extraction solve
  double verify_ms = 0.0;        // random-simulation verification
  double total_ms = 0.0;
};

struct SatAttackResult {
  bool finished = false;   // DIP loop reached UNSAT within the budget
  bool key_found = false;  // a consistent key was extracted
  std::vector<uint8_t> recovered_key;
  // The recovered key need not equal the designer's key bit-for-bit; it
  // must only be functionally correct. Verified by random simulation.
  bool functionally_correct = false;
  size_t dips_used = 0;
  SatAttackTelemetry telemetry;
};

// Conflicts a round's miter solve spends before it pauses to sweep the
// miter's two key copies, and the most any one sweep proof may spend.
// Every DIP round of the benchmark locks stays under it; their termination
// proofs run far past it (see ARCHITECTURE.md, "Incremental DIP
// encoding").
inline constexpr uint64_t kSweepConflicts = 1000;

struct SatAttackOptions {
  size_t max_dips = 4096;
  // One cumulative ceiling on the solver's conflicts over every DIP round
  // and ExtractKey, not a per-solve budget (see AttackContext).
  uint64_t conflict_budget = 2000000;
  uint64_t verify_patterns = 4096;
  uint64_t seed = 1;
};

// Oracle-guided SAT attack on `locked` using `oracle` as the black-box
// functional oracle (same PI/PO interface).
SatAttackResult RunSatAttack(const Netlist& locked, const Netlist& oracle,
                             const SatAttackOptions& options = {});

struct OracleLessProbe {
  size_t sampled_keys = 0;
  size_t distinct_functions = 0;  // distinct output behaviours observed
  double DistinctFraction() const {
    return sampled_keys == 0
               ? 0.0
               : static_cast<double>(distinct_functions) /
                     static_cast<double>(sampled_keys);
  }
};

// Samples `samples` random keys and fingerprints the induced functions
// over `patterns` random input patterns. Key sampling is sharded across
// the exec thread pool with counter-based streams: results are
// bit-identical for a given seed at any thread count. When `patterns` is
// not a multiple of 64, the final word's dead lanes are masked out of the
// fingerprint.
OracleLessProbe ProbeOracleLessKeySpace(const Netlist& locked, size_t samples,
                                        uint64_t patterns, uint64_t seed);

}  // namespace splitlock::attack
