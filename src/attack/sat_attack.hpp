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
#include <span>
#include <vector>

#include "attack/engine.hpp"  // RoundStat
#include "netlist/netlist.hpp"
#include "sat/solver.hpp"
#include "sim/simulator.hpp"

namespace splitlock::attack {

// Batched functional-oracle frontend. Queries (one input bit-vector each)
// are queued and answered through Simulator::RunBatch: one
// structure-of-arrays sweep per Flush(), one batch column per queued
// query, instead of a full word-at-a-time Run() per query. Both DIP loops
// route each round's DIP through this.
class DipOracle {
 public:
  explicit DipOracle(const Netlist& oracle);

  // Queues a query (one bit per primary input, inputs() order); returns
  // its query index.
  size_t Enqueue(std::span<const uint8_t> input_bits);

  // Answers every queued query in one RunBatch sweep.
  void Flush();

  // Output bit `po` (outputs() order) of query `q`; q must be flushed.
  bool OutputBit(size_t q, size_t po) const;

  size_t pending() const { return pending_.size(); }
  size_t answered() const { return responses_.size(); }

  // Batch-width instrumentation: number of non-empty Flush() sweeps and
  // the widest single sweep so far. answered() / flushes() is the mean
  // batch width.
  size_t flushes() const { return flushes_; }
  size_t max_batch() const { return max_batch_; }

 private:
  Simulator sim_;
  size_t num_pis_;
  size_t num_pos_;
  std::vector<std::vector<uint8_t>> pending_;    // queued input vectors
  std::vector<std::vector<uint8_t>> responses_;  // per query: num_pos bits
  size_t flushes_ = 0;
  size_t max_batch_ = 0;
};

struct SatAttackTelemetry {
  // Per-round instrumentation of the DIP loop. One entry is recorded for
  // every *miter solve* — including the terminating UNSAT round and a
  // budget-blown kUnknown attempt — so `rounds.size()` can exceed
  // `SatAttackResult::dips_used` by one. solve_ms covers the miter
  // solve(s) (portfolio: the whole race), encode_ms the DIP-constraint CNF
  // encoding, oracle_ms the batched oracle query.
  std::vector<RoundStat> rounds;
  uint64_t oracle_queries = 0;
  uint64_t total_conflicts = 0;  // master solver conflicts at exit
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

struct SatAttackOptions {
  size_t max_dips = 4096;
  uint64_t conflict_limit_per_solve = 2000000;
  uint64_t verify_patterns = 4096;
  uint64_t seed = 1;
  // Advisory wall-clock budget, checked between DIP rounds (0 =
  // unlimited). Unlike the conflict budget this is NOT deterministic:
  // whether the attack finishes may vary run to run. Leave 0 when
  // reproducibility matters.
  double wall_budget_s = 0.0;
};

// Oracle-guided SAT attack on `locked` using `oracle` as the black-box
// functional oracle (same PI/PO interface).
SatAttackResult RunSatAttack(const Netlist& locked, const Netlist& oracle,
                             const SatAttackOptions& options = {});

// Portfolio variant of the oracle-guided attack (the ROADMAP's
// mallob-style item). Each DIP round runs in two phases: the baseline
// configuration solves directly on the master (an uncloned sequential
// probe — easy rounds cost exactly what the sequential attack pays), and
// only when that probe blows its per-round conflict budget does the round
// clone the master into `num_configs - 1` diversified configurations
// (restart unit, polarity mode, random-branching seed) raced on the exec
// thread pool.
//
// Determinism contract: the round's winner is the LOWEST-INDEX
// configuration that completed (kSat/kUnsat) within its per-round conflict
// budget — never the first to finish in wall-clock. A configuration may be
// aborted early only once a lower-index one has completed, i.e. only when
// its own result can no longer matter, so the DIP sequence, the recovered
// key and every counter in the report are bit-identical at any thread
// count. The winner's solver state (learnt clauses, activities, saved
// phases) is adopted as the next round's master, so work done by the
// winning configuration carries forward exactly as in a sequential CDCL
// loop.
struct PortfolioSatOptions {
  size_t num_configs = 4;  // diversified configurations per round
  size_t max_dips = 4096;
  // Conflict budget for each configuration's solve, per round. Unlike
  // SatAttackOptions::conflict_limit_per_solve (a cumulative ceiling on
  // the master solver), this is measured from the start of each solve.
  uint64_t conflicts_per_round = 200000;
  // Cumulative ceiling on the master solver's conflicts (adopted winners
  // included), checked at round start; 0 = unlimited. Deterministic, and
  // directly comparable to SatAttackOptions::conflict_limit_per_solve.
  uint64_t total_conflict_budget = 0;
  uint64_t verify_patterns = 4096;
  uint64_t seed = 1;
  // Advisory wall-clock budget, checked between rounds (0 = unlimited);
  // NOT deterministic — leave 0 when reproducibility matters.
  double wall_budget_s = 0.0;
};

struct PortfolioSatResult {
  SatAttackResult attack;  // uniform with the sequential attack's report
  // Rounds won by each configuration index (size == num_configs).
  std::vector<size_t> wins_per_config;
};

PortfolioSatResult RunPortfolioSatAttack(const Netlist& locked,
                                         const Netlist& oracle,
                                         const PortfolioSatOptions& options = {});

// The diversified configuration raced as portfolio member `index` in round
// `round` (index 0 is always the undiversified baseline). Exposed for the
// determinism tests.
sat::SolverConfig PortfolioMemberConfig(uint64_t seed, size_t round,
                                        size_t index);

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
