// Attack scoring: CCR, HD, OER, PNR.
//
// Correct connection rate (CCR) follows Sec. IV-A: regular nets are scored
// by exact-net recovery; key-nets separately by *physical* CCR (the exact
// original TIE instance was found) and *logical* CCR (any TIE of the
// correct logic value was found — the designer's target is ~50%, random
// guessing). HD/OER compare the recovered netlist against the true design
// functionally. PNR (percentage of netlist recovery, after [12]) measures
// structural recovery transitively: a gate counts as recovered only when
// its entire fanin cone is correctly connected.
#pragma once

#include <cstdint>

#include "sim/metrics.hpp"
#include "split/split.hpp"

namespace splitlock::attack {

struct CcrReport {
  size_t regular_connections = 0;
  size_t key_connections = 0;
  double regular_ccr_percent = 0.0;
  double key_logical_ccr_percent = 0.0;
  double key_physical_ccr_percent = 0.0;
};

CcrReport ComputeCcr(const split::FeolView& feol,
                     const split::Assignment& assignment);

// Transitive structural recovery (percentage of logic gates whose full
// fanin cone is correct under `assignment`).
double ComputePnrPercent(const split::FeolView& feol,
                         const split::Assignment& assignment);

struct AttackScore {
  CcrReport ccr;
  double pnr_percent = 0.0;
  FunctionalDiff functional;  // HD / OER vs the true design
};

// Full scorecard: CCR + PNR + HD/OER over `patterns` random patterns,
// traced as the `attack.score` span.
AttackScore ScoreAttack(const split::FeolView& feol,
                        const split::Assignment& assignment,
                        uint64_t patterns, uint64_t seed);

}  // namespace splitlock::attack
