// Logic equivalence checking (LEC).
//
// Stand-in for Cadence Conformal LEC in the paper's Fig. 3 flow: the locking
// stage must formally confirm that the locked netlist, with the correct key
// applied, is equivalent to the original netlist ("LEC -> Reject" loop).
// The check builds a structurally-hashed miter over shared primary inputs
// and asks the CDCL solver whether any output can differ.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace splitlock {

struct LecResult {
  bool proven = false;       // solver finished within the conflict limit
  bool equivalent = false;   // valid when proven
  // For non-equivalence: one distinguishing input pattern (inputs() order)
  // and the index of a differing output.
  std::vector<uint8_t> counterexample;
  size_t differing_output = 0;
  uint64_t conflicts = 0;  // over every proof and the miter
};

// Checks functional equivalence of `golden` and `revised` (same PI/PO
// counts, matched by position). Key inputs of either design are bound to the
// given constant key bits (KeyInputs() order). `conflict_limit` caps each
// SAT-sweeping proof and the final miter solve separately, counted from the
// solver's conflict count when that proof or solve starts; 0 leaves the
// miter unlimited and caps each proof at 200,000. A proof that runs out
// only forgoes a merge; a miter that runs out leaves `proven` false.
LecResult CheckEquivalence(const Netlist& golden, const Netlist& revised,
                           std::span<const uint8_t> golden_key = {},
                           std::span<const uint8_t> revised_key = {},
                           uint64_t conflict_limit = 0);

}  // namespace splitlock
