// Netlist optimization passes (the re-synthesis stand-in for Synopsys DC).
//
// The locking flow injects a stuck-at fault (a net tied to a constant) and
// then "re-synthesizes the circuit to remove the stuck-at logic parts"
// (Sec. III-A). These passes provide exactly that: constant propagation,
// local simplification, structural hashing, and dead-logic sweeping, run to
// a fixpoint by OptimizeArea(). Gates flagged kFlagDontTouch are never
// folded, merged, or removed — the IR-level equivalent of the paper's
// `set_dont_touch` / `set_dont_touch_network` commands on TIE cells and
// key-nets.
#pragma once

#include <cstddef>

#include "netlist/netlist.hpp"

namespace splitlock {

struct OptStats {
  size_t folded = 0;   // gates rewritten by constant propagation
  size_t simplified = 0;
  size_t merged = 0;   // duplicates removed by structural hashing
  size_t swept = 0;    // dead gates removed
  // Set by OptimizeArea only: its last round changed nothing, so the
  // netlist is at the passes' fixed point. Not summed by +=.
  bool converged = false;

  size_t Total() const { return folded + simplified + merged + swept; }
  OptStats& operator+=(const OptStats& o) {
    folded += o.folded;
    simplified += o.simplified;
    merged += o.merged;
    swept += o.swept;
    return *this;
  }
};

// Folds constants (CONST0/1 and unflagged TIE cells) through the logic.
OptStats ConstantPropagate(Netlist& nl);

// Local rules: BUF bypassing, INV(INV(x)) = x, AND(a,a) = a, XOR(a,a) = 0,
// single-input AND/OR collapse, and the like.
OptStats SimplifyLocal(Netlist& nl);

// Merges structurally identical gates (commutative fanins canonicalized).
OptStats StructuralHash(Netlist& nl);

// Deletes logic with no observable fanout. Primary inputs, outputs, key
// inputs, and don't-touch gates survive.
OptStats SweepDeadLogic(Netlist& nl);

// SweepDeadLogic restricted to the cone that dies with `root`: deletes
// `root` if it is dead, then every fanin driver left dead by a deletion,
// by the same rule. On a netlist whose only dead gates are in that cone
// the result is byte-identical to SweepDeadLogic's: DeleteGate detaches
// pins order-preservingly, so sink lists do not depend on deletion order.
// Costs O(cone) instead of whole-netlist passes.
OptStats SweepDeadCone(Netlist& nl, GateId root);

// Runs the passes above to a fixpoint (bounded number of rounds); sets
// `converged` when the bound was not what stopped it.
OptStats OptimizeArea(Netlist& nl);

}  // namespace splitlock
