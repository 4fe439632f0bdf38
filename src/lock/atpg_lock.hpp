// ATPG-based cost-effective locking (re-implementation and extension of
// Sengupta et al., VTS'18, as used by the paper's synthesis stage, Fig. 3).
//
// Flow per accepted fault:
//   1. Candidate selection: nets that are strongly biased toward one value
//      (random-pattern signal probability) and root a sizeable MFFC.
//      Candidates are spread across partitions (round-robin buckets), the
//      in-process analogue of the paper's "hierarchical partitioning" that
//      lets every part of the design receive protection.
//   2. A K-feasible cut is extracted for the candidate net; the failing
//      patterns of "net stuck-at majority-value" are enumerated exactly over
//      the cut and compacted into cubes (the ATPG step, cf. Atalanta-M).
//   3. The circuit is re-synthesized with the fault injected: the fault
//      site's fanin cone is disconnected and swept (ApplyFault), removing
//      logic — the source of the paper's area savings.
//   4. Restore circuitry (cube comparators with key-obfuscated literals)
//      re-creates the exact net value; equivalence is verified by random
//      simulation per fault and formal LEC at the end ("LEC -> Reject").
//   5. When failing patterns provide fewer than k key bits, the remainder
//      is padded with parity-constrained EPIC chains.
//
// Cost model (Sec. III-A): each candidate is scored by the area removed
// (its MFFC) minus the area added (comparators + key-gates + TIE cells),
// and candidates are taken best-first subject to |K| = k.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "atpg/cube.hpp"
#include "atpg/cut.hpp"
#include "lock/restore.hpp"
#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace splitlock::lock {

struct AtpgLockOptions {
  size_t key_bits = 128;      // |K| = k, exact
  size_t max_cut_leaves = 12; // K-feasible cut bound
  size_t max_minterms = 512;  // on-set bound per fault
  size_t max_cubes = 6;       // comparator budget per fault
  size_t partitions = 8;      // candidate spreading buckets
  double min_bias = 0.75;     // majority-value probability threshold
  uint64_t bias_patterns = 4096;
  uint64_t check_patterns = 2048;  // per-fault random-sim sanity patterns
  bool verify_lec = true;
  // Only accept faults whose removed cone outweighs the restore circuitry
  // (the paper's cost model). Disable for tiny illustration circuits where
  // no fault can pay for its comparator.
  bool require_area_gain = true;
  uint64_t seed = 1;
};

// lint:result-schema(v6) encoded by store/artifact_io (flow artifact) — a
// result-affecting change here needs a kResultSchemaVersion bump.
struct InjectedFault {
  std::string net_name;
  bool stuck_value = false;
  size_t cut_leaves = 0;
  size_t cubes = 0;
  size_t key_bits = 0;
  double cone_area_removed = 0.0;
};

// lint:result-schema(v6) encoded by store/artifact_io (flow artifact) — a
// result-affecting change here needs a kResultSchemaVersion bump.
struct AtpgLockResult {
  Netlist locked;
  std::vector<uint8_t> key;  // correct key, KeyInputs() order
  std::vector<InjectedFault> faults;
  size_t pattern_bits = 0;  // key bits from failing-pattern care literals
  size_t padding_bits = 0;
  double original_area_um2 = 0.0;
  double locked_area_um2 = 0.0;
  bool lec_proven = false;
  bool lec_equivalent = false;

  double AreaDeltaPercent() const {
    return original_area_um2 == 0.0
               ? 0.0
               : 100.0 * (locked_area_um2 - original_area_um2) /
                     original_area_um2;
  }
};

// The lock's apply step for the fault "cut.root stuck-at `stuck_value`":
// BuildRestore, every use of cut.root moved onto the restored net, then
// re-synthesis. The result is byte-identical to running OptimizeArea after
// the move. `*at_fixed_point` says whether `nl` is at OptimizeArea's fixed
// point, and is updated.
//
// At the fixed point the restore logic matches no fold, simplify or merge
// rule, so the only work left is sweeping the cone the move killed, which
// takes O(cone) instead of a whole-design OptimizeArea. The one exception:
// a stuck-at-1 restore ends in an INV, and a non-dont-touch INV sink of
// cut.root then folds INV(INV(x)); that apply, and any apply off the fixed
// point, runs the full OptimizeArea.
RestoreResult ApplyFault(Netlist& nl, const atpg::Cut& cut, bool stuck_value,
                         std::span<const atpg::Cube> cubes, Rng& rng,
                         size_t next_key_index, bool* at_fixed_point);

// Locks `original` with exactly options.key_bits key bits.
AtpgLockResult LockWithAtpg(const Netlist& original,
                            const AtpgLockOptions& options = {});

}  // namespace splitlock::lock
