// Structurally-hashing Tseitin encoder: netlist -> CNF.
//
// Nets are encoded as *literals* (not variables), so inverters and buffers
// are absorbed for free, OR/NOR normalize to AND-with-negations, and
// structurally identical cones — e.g. the untouched halves of an
// original-vs-locked miter — collapse onto the same CNF variables. This is
// what keeps LEC cheap: after hashing, only the logic actually modified by
// the locking flow remains to be decided by the SAT solver.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.hpp"
#include "sat/solver.hpp"

namespace splitlock::sat {

class StructuralEncoder {
 public:
  explicit StructuralEncoder(Solver& solver);

  Solver& solver() { return *solver_; }

  // Constant-true literal (its variable is asserted once at construction).
  Lit TrueLit() const { return true_lit_; }
  Lit FalseLit() const { return Negate(true_lit_); }

  // Fresh unconstrained literal (used for shared primary inputs and for
  // free key bits).
  Lit FreshLit() { return MakeLit(solver_->NewVar()); }

  // Encodes one gate function over already-encoded fanin literals; returns
  // the output literal, reusing an existing node when an identical one was
  // encoded before.
  Lit EncodeOp(GateOp op, std::span<const Lit> fanins);

  // Encodes a whole netlist. `input_lits` supplies the literal for each
  // primary input in inputs() order; `key_lits` supplies literals for key
  // inputs in KeyInputs() order (must cover them all; pass constants from
  // TrueLit()/FalseLit() to bind a key). Returns one literal per primary
  // output in outputs() order. `net_lits`, if given, receives the literal
  // of every net, indexed by NetId (-1 for nets of deleted gates).
  std::vector<Lit> EncodeNetlist(const Netlist& nl,
                                 std::span<const Lit> input_lits,
                                 std::span<const Lit> key_lits = {},
                                 std::vector<Lit>* net_lits = nullptr);

 private:
  Lit EncodeAnd(std::vector<Lit> fanins);
  Lit EncodeXor(Lit a, Lit b);
  Lit EncodeMux(Lit s, Lit a, Lit b);

  struct NodeKey {
    uint32_t tag;  // 0 = AND, 1 = XOR, 2 = MUX
    std::vector<Lit> fanins;
    bool operator==(const NodeKey&) const = default;
  };
  struct NodeKeyHash {
    size_t operator()(const NodeKey& k) const {
      size_t h = k.tag * 0x9e3779b97f4a7c15ULL;
      for (Lit l : k.fanins) {
        h ^= static_cast<size_t>(l) + 0x9e3779b97f4a7c15ULL + (h << 6) +
             (h >> 2);
      }
      return h;
    }
  };

  Lit Cached(NodeKey key, const std::function<Lit()>& build);

  Solver* solver_;
  Lit true_lit_;
  std::unordered_map<NodeKey, Lit, NodeKeyHash> cache_;
};

// Incremental DIP-round encoder: encodes a netlist's primary outputs under
// CONSTANT primary inputs and symbolic key literals, doing CNF work only
// for the key-dependent cone.
//
// EncodeNetlist already constant-folds non-key logic per call, but it still
// walks (and re-topo-sorts) the whole netlist every round. This encoder
// hoists all the per-round O(circuit) symbolic work out of the DIP loop:
// construction computes, once, the topological order and the key-dependent
// cone; SetDip() constant-folds every non-key-dependent gate with one plain
// 64-lane simulation sweep (no hashing, no CNF); Encode() walks only the
// cached cone. The emitted CNF is bit-identical to
// EncodeNetlist(nl, constants, key_lits) — same literals, same clause
// order, same variable numbering — because constant gates never create
// variables, clauses, or cache entries in the structural encoder, and cone
// gates are visited in the identical topological order with identical
// fanin literals.
class IncrementalDipEncoder {
 public:
  // Caches nl's topology and key cone. The encoder and netlist must
  // outlive this object; the netlist must not change structurally.
  IncrementalDipEncoder(StructuralEncoder& enc, const Netlist& nl);

  // Loads a DIP (one bit per primary input, inputs() order) and simulates
  // all non-key-dependent logic under it.
  void SetDip(std::span<const uint8_t> dip);

  // Encodes the primary outputs under the loaded DIP with `key_lits` bound
  // to the key inputs (KeyInputs() order). O(key cone) CNF work; call
  // repeatedly (e.g. once per key hypothesis) without re-simulating.
  std::vector<Lit> Encode(std::span<const Lit> key_lits);

  // Key-dependent logic gates, in topological order — the per-round
  // symbolic workload.
  std::span<const GateId> ConeGates() const { return cone_gates_; }
  size_t ConeSize() const { return cone_gates_.size(); }

 private:
  StructuralEncoder* enc_;
  const Netlist* nl_;
  std::vector<GateId> free_gates_;  // non-key logic gates, topo order
  std::vector<GateId> cone_gates_;  // key-dependent logic gates, topo order
  std::vector<GateId> key_gates_;   // kKeyIn gates, key-bit order
  std::vector<uint8_t> key_dep_;    // per net: value depends on the key
  std::vector<uint64_t> value_;     // per net: constant value under the DIP
  std::vector<Lit> net_lit_;        // per net: scratch for cone encoding
  bool dip_loaded_ = false;
};

}  // namespace splitlock::sat
