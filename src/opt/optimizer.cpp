#include "opt/optimizer.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <optional>
#include <unordered_map>
#include <vector>

namespace splitlock {
namespace {

bool IsLogicOp(GateOp op) {
  switch (op) {
    case GateOp::kBuf:
    case GateOp::kInv:
    case GateOp::kAnd:
    case GateOp::kNand:
    case GateOp::kOr:
    case GateOp::kNor:
    case GateOp::kXor:
    case GateOp::kXnor:
    case GateOp::kMux:
      return true;
    default:
      return false;
  }
}

// Constant value carried by a source gate, if any. Unflagged TIE cells fold
// like constants; don't-touch TIE cells (the key implementation) do not.
std::optional<bool> ConstValueOf(const Netlist& nl, NetId net) {
  const GateId d = nl.DriverOf(net);
  if (d == kNullId) return std::nullopt;
  const Gate& g = nl.gate(d);
  if (g.HasFlag(kFlagDontTouch)) return std::nullopt;
  switch (g.op) {
    case GateOp::kConst0:
    case GateOp::kTieLo:
      return false;
    case GateOp::kConst1:
    case GateOp::kTieHi:
      return true;
    default:
      return std::nullopt;
  }
}

// Structural-hash key: the op plus its fanins (sorted for commutative ops).
// Unused fanin slots stay kNullId, so keys of different arity never match.
struct GateKey {
  GateOp op = GateOp::kDeleted;
  std::array<NetId, kMaxFanin> fanins;

  GateKey() { fanins.fill(kNullId); }
  bool operator==(const GateKey&) const = default;
};

struct GateKeyHash {
  size_t operator()(const GateKey& k) const {
    uint64_t h = static_cast<uint64_t>(k.op) * 0x9e3779b97f4a7c15ULL;
    for (NetId n : k.fanins) {
      h = (h ^ n) * 0xff51afd7ed558ccdULL;
      h ^= h >> 32;
    }
    return static_cast<size_t>(h);
  }
};

// The sweep's deletion rule: a live, unprotected gate whose output nobody
// reads. Primary inputs, outputs and key inputs always survive.
bool IsDead(const Netlist& nl, GateId g) {
  const Gate& gate = nl.gate(g);
  if (gate.op == GateOp::kDeleted || gate.op == GateOp::kInput ||
      gate.op == GateOp::kOutput || gate.op == GateOp::kKeyIn) {
    return false;
  }
  if (gate.HasFlag(kFlagDontTouch)) return false;
  return gate.out != kNullId && nl.net(gate.out).sinks.empty();
}

// Returns the net holding constant `value`, creating a source if needed.
// May grow the gate vector; callers must not hold Gate references across it.
NetId ConstNet(Netlist& nl, bool value) {
  const GateOp want = value ? GateOp::kConst1 : GateOp::kConst0;
  for (GateId g = 0; g < nl.NumGates(); ++g) {
    if (nl.gate(g).op == want && !nl.gate(g).HasFlag(kFlagDontTouch)) {
      return nl.gate(g).out;
    }
  }
  return nl.AddGate(want, {}, value ? "const1" : "const0");
}

}  // namespace

OptStats ConstantPropagate(Netlist& nl) {
  OptStats stats;
  bool changed = true;
  while (changed) {
    changed = false;
    for (GateId g : nl.TopoOrder()) {
      // Snapshot: mutations below may reallocate the gate vector.
      const GateOp op = nl.gate(g).op;
      if (!IsLogicOp(op) || nl.gate(g).HasFlag(kFlagDontTouch)) continue;
      const std::vector<NetId> fanins = nl.gate(g).fanins;
      const NetId out = nl.gate(g).out;
      // Dead gates (no sinks) are left for SweepDeadLogic; rewriting them
      // would report progress forever.
      if (nl.net(out).sinks.empty()) continue;

      std::vector<NetId> vars;
      std::vector<bool> consts;
      for (NetId n : fanins) {
        if (auto c = ConstValueOf(nl, n)) {
          consts.push_back(*c);
        } else {
          vars.push_back(n);
        }
      }
      if (consts.empty()) continue;

      auto fold_to_const = [&](bool v) {
        nl.ReplaceAllUses(out, ConstNet(nl, v));
        ++stats.folded;
        changed = true;
      };
      auto fold_to = [&](GateOp new_op, std::span<const NetId> new_fanins) {
        nl.MorphGate(g, new_op, new_fanins);
        ++stats.folded;
        changed = true;
      };

      switch (op) {
        case GateOp::kBuf:
          fold_to_const(consts[0]);
          break;
        case GateOp::kInv:
          fold_to_const(!consts[0]);
          break;
        case GateOp::kAnd:
        case GateOp::kNand: {
          const bool invert = op == GateOp::kNand;
          if (std::find(consts.begin(), consts.end(), false) != consts.end()) {
            fold_to_const(invert);
          } else if (vars.empty()) {
            fold_to_const(!invert);
          } else if (vars.size() == 1) {
            fold_to(invert ? GateOp::kInv : GateOp::kBuf, vars);
          } else {
            fold_to(op, vars);
          }
          break;
        }
        case GateOp::kOr:
        case GateOp::kNor: {
          const bool invert = op == GateOp::kNor;
          if (std::find(consts.begin(), consts.end(), true) != consts.end()) {
            fold_to_const(!invert);
          } else if (vars.empty()) {
            fold_to_const(invert);
          } else if (vars.size() == 1) {
            fold_to(invert ? GateOp::kInv : GateOp::kBuf, vars);
          } else {
            fold_to(op, vars);
          }
          break;
        }
        case GateOp::kXor:
        case GateOp::kXnor: {
          bool parity = op == GateOp::kXnor;
          for (bool c : consts) parity ^= c;
          if (vars.empty()) {
            fold_to_const(parity);
          } else {
            fold_to(parity ? GateOp::kInv : GateOp::kBuf, vars);
          }
          break;
        }
        case GateOp::kMux: {
          // fanins = {sel, a, b}
          if (auto sel = ConstValueOf(nl, fanins[0])) {
            const NetId chosen = *sel ? fanins[2] : fanins[1];
            fold_to(GateOp::kBuf, std::array<NetId, 1>{chosen});
          } else {
            auto a = ConstValueOf(nl, fanins[1]);
            auto b = ConstValueOf(nl, fanins[2]);
            if (a && b) {
              if (*a == *b) {
                fold_to_const(*a);
              } else if (!*a && *b) {
                fold_to(GateOp::kBuf, std::array<NetId, 1>{fanins[0]});
              } else {
                fold_to(GateOp::kInv, std::array<NetId, 1>{fanins[0]});
              }
            }
          }
          break;
        }
        default:
          break;
      }
    }
  }
  return stats;
}

OptStats SimplifyLocal(Netlist& nl) {
  OptStats stats;
  bool changed = true;
  while (changed) {
    changed = false;
    for (GateId g : nl.TopoOrder()) {
      const GateOp op = nl.gate(g).op;
      if (!IsLogicOp(op) || nl.gate(g).HasFlag(kFlagDontTouch)) continue;
      const std::vector<NetId> fanins = nl.gate(g).fanins;
      const NetId out = nl.gate(g).out;
      if (nl.net(out).sinks.empty()) continue;  // dead: sweep's job

      auto replace_with_const = [&](bool value) {
        nl.ReplaceAllUses(out, ConstNet(nl, value));
        ++stats.simplified;
        changed = true;
      };

      if (op == GateOp::kBuf) {
        nl.ReplaceAllUses(out, fanins[0]);
        ++stats.simplified;
        changed = true;
        continue;
      }
      if (op == GateOp::kInv) {
        const GateId d = nl.DriverOf(fanins[0]);
        if (d != kNullId && nl.gate(d).op == GateOp::kInv &&
            !nl.gate(d).HasFlag(kFlagDontTouch)) {
          nl.ReplaceAllUses(out, nl.gate(d).fanins[0]);
          ++stats.simplified;
          changed = true;
        }
        continue;
      }
      if (op == GateOp::kAnd || op == GateOp::kNand || op == GateOp::kOr ||
          op == GateOp::kNor) {
        std::vector<NetId> uniq;
        bool has_complement_pair = false;
        for (NetId n : fanins) {
          if (std::find(uniq.begin(), uniq.end(), n) != uniq.end()) continue;
          for (NetId m : uniq) {
            const GateId dm = nl.DriverOf(m);
            const GateId dn = nl.DriverOf(n);
            if ((dm != kNullId && nl.gate(dm).op == GateOp::kInv &&
                 nl.gate(dm).fanins[0] == n) ||
                (dn != kNullId && nl.gate(dn).op == GateOp::kInv &&
                 nl.gate(dn).fanins[0] == m)) {
              has_complement_pair = true;
            }
          }
          uniq.push_back(n);
        }
        const bool is_and_like = op == GateOp::kAnd || op == GateOp::kNand;
        const bool invert = op == GateOp::kNand || op == GateOp::kNor;
        if (has_complement_pair) {
          // a & ~a = 0, a | ~a = 1 (then apply output inversion).
          replace_with_const(is_and_like ? invert : !invert);
        } else if (uniq.size() == 1) {
          nl.MorphGate(g, invert ? GateOp::kInv : GateOp::kBuf, uniq);
          ++stats.simplified;
          changed = true;
        } else if (uniq.size() < fanins.size()) {
          nl.MorphGate(g, op, uniq);
          ++stats.simplified;
          changed = true;
        }
        continue;
      }
      if (op == GateOp::kXor || op == GateOp::kXnor) {
        if (fanins[0] == fanins[1]) {
          replace_with_const(op == GateOp::kXnor);
        }
        continue;
      }
      if (op == GateOp::kMux && fanins[1] == fanins[2]) {
        nl.MorphGate(g, GateOp::kBuf, std::array<NetId, 1>{fanins[1]});
        ++stats.simplified;
        changed = true;
      }
    }
  }
  return stats;
}

OptStats StructuralHash(Netlist& nl) {
  OptStats stats;
  bool changed = true;
  while (changed) {
    changed = false;
    // Gates are visited in topological order and the first gate with a
    // given (op, fanins) key wins; later duplicates fold onto it.
    std::unordered_map<GateKey, GateId, GateKeyHash> seen;
    seen.reserve(nl.NumGates());
    for (GateId g : nl.TopoOrder()) {
      const Gate& gate = nl.gate(g);
      if (!IsLogicOp(gate.op) || gate.HasFlag(kFlagDontTouch)) continue;
      GateKey key;
      key.op = gate.op;
      // CheckMaxFanin bounds every gate's fanins by kMaxFanin. An insertion
      // sort over at most that many keeps GCC's -Warray-bounds quiet, which
      // std::sort's 16-element insertion prefix trips on a 4-entry array.
      const size_t arity = std::min(gate.fanins.size(), kMaxFanin);
      std::copy_n(gate.fanins.begin(), arity, key.fanins.begin());
      if (gate.op != GateOp::kMux) {  // commutative
        for (size_t i = 1; i < arity; ++i) {
          for (size_t j = i; j > 0 && key.fanins[j] < key.fanins[j - 1]; --j) {
            std::swap(key.fanins[j], key.fanins[j - 1]);
          }
        }
      }
      auto [it, inserted] = seen.emplace(key, g);
      if (!inserted) {
        nl.ReplaceAllUses(gate.out, nl.gate(it->second).out);
        ++stats.merged;
        changed = true;
      }
    }
    if (changed) stats += SweepDeadLogic(nl);
  }
  return stats;
}

OptStats SweepDeadLogic(Netlist& nl) {
  OptStats stats;
  bool changed = true;
  while (changed) {
    changed = false;
    for (GateId g = 0; g < nl.NumGates(); ++g) {
      if (IsDead(nl, g)) {
        nl.DeleteGate(g);
        ++stats.swept;
        changed = true;
      }
    }
  }
  return stats;
}

OptStats SweepDeadCone(Netlist& nl, GateId root) {
  OptStats stats;
  std::vector<GateId> worklist{root};
  while (!worklist.empty()) {
    const GateId g = worklist.back();
    worklist.pop_back();
    // A driver feeding the cone on several pins is pushed once per pin;
    // the visit after its last sink is deleted deletes it.
    if (!IsDead(nl, g)) continue;
    for (NetId n : nl.gate(g).fanins) {
      const GateId d = nl.DriverOf(n);
      if (d != kNullId) worklist.push_back(d);
    }
    nl.DeleteGate(g);
    ++stats.swept;
  }
  return stats;
}

OptStats OptimizeArea(Netlist& nl) {
  OptStats total;
  for (int round = 0; round < 10; ++round) {
    OptStats round_stats;
    round_stats += ConstantPropagate(nl);
    round_stats += SimplifyLocal(nl);
    round_stats += StructuralHash(nl);
    round_stats += SweepDeadLogic(nl);
    total += round_stats;
    if (round_stats.Total() == 0) {
      total.converged = true;
      break;
    }
  }
  return total;
}

}  // namespace splitlock
