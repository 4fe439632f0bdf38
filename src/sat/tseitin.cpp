#include "sat/tseitin.hpp"

#include <algorithm>
#include <cassert>

namespace splitlock::sat {

StructuralEncoder::StructuralEncoder(Solver& solver) : solver_(&solver) {
  true_lit_ = MakeLit(solver_->NewVar());
  solver_->AddUnit(true_lit_);
}

Lit StructuralEncoder::Cached(NodeKey key, const std::function<Lit()>& build) {
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  const Lit out = build();
  cache_.emplace(std::move(key), out);
  return out;
}

Lit StructuralEncoder::EncodeAnd(std::vector<Lit> fanins) {
  // Constant folding and simplification.
  std::sort(fanins.begin(), fanins.end());
  std::vector<Lit> kept;
  for (Lit l : fanins) {
    if (l == FalseLit()) return FalseLit();
    if (l == TrueLit()) continue;
    if (!kept.empty() && kept.back() == l) continue;        // a & a = a
    if (!kept.empty() && kept.back() == Negate(l)) return FalseLit();
    kept.push_back(l);
  }
  if (kept.empty()) return TrueLit();
  if (kept.size() == 1) return kept[0];

  NodeKey key{0, kept};
  return Cached(std::move(key), [&]() {
    const Lit out = MakeLit(solver_->NewVar());
    std::vector<Lit> big;
    big.reserve(kept.size() + 1);
    big.push_back(out);
    for (Lit l : kept) {
      solver_->AddBinary(Negate(out), l);
      big.push_back(Negate(l));
    }
    solver_->AddClause(big);
    return out;
  });
}

Lit StructuralEncoder::EncodeXor(Lit a, Lit b) {
  // Normalize negations into an output parity.
  bool parity = false;
  if (IsNegated(a)) {
    a = Negate(a);
    parity = !parity;
  }
  if (IsNegated(b)) {
    b = Negate(b);
    parity = !parity;
  }
  if (a > b) std::swap(a, b);
  if (a == TrueLit()) {
    // true XOR b = ~b (TrueLit is positive by construction).
    return parity ? b : Negate(b);
  }
  if (a == b) return parity ? TrueLit() : FalseLit();

  NodeKey key{1, {a, b}};
  const Lit out = Cached(std::move(key), [&]() {
    const Lit o = MakeLit(solver_->NewVar());
    solver_->AddTernary(Negate(o), a, b);
    solver_->AddTernary(Negate(o), Negate(a), Negate(b));
    solver_->AddTernary(o, Negate(a), b);
    solver_->AddTernary(o, a, Negate(b));
    return o;
  });
  return parity ? Negate(out) : out;
}

Lit StructuralEncoder::EncodeMux(Lit s, Lit a, Lit b) {
  if (s == TrueLit()) return b;
  if (s == FalseLit()) return a;
  if (a == b) return a;
  if (IsNegated(s)) {
    s = Negate(s);
    std::swap(a, b);
  }
  if (a == Negate(b)) return EncodeXor(s, a);

  NodeKey key{2, {s, a, b}};
  return Cached(std::move(key), [&]() {
    const Lit o = MakeLit(solver_->NewVar());
    // out = s ? b : a
    solver_->AddTernary(Negate(s), Negate(b), o);
    solver_->AddTernary(Negate(s), b, Negate(o));
    solver_->AddTernary(s, Negate(a), o);
    solver_->AddTernary(s, a, Negate(o));
    return o;
  });
}

Lit StructuralEncoder::EncodeOp(GateOp op, std::span<const Lit> f) {
  switch (op) {
    case GateOp::kConst0:
    case GateOp::kTieLo:
      return FalseLit();
    case GateOp::kConst1:
    case GateOp::kTieHi:
      return TrueLit();
    case GateOp::kBuf:
      return f[0];
    case GateOp::kInv:
      return Negate(f[0]);
    case GateOp::kAnd:
      return EncodeAnd({f.begin(), f.end()});
    case GateOp::kNand:
      return Negate(EncodeAnd({f.begin(), f.end()}));
    case GateOp::kOr: {
      std::vector<Lit> inv(f.size());
      for (size_t i = 0; i < f.size(); ++i) inv[i] = Negate(f[i]);
      return Negate(EncodeAnd(std::move(inv)));
    }
    case GateOp::kNor: {
      std::vector<Lit> inv(f.size());
      for (size_t i = 0; i < f.size(); ++i) inv[i] = Negate(f[i]);
      return EncodeAnd(std::move(inv));
    }
    case GateOp::kXor:
      return EncodeXor(f[0], f[1]);
    case GateOp::kXnor:
      return Negate(EncodeXor(f[0], f[1]));
    case GateOp::kMux:
      return EncodeMux(f[0], f[1], f[2]);
    default:
      assert(false && "op not encodable");
      return FalseLit();
  }
}

IncrementalDipEncoder::IncrementalDipEncoder(StructuralEncoder& enc,
                                             const Netlist& nl)
    : enc_(&enc),
      nl_(&nl),
      key_gates_(nl.KeyInputs()),
      key_dep_(nl.NumNets(), 0),
      value_(nl.NumNets(), 0),
      net_lit_(nl.NumNets(), -1) {
  for (GateId g : key_gates_) key_dep_[nl.gate(g).out] = 1;
  for (GateId g : nl.TopoOrder()) {
    const Gate& gate = nl.gate(g);
    if (gate.op == GateOp::kInput || gate.op == GateOp::kKeyIn ||
        gate.op == GateOp::kOutput || gate.op == GateOp::kDeleted) {
      continue;
    }
    bool dep = false;
    for (NetId n : gate.fanins) dep = dep || key_dep_[n] != 0;
    if (dep) {
      key_dep_[gate.out] = 1;
      cone_gates_.push_back(g);
    } else {
      free_gates_.push_back(g);
    }
  }
}

void IncrementalDipEncoder::SetDip(std::span<const uint8_t> dip) {
  assert(dip.size() == nl_->inputs().size());
  for (size_t i = 0; i < dip.size(); ++i) {
    value_[nl_->gate(nl_->inputs()[i]).out] = dip[i] ? ~0ULL : 0ULL;
  }
  uint64_t fanin_words[kMaxFanin];
  for (GateId g : free_gates_) {
    const Gate& gate = nl_->gate(g);
    const size_t n = gate.fanins.size();
    for (size_t i = 0; i < n; ++i) fanin_words[i] = value_[gate.fanins[i]];
    value_[gate.out] =
        EvalGateWord(gate.op, std::span<const uint64_t>(fanin_words, n));
  }
  dip_loaded_ = true;
}

std::vector<Lit> IncrementalDipEncoder::Encode(std::span<const Lit> key_lits) {
  assert(dip_loaded_ && "SetDip must run before Encode");
  assert(key_lits.size() == key_gates_.size());
  for (size_t i = 0; i < key_lits.size(); ++i) {
    net_lit_[nl_->gate(key_gates_[i]).out] = key_lits[i];
  }
  // Constant nets map to True/False exactly as EncodeNetlist's folding
  // would produce; key-dependent nets carry the cone's literals.
  const auto lit_of = [&](NetId n) {
    return key_dep_[n] != 0
               ? net_lit_[n]
               : ((value_[n] & 1) != 0 ? enc_->TrueLit() : enc_->FalseLit());
  };
  std::vector<Lit> fanin_lits;
  for (GateId g : cone_gates_) {
    const Gate& gate = nl_->gate(g);
    fanin_lits.clear();
    for (NetId n : gate.fanins) fanin_lits.push_back(lit_of(n));
    net_lit_[gate.out] = enc_->EncodeOp(gate.op, fanin_lits);
  }
  std::vector<Lit> outs;
  outs.reserve(nl_->outputs().size());
  for (GateId g : nl_->outputs()) {
    outs.push_back(lit_of(nl_->gate(g).fanins[0]));
  }
  return outs;
}

std::vector<Lit> StructuralEncoder::EncodeNetlist(
    const Netlist& nl, std::span<const Lit> input_lits,
    std::span<const Lit> key_lits, std::vector<Lit>* net_lits) {
  assert(input_lits.size() == nl.inputs().size());
  std::vector<Lit> net_lit(nl.NumNets(), -1);
  for (size_t i = 0; i < input_lits.size(); ++i) {
    net_lit[nl.gate(nl.inputs()[i]).out] = input_lits[i];
  }
  const std::vector<GateId> keys = nl.KeyInputs();
  assert(key_lits.size() == keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    net_lit[nl.gate(keys[i]).out] = key_lits[i];
  }

  std::vector<Lit> fanin_lits;
  for (GateId g : nl.TopoOrder()) {
    const Gate& gate = nl.gate(g);
    if (gate.op == GateOp::kInput || gate.op == GateOp::kKeyIn ||
        gate.op == GateOp::kOutput || gate.op == GateOp::kDeleted) {
      continue;
    }
    fanin_lits.clear();
    for (NetId n : gate.fanins) {
      assert(net_lit[n] != -1);
      fanin_lits.push_back(net_lit[n]);
    }
    net_lit[gate.out] = EncodeOp(gate.op, fanin_lits);
  }

  std::vector<Lit> outs;
  outs.reserve(nl.outputs().size());
  for (GateId g : nl.outputs()) {
    outs.push_back(net_lit[nl.gate(g).fanins[0]]);
  }
  if (net_lits != nullptr) *net_lits = std::move(net_lit);
  return outs;
}

}  // namespace splitlock::sat
