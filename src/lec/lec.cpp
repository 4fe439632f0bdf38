#include "lec/lec.hpp"

#include <array>
#include <cassert>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "sat/solver.hpp"
#include "sat/tseitin.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace splitlock {
namespace {

// Sweep-proof counters (count-class: pure functions of the two netlists).
struct LecMetrics {
  obs::Counter* proofs;          // ProveEqual calls
  obs::Counter* proofs_skipped;  // matches already on the golden side
  obs::Counter* proofs_refuted;  // candidates a stored counterexample splits
};

LecMetrics& Metrics() {
  static LecMetrics m = [] {
    obs::Registry& r = obs::Registry::Instance();
    return LecMetrics{r.RegisterCounter("lec.proofs"),
                      r.RegisterCounter("lec.proofs_skipped"),
                      r.RegisterCounter("lec.proofs_refuted")};
  }();
  return m;
}

// Number of 64-pattern words used for candidate-equivalence signatures.
constexpr size_t kSigWords = 8;
using Signature = std::array<uint64_t, kSigWords>;

struct SignatureHash {
  size_t operator()(const Signature& s) const {
    size_t h = 0x9e3779b97f4a7c15ULL;
    for (uint64_t w : s) h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
  }
};

Signature Complement(Signature s) {
  for (uint64_t& w : s) w = ~w;
  return s;
}

// Net `n`'s signature: its words in `sim`'s signature batch.
Signature SignatureOf(const Simulator& sim, NetId n) {
  Signature sig;
  for (size_t w = 0; w < kSigWords; ++w) sig[w] = sim.BatchNetWord(n, w);
  return sig;
}

// A signature match on the golden side: its literal and the net it encodes.
struct GoldenNode {
  sat::Lit lit;
  NetId net;
};

}  // namespace

LecResult CheckEquivalence(const Netlist& golden, const Netlist& revised,
                           std::span<const uint8_t> golden_key,
                           std::span<const uint8_t> revised_key,
                           uint64_t conflict_limit) {
  assert(golden.inputs().size() == revised.inputs().size());
  assert(golden.outputs().size() == revised.outputs().size());
  LecResult result;

  sat::Solver solver;
  sat::StructuralEncoder enc(solver);

  // Shared primary inputs.
  std::vector<sat::Lit> inputs;
  inputs.reserve(golden.inputs().size());
  for (size_t i = 0; i < golden.inputs().size(); ++i) {
    inputs.push_back(enc.FreshLit());
  }
  auto key_to_lits = [&](std::span<const uint8_t> key) {
    std::vector<sat::Lit> lits;
    lits.reserve(key.size());
    for (uint8_t b : key) lits.push_back(b ? enc.TrueLit() : enc.FalseLit());
    return lits;
  };
  const std::vector<sat::Lit> gk = key_to_lits(golden_key);
  const std::vector<sat::Lit> rk = key_to_lits(revised_key);

  // Shared random stimulus for equivalence candidates: one batch per
  // netlist whose columns 0 to kSigWords - 1 hold every net's signature,
  // drawn word by word, one word per primary input. Column kSigWords holds
  // the counterexample lanes of the sweep below.
  Rng rng(0x1ec1ec1ecULL);
  Simulator golden_sim(golden);
  Simulator revised_sim(revised);
  golden_sim.BeginBatch(kSigWords + 1);
  revised_sim.BeginBatch(kSigWords + 1);
  if (!golden_key.empty()) golden_sim.SetKeyBitsBatch(golden_key);
  if (!revised_key.empty()) revised_sim.SetKeyBitsBatch(revised_key);
  std::vector<uint64_t> pi_words(inputs.size());
  for (size_t w = 0; w < kSigWords; ++w) {
    for (uint64_t& v : pi_words) v = rng.NextWord();
    golden_sim.SetInputColumn(w, pi_words);
    revised_sim.SetInputColumn(w, pi_words);
  }
  golden_sim.RunBatch();
  revised_sim.RunBatch();

  // Encode the golden netlist outright and index its literals by signature,
  // first net in topological order first.
  std::vector<sat::Lit> golden_lit;
  const std::vector<sat::Lit> golden_outs =
      enc.EncodeNetlist(golden, inputs, gk, &golden_lit);
  std::unordered_map<Signature, GoldenNode, SignatureHash> by_signature;
  for (const Simulator::Step& step : golden_sim.steps()) {
    by_signature.emplace(SignatureOf(golden_sim, step.out),
                         GoldenNode{golden_lit[step.out], step.out});
  }

  // Every variable below this one was created for the shared inputs, the
  // constants or the golden netlist.
  const int golden_vars = solver.NumVars();

  // SAT sweeping over the revised netlist: encode gate by gate; whenever a
  // net's signature matches a golden literal (directly or complemented),
  // try to prove the equivalence and substitute on success. Substitution
  // makes everything downstream of a proven point re-fold structurally,
  // which is what keeps locked-vs-original miters cheap.
  //
  // A net whose literal already is a golden-side node (structural hashing
  // folded it onto the golden encoding) is merged; its proof is skipped.
  // Skipping only forgoes a substitution, never makes one, so the final
  // miter below still decides the exact answer.
  //
  // A failed proof's model is an input pattern that tells the pair apart.
  // Its input values go into a free lane of `cex_words`, the inputs of
  // batch column kSigWords, and both netlists are re-simulated. A later
  // candidate whose two nets differ on a filled lane is refuted without a
  // proof: the CNF is a full Tseitin encoding, so that input pattern
  // satisfies the proof's "differ" query and ProveEqual would fail too.
  // Unless a proof runs out of budget, the substitutions, and so the miter,
  // stay the same (Mishchenko et al., ICCAD'06).
  LecMetrics& metrics = Metrics();
  const uint64_t per_proof_limit =
      conflict_limit == 0 ? 200000 : conflict_limit;
  std::vector<uint64_t> cex_words(inputs.size(), 0);
  uint64_t cex_lanes = 0;  // filled lanes of cex_words
  std::vector<sat::Lit> revised_lit(revised.NumNets(), -1);
  for (size_t i = 0; i < revised.inputs().size(); ++i) {
    revised_lit[revised.gate(revised.inputs()[i]).out] = inputs[i];
  }
  const std::vector<GateId> rkeys = revised.KeyInputs();
  for (size_t i = 0; i < rkeys.size(); ++i) {
    revised_lit[revised.gate(rkeys[i]).out] = rk[i];
  }
  std::vector<sat::Lit> fanin_lits;
  for (GateId g : revised.TopoOrder()) {
    const Gate& gate = revised.gate(g);
    if (gate.op == GateOp::kInput || gate.op == GateOp::kKeyIn ||
        gate.op == GateOp::kOutput || gate.op == GateOp::kDeleted) {
      continue;
    }
    fanin_lits.clear();
    for (NetId n : gate.fanins) fanin_lits.push_back(revised_lit[n]);
    sat::Lit lit = enc.EncodeOp(gate.op, fanin_lits);

    // Candidate merge against the golden side.
    const Signature sig = SignatureOf(revised_sim, gate.out);
    auto it = by_signature.find(sig);
    bool negated_candidate = false;
    if (it == by_signature.end()) {
      it = by_signature.find(Complement(sig));
      negated_candidate = true;
    }
    if (it != by_signature.end()) {
      const GoldenNode& node = it->second;
      const sat::Lit target =
          negated_candidate ? sat::Negate(node.lit) : node.lit;
      const uint64_t differ_on_cex =
          (revised_sim.BatchNetWord(gate.out, kSigWords) ^
           golden_sim.BatchNetWord(node.net, kSigWords) ^
           (negated_candidate ? ~0ULL : 0ULL)) &
          cex_lanes;
      if (lit == target) {
        // Structural hashing already merged the pair.
      } else if (sat::VarOf(lit) < golden_vars) {
        metrics.proofs_skipped->Add(1);
      } else if (differ_on_cex != 0) {
        metrics.proofs_refuted->Add(1);
      } else {
        metrics.proofs->Add(1);
        const sat::SolveResult r =
            sat::ProveEqual(solver, lit, target, per_proof_limit);
        if (r == sat::SolveResult::kUnsat) {
          lit = target;  // substitute: downstream folds onto the golden side
        } else if (r == sat::SolveResult::kSat && cex_lanes != ~0ULL) {
          // Lanes fill from bit 0 up, so this is the lowest free one.
          const uint64_t lane = cex_lanes + 1;
          for (size_t i = 0; i < inputs.size(); ++i) {
            if (sat::LitValue(solver, inputs[i])) cex_words[i] |= lane;
          }
          cex_lanes |= lane;
          golden_sim.SetInputColumn(kSigWords, cex_words);
          golden_sim.RunBatch();
          revised_sim.SetInputColumn(kSigWords, cex_words);
          revised_sim.RunBatch();
        }
      }
    }
    revised_lit[gate.out] = lit;
  }

  // Final miter over the output literals.
  std::vector<sat::Lit> diffs;
  std::vector<size_t> diff_output_index;
  for (size_t o = 0; o < golden.outputs().size(); ++o) {
    const sat::Lit r_out =
        revised_lit[revised.gate(revised.outputs()[o]).fanins[0]];
    const sat::Lit d = enc.EncodeOp(
        GateOp::kXor, std::array<sat::Lit, 2>{golden_outs[o], r_out});
    if (d == enc.FalseLit()) continue;
    diffs.push_back(d);
    diff_output_index.push_back(o);
  }

  if (diffs.empty()) {
    result.proven = true;
    result.equivalent = true;
    result.conflicts = solver.conflicts();
    return result;
  }
  solver.AddClause(diffs);

  const sat::SolveResult sr = solver.Solve(
      {}, conflict_limit == 0 ? 0 : solver.conflicts() + conflict_limit);
  result.conflicts = solver.conflicts();
  if (sr == sat::SolveResult::kUnknown) return result;
  result.proven = true;
  if (sr == sat::SolveResult::kUnsat) {
    result.equivalent = true;
    return result;
  }

  result.equivalent = false;
  result.counterexample.resize(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    result.counterexample[i] =
        static_cast<uint8_t>(sat::LitValue(solver, inputs[i]));
  }
  for (size_t d = 0; d < diffs.size(); ++d) {
    if (sat::LitValue(solver, diffs[d])) {
      result.differing_output = diff_output_index[d];
      break;
    }
  }
  return result;
}

}  // namespace splitlock
