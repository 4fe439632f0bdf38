#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace splitlock {
namespace {

// Step ops: a gate's function specialised by fanin count, so the kernel's
// inner loops are straight-line.
enum StepOp : uint8_t {
  kStepConst0,
  kStepConst1,
  kStepBuf,
  kStepInv,
  kStepAnd2,
  kStepAnd3,
  kStepAnd4,
  kStepNand2,
  kStepNand3,
  kStepNand4,
  kStepOr2,
  kStepOr3,
  kStepOr4,
  kStepNor2,
  kStepNor3,
  kStepNor4,
  kStepXor,
  kStepXnor,
  kStepMux,
};

// The step op evaluating `op` over `n` fanins exactly as EvalGateWord
// does; throws for a fanin count EvalGateWord cannot evaluate.
StepOp CompileOp(GateOp op, size_t n) {
  // AND/NAND/OR/NOR over one fanin are BUF/INV, as in EvalGateWord.
  const auto nary = [n](StepOp one, StepOp two) {
    return n == 1 ? one : static_cast<StepOp>(two + (n - 2));
  };
  switch (op) {
    case GateOp::kConst0:
    case GateOp::kTieLo:
      return kStepConst0;
    case GateOp::kConst1:
    case GateOp::kTieHi:
      return kStepConst1;
    case GateOp::kBuf:
      if (n >= 1) return kStepBuf;
      break;
    case GateOp::kInv:
      if (n >= 1) return kStepInv;
      break;
    case GateOp::kAnd:
      if (n >= 1) return nary(kStepBuf, kStepAnd2);
      break;
    case GateOp::kNand:
      if (n >= 1) return nary(kStepInv, kStepNand2);
      break;
    case GateOp::kOr:
      if (n >= 1) return nary(kStepBuf, kStepOr2);
      break;
    case GateOp::kNor:
      if (n >= 1) return nary(kStepInv, kStepNor2);
      break;
    case GateOp::kXor:
      if (n >= 2) return kStepXor;
      break;
    case GateOp::kXnor:
      if (n >= 2) return kStepXnor;
      break;
    case GateOp::kMux:
      if (n >= 3) return kStepMux;
      break;
    default:
      break;
  }
  throw std::invalid_argument(std::string("cannot simulate ") +
                              GateOpName(op) + " with " + std::to_string(n) +
                              " fanins");
}

// The one simulation kernel: evaluates `steps` in order over net-major
// buffers of `width` words per net. `Width` is std::integral_constant for
// Run()'s single word, so that instance has no inner loops.
template <typename Width>
void RunSteps(std::span<const Simulator::Step> steps, uint64_t* values,
              Width width) {
  const size_t n = width;
  for (const Simulator::Step& s : steps) {
    uint64_t* out = values + size_t{s.out} * n;
    const uint64_t* a = values + size_t{s.in[0]} * n;
    const uint64_t* b = values + size_t{s.in[1]} * n;
    const uint64_t* c = values + size_t{s.in[2]} * n;
    const uint64_t* d = values + size_t{s.in[3]} * n;
    switch (s.op) {
      case kStepConst0:
        for (size_t w = 0; w < n; ++w) out[w] = 0;
        break;
      case kStepConst1:
        for (size_t w = 0; w < n; ++w) out[w] = ~0ULL;
        break;
      case kStepBuf:
        for (size_t w = 0; w < n; ++w) out[w] = a[w];
        break;
      case kStepInv:
        for (size_t w = 0; w < n; ++w) out[w] = ~a[w];
        break;
      case kStepAnd2:
        for (size_t w = 0; w < n; ++w) out[w] = a[w] & b[w];
        break;
      case kStepAnd3:
        for (size_t w = 0; w < n; ++w) out[w] = a[w] & b[w] & c[w];
        break;
      case kStepAnd4:
        for (size_t w = 0; w < n; ++w) out[w] = a[w] & b[w] & c[w] & d[w];
        break;
      case kStepNand2:
        for (size_t w = 0; w < n; ++w) out[w] = ~(a[w] & b[w]);
        break;
      case kStepNand3:
        for (size_t w = 0; w < n; ++w) out[w] = ~(a[w] & b[w] & c[w]);
        break;
      case kStepNand4:
        for (size_t w = 0; w < n; ++w) {
          out[w] = ~(a[w] & b[w] & c[w] & d[w]);
        }
        break;
      case kStepOr2:
        for (size_t w = 0; w < n; ++w) out[w] = a[w] | b[w];
        break;
      case kStepOr3:
        for (size_t w = 0; w < n; ++w) out[w] = a[w] | b[w] | c[w];
        break;
      case kStepOr4:
        for (size_t w = 0; w < n; ++w) out[w] = a[w] | b[w] | c[w] | d[w];
        break;
      case kStepNor2:
        for (size_t w = 0; w < n; ++w) out[w] = ~(a[w] | b[w]);
        break;
      case kStepNor3:
        for (size_t w = 0; w < n; ++w) out[w] = ~(a[w] | b[w] | c[w]);
        break;
      case kStepNor4:
        for (size_t w = 0; w < n; ++w) {
          out[w] = ~(a[w] | b[w] | c[w] | d[w]);
        }
        break;
      case kStepXor:
        for (size_t w = 0; w < n; ++w) out[w] = a[w] ^ b[w];
        break;
      case kStepXnor:
        for (size_t w = 0; w < n; ++w) out[w] = ~(a[w] ^ b[w]);
        break;
      case kStepMux:  // fanins {sel, a, b}: sel ? b : a
        for (size_t w = 0; w < n; ++w) out[w] = (a[w] & c[w]) | (~a[w] & b[w]);
        break;
    }
  }
}

}  // namespace

Simulator::Simulator(const Netlist& nl)
    : nl_(&nl), key_inputs_(nl.KeyInputs()), values_(nl.NumNets(), 0) {
  steps_.reserve(nl.NumLogicGates() - key_inputs_.size());
  for (GateId g : nl.TopoOrder()) {
    const Gate& gate = nl.gate(g);
    if (gate.op == GateOp::kInput || gate.op == GateOp::kKeyIn ||
        gate.op == GateOp::kOutput) {
      continue;
    }
    Step step{CompileOp(gate.op, gate.fanins.size()), gate.out, {}};
    step.in.fill(gate.out);
    std::copy(gate.fanins.begin(), gate.fanins.end(), step.in.begin());
    steps_.push_back(step);
  }
  po_nets_.reserve(nl.outputs().size());
  for (GateId po : nl.outputs()) po_nets_.push_back(nl.gate(po).fanins[0]);
}

void Simulator::SetSourceWord(GateId source, uint64_t word) {
  const Gate& g = nl_->gate(source);
  assert(IsSourceOp(g.op));
  values_[g.out] = word;
}

void Simulator::SetInputWords(std::span<const uint64_t> words) {
  assert(words.size() == nl_->inputs().size());
  for (size_t i = 0; i < words.size(); ++i) {
    SetSourceWord(nl_->inputs()[i], words[i]);
  }
}

void Simulator::SetRandomInputs(Rng& rng) {
  for (GateId g : nl_->inputs()) SetSourceWord(g, rng.NextWord());
}

void Simulator::SetKeyBits(std::span<const uint8_t> bits) {
  assert(bits.size() == key_inputs_.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    SetSourceWord(key_inputs_[i], bits[i] ? ~0ULL : 0ULL);
  }
}

void Simulator::Run() {
  RunSteps(steps_, values_.data(), std::integral_constant<size_t, 1>{});
}

void Simulator::BeginBatch(size_t width) {
  assert(width > 0);
  batch_width_ = width;
  batch_.assign(nl_->NumNets() * width, 0);
}

void Simulator::SetSourceBatch(GateId source, std::span<const uint64_t> words) {
  const Gate& g = nl_->gate(source);
  assert(IsSourceOp(g.op));
  assert(words.size() == batch_width_);
  std::copy(words.begin(), words.end(),
            batch_.begin() + g.out * batch_width_);
}

void Simulator::SetKeyBitsBatch(std::span<const uint8_t> bits) {
  assert(bits.size() == key_inputs_.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    const NetId out = nl_->gate(key_inputs_[i]).out;
    std::fill_n(batch_.begin() + out * batch_width_, batch_width_,
                bits[i] ? ~0ULL : 0ULL);
  }
}

void Simulator::RunBatch() {
  assert(batch_width_ > 0);
  RunSteps(steps_, batch_.data(), batch_width_);
}

namespace {

// Shared driver for the two estimators: runs `words` simulation words in
// SoA batches and folds per-net statistics via `fold(net, word)`. Draw
// order matches the historical word-at-a-time sweep exactly (per word, one
// draw per primary input), so estimates are bit-identical to the
// pre-batched implementation for a given seed.
template <typename Fold>
void SweepRandomPatterns(const Netlist& nl, uint64_t patterns, uint64_t seed,
                         std::span<const uint8_t> key_bits, Fold&& fold) {
  constexpr size_t kBatchWords = 16;
  Simulator sim(nl);
  Rng rng(seed);
  const uint64_t words = (patterns + 63) / 64;
  const std::vector<GateId>& pis = nl.inputs();
  // One flat SoA stimulus buffer reused across batches (only the final
  // batch can be narrower).
  std::vector<uint64_t> rows(pis.size() * kBatchWords);
  for (uint64_t base = 0; base < words; base += kBatchWords) {
    const size_t width =
        static_cast<size_t>(std::min<uint64_t>(kBatchWords, words - base));
    sim.BeginBatch(width);
    if (!key_bits.empty()) sim.SetKeyBitsBatch(key_bits);
    // Drawn in (word, input) order to match the historical sweep.
    for (size_t w = 0; w < width; ++w) {
      for (size_t i = 0; i < pis.size(); ++i) {
        rows[i * width + w] = rng.NextWord();
      }
    }
    for (size_t i = 0; i < pis.size(); ++i) {
      sim.SetSourceBatch(
          pis[i], std::span<const uint64_t>(rows.data() + i * width, width));
    }
    sim.RunBatch();
    for (NetId n = 0; n < nl.NumNets(); ++n) {
      for (size_t w = 0; w < width; ++w) fold(n, sim.BatchNetWord(n, w));
    }
  }
}

}  // namespace

std::vector<double> EstimateToggleRates(const Netlist& nl, uint64_t patterns,
                                        uint64_t seed,
                                        std::span<const uint8_t> key_bits) {
  std::vector<uint64_t> toggles(nl.NumNets(), 0);
  SweepRandomPatterns(nl, patterns, seed, key_bits,
                      [&](NetId n, uint64_t word) {
                        // Adjacent lanes of a random word are independent
                        // random patterns; count lane-to-lane flips over the
                        // 63 lane pairs.
                        toggles[n] += std::popcount(
                            (word ^ (word >> 1)) & 0x7fffffffffffffffULL);
                      });
  const uint64_t total_pairs = ((patterns + 63) / 64) * 63;
  std::vector<double> rates(nl.NumNets(), 0.0);
  for (NetId n = 0; n < nl.NumNets(); ++n) {
    rates[n] = total_pairs == 0 ? 0.0
                                : static_cast<double>(toggles[n]) /
                                      static_cast<double>(total_pairs);
  }
  return rates;
}

std::vector<double> EstimateSignalProbabilities(const Netlist& nl,
                                                uint64_t patterns,
                                                uint64_t seed) {
  std::vector<uint64_t> ones(nl.NumNets(), 0);
  SweepRandomPatterns(nl, patterns, seed, {},
                      [&](NetId n, uint64_t word) {
                        ones[n] += std::popcount(word);
                      });
  const uint64_t total = ((patterns + 63) / 64) * 64;
  std::vector<double> probs(nl.NumNets(), 0.0);
  for (NetId n = 0; n < nl.NumNets(); ++n) {
    probs[n] = static_cast<double>(ones[n]) / static_cast<double>(total);
  }
  return probs;
}

}  // namespace splitlock
