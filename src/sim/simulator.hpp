// 64-bit parallel-pattern logic simulation, in batches.
//
// A batch of width N evaluates N x 64 input patterns (one bit-lane each, N
// batch columns) in one topological sweep over the simulator's one
// net-value buffer. The N words of a net are contiguous, so each gate's
// inner loop is a straight-line pass over contiguous memory that
// vectorizes. This is the workhorse behind HD/OER estimation,
// switching-activity extraction for the power model, bias profiling for
// fault selection, the lock stage's per-fault checks, the LEC's signatures
// and the SAT attack's oracle. The parallel sweeps in sim/metrics and
// attack/ shard word-batches across the exec thread pool, one Simulator per
// shard.
//
// Primary inputs are bound one batch column at a time: one word per input,
// in inputs() order, the order in which every stimulus producer draws its
// words. Key inputs are bound as whole rows.
//
// Construction compiles the netlist once into a flat step list: one step
// per logic gate in topological order, holding its op specialised by arity,
// its output net and its fanin nets inline. RunBatch() runs that one kernel
// at the batch width, so it never reads the netlist's gates; a width-1
// batch runs the kernel's single-word instance, which has no inner loops.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"

namespace splitlock {

class Simulator {
 public:
  // Captures the netlist's topological order; the netlist must outlive the
  // simulator and must not change structurally while in use.
  explicit Simulator(const Netlist& nl);

  // Switches the batch buffer to `width` words per net (width * 64
  // patterns per RunBatch) and clears every word to 0, so key inputs left
  // unbound read 0.
  void BeginBatch(size_t width);

  size_t batch_width() const { return batch_width_; }

  // Assigns batch column `w` of every primary input: `pi_words` holds one
  // word per input, in inputs() order.
  void SetInputColumn(size_t w, std::span<const uint64_t> pi_words);

  // Assigns the `width` words of a source gate's net (one word per batch
  // column).
  void SetSourceBatch(GateId source, std::span<const uint64_t> words);

  // Binds key-input gates to constant 0/1 across every batch column.
  void SetKeyBitsBatch(std::span<const uint8_t> bits);

  // Evaluates all gates over all batch columns in one topological sweep.
  void RunBatch();

  // Word `w` (batch column) of a net / of primary output `po_index`.
  uint64_t BatchNetWord(NetId net, size_t w) const {
    return batch_[net * batch_width_ + w];
  }
  uint64_t BatchOutputWord(size_t po_index, size_t w) const {
    return BatchNetWord(po_nets_[po_index], w);
  }

  // Hands over the batch buffer, word `w` of net `n` at [n * width + w],
  // for a caller that keeps a sweep's words after the simulator is gone.
  // BeginBatch must run before the next RunBatch.
  std::vector<uint64_t> ReleaseBatch() {
    batch_width_ = 0;
    return std::move(batch_);
  }

  const Netlist& netlist() const { return *nl_; }

  // Key-input gates, in KeyInputs() order.
  const std::vector<GateId>& key_inputs() const { return key_inputs_; }

  // One compiled logic gate. `op` is the gate's function specialised by
  // arity (see simulator.cpp); fanin slots past the arity repeat `out`.
  struct Step {
    uint8_t op;
    NetId out;
    std::array<NetId, kMaxFanin> in;
  };

  // The compiled logic gates (every live gate but inputs, key inputs and
  // outputs, TIE and constant cells included), in evaluation order: the
  // netlist's TopoOrder().
  std::span<const Step> steps() const { return steps_; }

 private:
  const Netlist* nl_;
  std::vector<Step> steps_;
  std::vector<GateId> key_inputs_;
  std::vector<NetId> pi_nets_;  // net driven by each primary input
  std::vector<NetId> po_nets_;  // net observed by each primary output
  size_t batch_width_ = 0;
  std::vector<uint64_t> batch_;  // SoA: [net * batch_width_ + word]
};

// Per-net toggle rate (fraction of adjacent random-pattern pairs on which
// the net's value flips), estimated over `patterns` random patterns. Used by
// the dynamic-power model. Key inputs are bound to `key_bits` (may be empty
// when the netlist has no key inputs).
std::vector<double> EstimateToggleRates(const Netlist& nl, uint64_t patterns,
                                        uint64_t seed,
                                        std::span<const uint8_t> key_bits = {});

// Per-net probability of logic 1 over `patterns` random patterns. Used to
// find strongly biased nets for fault-injection locking.
std::vector<double> EstimateSignalProbabilities(const Netlist& nl,
                                                uint64_t patterns,
                                                uint64_t seed);

}  // namespace splitlock
