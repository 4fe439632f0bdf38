// 64-bit parallel-pattern logic simulation.
//
// One Run() evaluates 64 input patterns at once (one bit-lane each). This is
// the workhorse behind HD/OER estimation, switching-activity extraction for
// the power model, bias profiling for fault selection, and the lock stage's
// per-fault checks.
//
// The batched API (BeginBatch/RunBatch) evaluates N x 64 patterns in a
// single topological sweep over structure-of-arrays net-value buffers:
// values of one net occupy N contiguous words, so each gate's inner loop is
// a straight-line pass over contiguous memory that vectorizes. The parallel
// sweeps in sim/metrics and attack/ shard word-batches across the exec
// thread pool, one Simulator per shard.
//
// Construction compiles the netlist once into a flat step list: one step
// per logic gate in topological order, holding its op specialised by arity,
// its output net and its fanin nets inline. Run() is that kernel at width 1
// over its own net-value buffer, RunBatch() the same kernel at the batch
// width, so neither reads the netlist's gates while it runs.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace splitlock {

class Simulator {
 public:
  // Captures the netlist's topological order; the netlist must outlive the
  // simulator and must not change structurally while in use.
  explicit Simulator(const Netlist& nl);

  // Assigns a 64-pattern word to the net driven by a source gate (primary
  // input or key input).
  void SetSourceWord(GateId source, uint64_t word);

  // Assigns words to all primary inputs, in inputs() order.
  void SetInputWords(std::span<const uint64_t> words);

  // Draws uniform random words for all primary inputs.
  void SetRandomInputs(Rng& rng);

  // Binds key-input gates to constant 0/1 lanes, in KeyInputs() order.
  void SetKeyBits(std::span<const uint8_t> bits);

  // Evaluates all gates in topological order. Source nets keep their
  // assigned words; TIE/const gates produce their constants; nets of
  // deleted gates read 0.
  void Run();

  uint64_t NetWord(NetId net) const { return values_[net]; }

  // Word observed by primary output `po_index` (outputs() order).
  uint64_t OutputWord(size_t po_index) const {
    return values_[po_nets_[po_index]];
  }

  // --- Batched multi-word simulation ---

  // Switches the batch buffers to `width` words per net (width * 64
  // patterns per RunBatch) and clears every word to 0, so key inputs left
  // unbound read 0.
  void BeginBatch(size_t width);

  size_t batch_width() const { return batch_width_; }

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
  std::vector<NetId> po_nets_;    // net observed by each primary output
  std::vector<uint64_t> values_;  // indexed by NetId
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
