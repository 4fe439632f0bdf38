#include "attack/ideal.hpp"

#include <bit>
#include <cassert>
#include <vector>

#include "attack/proximity.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace splitlock::attack {

IdealAttackResult RunIdealAttack(const Netlist& original,
                                 const Netlist& locked,
                                 std::span<const uint8_t> correct_key,
                                 uint64_t guesses, uint64_t patterns_per_guess,
                                 uint64_t seed) {
  IdealAttackResult result;
  Rng rng(seed);
  // Width-1 batches: column 0 holds one pattern, broadcast across lanes.
  Simulator sim_orig(original);
  Simulator sim_lock(locked);
  sim_orig.BeginBatch(1);
  sim_lock.BeginBatch(1);
  const std::vector<GateId>& key_inputs = sim_lock.key_inputs();
  assert(correct_key.size() == key_inputs.size());
  const size_t num_pis = original.inputs().size();
  assert(num_pis == locked.inputs().size());

  std::vector<uint64_t> key_words(key_inputs.size());
  std::vector<uint64_t> pi_words(num_pis);
  const uint64_t rounds = (guesses + 63) / 64;
  for (uint64_t round = 0; round < rounds; ++round) {
    const uint64_t lanes =
        (round + 1 == rounds && guesses % 64 != 0) ? guesses % 64 : 64;
    const uint64_t lane_mask = lanes == 64 ? ~0ULL : ((1ULL << lanes) - 1);

    // One key guess per lane.
    for (size_t k = 0; k < key_words.size(); ++k) {
      key_words[k] = rng.NextWord();
      sim_lock.SetSourceBatch(key_inputs[k], {&key_words[k], 1});
    }
    // Count exact hits: lanes whose every key bit matches the correct key.
    uint64_t exact = lane_mask;
    for (size_t k = 0; k < key_words.size(); ++k) {
      exact &= correct_key[k] ? key_words[k] : ~key_words[k];
    }
    result.exact_guesses += std::popcount(exact);

    // Broadcast each input pattern across all lanes; accumulate per-lane
    // mismatch.
    uint64_t lane_error = 0;
    for (uint64_t p = 0; p < patterns_per_guess; ++p) {
      for (uint64_t& v : pi_words) v = rng.NextBool() ? ~0ULL : 0ULL;
      sim_orig.SetInputColumn(0, pi_words);
      sim_lock.SetInputColumn(0, pi_words);
      sim_orig.RunBatch();
      sim_lock.RunBatch();
      for (size_t o = 0; o < original.outputs().size(); ++o) {
        lane_error |=
            sim_orig.BatchOutputWord(o, 0) ^ sim_lock.BatchOutputWord(o, 0);
      }
      if ((lane_error & lane_mask) == lane_mask) break;  // all lanes failed
    }
    result.erroneous_guesses += std::popcount(lane_error & lane_mask);
    result.guesses += lanes;
  }
  return result;
}

split::Assignment IdealAssignment(const split::FeolView& feol, uint64_t seed) {
  const Netlist& nl = *feol.netlist;
  Rng rng(seed);
  std::vector<NetId> tie_nets;
  for (NetId n = 0; n < nl.NumNets(); ++n) {
    const GateId d = nl.DriverOf(n);
    if (d == kNullId || nl.net(n).sinks.empty()) continue;
    switch (nl.gate(d).op) {
      case GateOp::kTieHi:
      case GateOp::kTieLo:
      case GateOp::kKeyIn:
        tie_nets.push_back(n);
        break;
      default:
        break;
    }
  }

  split::Assignment assignment(feol.sink_stubs.size(), kNullId);
  for (size_t i = 0; i < feol.sink_stubs.size(); ++i) {
    const split::SinkStub& stub = feol.sink_stubs[i];
    if (IsKeyGateSink(feol, stub) && !tie_nets.empty()) {
      assignment[i] = tie_nets[rng.NextUint(tie_nets.size())];
    } else {
      assignment[i] = stub.true_net;  // regular nets granted
    }
  }
  return assignment;
}

}  // namespace splitlock::attack
