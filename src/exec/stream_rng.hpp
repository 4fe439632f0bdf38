// Counter-based, splittable random streams for sharded Monte-Carlo work.
//
// A StreamRng is a pure function of (seed, domain, stream): any shard that
// knows its data index can reconstruct exactly the random draws belonging to
// that index, so results are bit-identical regardless of how the index space
// is chunked across threads. This is the RNG discipline every parallel sweep
// in the library follows. Placement and routing draw from these streams too,
// although they run on one thread: each TIE cell, slot, sample, move and net
// owns its draws. The sequential util/rng.hpp Rng remains the tool for
// inherently serial algorithms (lock-site selection, greedy fallbacks).
//
// Streams within one seed are keyed twice: a `domain` tag separates the
// independent uses inside one algorithm (e.g. input stimulus vs key
// sampling in the oracle-less probe), and `stream` is the data index (word
// index, sample index, shard id). Mixing is SplitMix64 (Steele et al.,
// OOPSLA'14) over the golden-ratio Weyl sequence — the same finalizer the
// JDK and Romu-family generators rely on for stream splitting.
#pragma once

#include <cstdint>

namespace splitlock::exec {

// SplitMix64 finalizer: bijective avalanche mix of a 64-bit value.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Stream domains used by the library's parallel sweeps. Distinct domains
// under the same (seed, stream) yield independent draws.
enum class StreamDomain : uint64_t {
  kStimulus = 0x53,    // per-word primary-input stimulus
  kKeySample = 0x4b,   // per-sample random key bits
  kShard = 0x5a,       // generic per-shard streams
  kPlacerMove = 0x50,  // per-move annealing draws (gate, slot, acceptance)
  kPlacerTie = 0x54,   // per-TIE-cell slot draws until a free slot
  kPlacerInit = 0x49,  // per-slot shuffle keys for the initial placement
  kPlacerTemp = 0x74,  // per-sample draws for temperature estimation
  kRouteNet = 0x52,    // per-net layer-pair / corner draws in RouteDesign
  kLiftNet = 0x4c,     // per-net corner draws when lifting to the BEOL
  kEcoDetour = 0x45,   // per-net detour draws in the ECO re-route
};

class StreamRng {
 public:
  StreamRng(uint64_t seed, StreamDomain domain, uint64_t stream)
      : state_(Mix64(Mix64(seed ^ (static_cast<uint64_t>(domain) << 56)) ^
                     Mix64(stream))) {}

  // 64 independent uniform bits; advances the stream.
  uint64_t NextWord() {
    state_ += 0x9e3779b97f4a7c15ULL;
    return Mix64(state_);
  }

  bool NextBool() { return (NextWord() & 1u) != 0; }

  // Uniform integer in [0, bound), bound > 0. Lemire-style rejection-free
  // multiply-shift is fine here: draws feed Monte-Carlo estimates, not
  // cryptography.
  uint64_t NextUint(uint64_t bound) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(NextWord()) * bound) >> 64);
  }

  // Uniform double in [0, 1): the top 53 bits of one word scaled by 2^-53
  // (the same portable fill as util/rng.hpp).
  double NextDouble() { return (NextWord() >> 11) * 0x1.0p-53; }

  // Bernoulli draw with probability p of true.
  bool NextBernoulli(double p) { return NextDouble() < p; }

 private:
  uint64_t state_;
};

}  // namespace splitlock::exec
