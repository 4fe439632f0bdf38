// Deterministic data-parallel primitives over the default thread pool.
//
// A parallel region (ParallelFor, ParallelForChunked, ParallelReduce) of two
// or more chunks submits one helper task per chunk. The caller and the
// helpers claim chunks until none is left; the caller then waits only for
// chunks that other threads are already running. So a region never
// deadlocks, even when its caller is a pool worker and every other worker
// is busy, and its caller never runs anything but its own chunks: a
// campaign job cannot start inside another job's region. A helper that
// starts after its region returned finds no chunk left and does nothing.
//
// Determinism contract (see docs/ARCHITECTURE.md):
//   * The chunking of [0, n) into grains depends only on (n, grain) — never
//     on the thread count or on runtime timing.
//   * Chunk bodies must write only to chunk-indexed (or index-disjoint)
//     state; under that discipline every result is bit-identical at any
//     thread count, including floating-point accumulations, because
//     ParallelReduce combines partials strictly in chunk order on the
//     calling thread.
//   * Randomized chunk bodies must draw from counter-based streams keyed by
//     data index (stream_rng.hpp), never from a shared sequential Rng.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "exec/thread_pool.hpp"

namespace splitlock::exec {

// Number of chunks ParallelFor/ParallelReduce will use for a range of `n`
// elements at grain `grain` (>= 1). Pure function of (n, grain).
inline size_t NumChunks(size_t n, size_t grain) {
  if (grain == 0) grain = 1;
  return n == 0 ? 0 : (n + grain - 1) / grain;
}

// Calls body(lo, hi) over disjoint sub-ranges covering [0, n), at most
// `grain` elements each, concurrently on the default pool. body must be
// thread-safe with respect to distinct ranges.
void ParallelFor(size_t n, size_t grain,
                 const std::function<void(size_t lo, size_t hi)>& body);

// Like ParallelFor but with an explicit chunk index, for chunk-indexed
// output slots: body(chunk, lo, hi) with chunk in [0, NumChunks(n, grain)).
void ParallelForChunked(
    size_t n, size_t grain,
    const std::function<void(size_t chunk, size_t lo, size_t hi)>& body);

// Maps chunks of [0, n) through `map` concurrently and folds the partial
// results with `combine` IN CHUNK ORDER on the calling thread, seeded with
// `identity`: result = combine(...combine(identity, r0), r1...). Chunk
// order makes the fold bit-deterministic even for non-associative types
// (doubles).
template <typename T>
T ParallelReduce(size_t n, size_t grain, T identity,
                 const std::function<T(size_t lo, size_t hi)>& map,
                 const std::function<T(T, T)>& combine) {
  const size_t chunks = NumChunks(n, grain);
  // Plain array, NOT std::vector<T>: vector<bool> packs results into
  // shared words, which would turn concurrent per-chunk writes into racy
  // read-modify-writes.
  std::unique_ptr<T[]> partial(new T[chunks]());
  ParallelForChunked(n, grain, [&](size_t chunk, size_t lo, size_t hi) {
    partial[chunk] = map(lo, hi);
  });
  T result = std::move(identity);
  for (size_t c = 0; c < chunks; ++c) {
    result = combine(std::move(result), std::move(partial[c]));
  }
  return result;
}

}  // namespace splitlock::exec
