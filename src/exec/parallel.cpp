#include "exec/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>

namespace splitlock::exec {

namespace {

using ChunkBody = std::function<void(size_t chunk, size_t lo, size_t hi)>;

// One region's state, shared by its caller and its helper tasks. A helper
// may start after the region returned, so the state is reference-counted,
// and `body` (in the caller's frame) is read only for a claimed chunk: the
// caller cannot return while a claimed chunk runs.
struct Region {
  size_t n, grain, chunks;
  const ChunkBody* body;
  std::atomic<size_t> next{0};
  std::mutex mutex;
  std::condition_variable all_done;
  size_t done = 0;                 // guarded by mutex
  std::exception_ptr first_error;  // guarded by mutex
};

// Claims and runs chunks of `r` until none is left.
void RunChunks(Region& r) {
  for (size_t c = r.next++; c < r.chunks; c = r.next++) {
    const size_t lo = c * r.grain;
    std::exception_ptr error;
    try {
      (*r.body)(c, lo, std::min(r.n, lo + r.grain));
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(r.mutex);
    if (error && !r.first_error) r.first_error = error;
    if (++r.done == r.chunks) r.all_done.notify_all();
  }
}

}  // namespace

void ParallelForChunked(size_t n, size_t grain, const ChunkBody& body) {
  if (grain == 0) grain = 1;
  const size_t chunks = NumChunks(n, grain);
  if (chunks == 0) return;
  if (chunks == 1) {
    body(0, 0, n);
    return;
  }
  const auto region = std::make_shared<Region>(n, grain, chunks, &body);
  ThreadPool& pool = ThreadPool::Default();
  for (size_t c = 0; c < chunks; ++c) {
    pool.Submit([region] { RunChunks(*region); });
  }
  RunChunks(*region);
  // Every chunk is claimed now; wait for those still running elsewhere.
  std::unique_lock<std::mutex> lock(region->mutex);
  region->all_done.wait(lock, [&] { return region->done == chunks; });
  // The first exception caught, which need not be the lowest chunk's.
  if (region->first_error) std::rethrow_exception(region->first_error);
}

void ParallelFor(size_t n, size_t grain,
                 const std::function<void(size_t lo, size_t hi)>& body) {
  ParallelForChunked(n, grain,
                     [&body](size_t, size_t lo, size_t hi) { body(lo, hi); });
}

}  // namespace splitlock::exec
