// Process-wide metrics registry: named counters, gauges, histograms and
// time accumulators with deterministic registration and an ordered
// snapshot/export API.
//
// Why a registry: a run needs one place to ask "what did this run spend,
// per subsystem", and tests need one place to assert that instrumentation
// never perturbs results. Some counts live only here — the result store
// keeps no stats of its own (store.*). Telemetry that is also part of an
// API (the StageTimes a record carries, the SAT rounds an AttackReport
// lists) is added here once per job or run, so every consumer (CLI
// --metrics and --store-stats, bench JSON records, CI artifacts) sees the
// same shape.
//
// Determinism classes. Every metric carries a MetricClass and snapshots
// keep the classes segregated, because they have different contracts:
//
//   kCount  Deterministic counts: pure functions of the workload, bit-
//           identical at any thread count / shard count / store
//           temperature-for-a-fixed-disk-state. Examples: tasks run
//           (chunk counts come from exec::NumChunks, which ignores the
//           worker count), SAT rounds, DIPs, store hits.
//           tests/test_obs.cpp asserts bit-identity of this class at
//           SPLITLOCK_THREADS=1/2/8.
//   kSched  Scheduling-dependent counts: honest integers, but functions
//           of the actual interleaving (the pool's queue-depth high-water).
//           Never asserted for identity, never canonical.
//   kTime   Wall-clock accumulators (seconds). Non-canonical by the
//           same rule as every other timing in the repo.
//
// Histograms are always count-class: they bucket deterministic integer
// values (bytes, batch widths), not durations.
//
// Naming convention: `layer.subsystem.metric`, e.g. exec.pool.tasks_run,
// attack.sat.rounds, store.artifact.bytes_written. Registration of a
// duplicate name is a hard std::logic_error — two call sites silently
// sharing (or shadowing) a counter is a bug, and tools/lint's
// obs-metric-once rule audits the same invariant statically.
//
// Thread safety: registration takes the registry mutex (call sites use
// function-local statics, so it happens once); updates on the returned
// handles are lock-free relaxed atomics. Handles are owned by the
// registry and live for the process lifetime — never freed, safe to
// cache in statics.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace splitlock::obs {

enum class MetricClass {
  kCount,  // deterministic: bit-identical at any thread count
  kSched,  // scheduling-dependent count (queue depths)
  kTime,   // wall-clock seconds (non-canonical)
};

// Monotonic integer counter. Relaxed atomics: metric totals need no
// ordering with respect to the work they count.
//
// Sub() is the one sanctioned exception to monotonicity: it exists so an
// already-counted event can be *reclassified* after the fact (the store's
// NoteArtifactCorrupt moves an envelope-level artifact hit to corrupt-miss
// once the payload fails to decode), so the store's counts stay exact.
// Callers may only subtract events they previously added on the same
// counter, so totals never go negative.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(uint64_t n = 1) { value_.fetch_sub(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-set value plus a monotonic high-water mark. Gauges are always
// sched-class: an instantaneous level (queue depth) is a fact about the
// interleaving, not the workload. Snapshots export the high-water mark —
// for admission-control sizing the peak is the useful number.
class Gauge {
 public:
  void Set(uint64_t v) {
    value_.store(v, std::memory_order_relaxed);
    RaiseTo(v);
  }
  // Raise the high-water mark without touching the last-set value.
  void RaiseTo(uint64_t v) {
    uint64_t cur = high_.load(std::memory_order_relaxed);
    while (v > cur &&
           !high_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  uint64_t HighWater() const { return high_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
  std::atomic<uint64_t> high_{0};
};

// Fixed-bucket histogram over uint64 values. Bucket i counts values
// v <= edges[i] (first matching edge); the final overflow bucket counts
// values beyond the last edge. Edges are fixed at registration so every
// process bucketing the same values produces the same vector — snapshots
// of count-class histograms are part of the bit-identity contract.
class Histogram {
 public:
  explicit Histogram(std::vector<uint64_t> edges);

  void Observe(uint64_t v);
  // Observe the same value `n` times (batch totals).
  void ObserveN(uint64_t v, uint64_t n);

  const std::vector<uint64_t>& edges() const { return edges_; }
  uint64_t Total() const { return total_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  std::vector<uint64_t> BucketCounts() const;

 private:
  std::vector<uint64_t> edges_;  // strictly increasing, fixed
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // edges_.size() + 1
  std::atomic<uint64_t> total_{0};
  std::atomic<uint64_t> sum_{0};
};

// Wall-clock accumulator. Stores integer microseconds internally so
// concurrent adds are a single fetch_add (no CAS loop over doubles);
// exported as seconds. Feed it from util/stopwatch.hpp measurements.
class TimeMetric {
 public:
  void AddSeconds(double s) {
    if (s <= 0.0) return;
    micros_.fetch_add(static_cast<uint64_t>(s * 1e6 + 0.5),
                      std::memory_order_relaxed);
  }
  double Seconds() const {
    return static_cast<double>(micros_.load(std::memory_order_relaxed)) * 1e-6;
  }

 private:
  std::atomic<uint64_t> micros_{0};
};

struct HistogramSnapshot {
  std::vector<uint64_t> edges;
  std::vector<uint64_t> buckets;  // edges.size() + 1 (overflow last)
  uint64_t total = 0;
  uint64_t sum = 0;

  bool operator==(const HistogramSnapshot&) const = default;
};

// Point-in-time copy of the registry, segregated by class. std::map
// keys give the ordered (name-sorted) export the issue requires; the
// JSON emitters below iterate maps directly so output order is a pure
// function of the metric names.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counts;               // kCount counters
  std::map<std::string, HistogramSnapshot> histograms;  // count-class
  std::map<std::string, uint64_t> sched;  // kSched counters + gauge HWMs
  std::map<std::string, double> times;    // kTime, seconds

  // Full snapshot as one JSON object:
  //   {"counts":{...},"histograms":{...},"sched":{...},"times":{...}}
  // Key order inside each section is name order (std::map); doubles use
  // store::CanonicalDouble-compatible %.17g formatting.
  std::string ToJson() const;
  // Only the deterministic sections (counts + histograms) — the part of
  // the snapshot the bit-identity tests compare as strings.
  std::string CountsJson() const;
  // Counts + histograms restricted to names starting with `prefix`, as
  // a flat JSON object {"name":value,...} (histograms contribute
  // "<name>.total" and "<name>.sum"). Used by `--store-stats` so the CLI
  // and bench records derive the same stats shape from one source.
  std::string FlatCountsJson(const std::string& prefix) const;

  // after - before, per name (names absent from `before` read as zero).
  // Histogram deltas subtract bucket-wise; edges must match. Lets tests
  // assert on the increments one workload caused even though the global
  // registry accumulates for the process lifetime.
  static MetricsSnapshot Delta(const MetricsSnapshot& before,
                               const MetricsSnapshot& after);
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // All Register* calls throw std::logic_error on a duplicate name (even
  // across kinds: a counter and a gauge may not share a name). Returned
  // pointers are valid for the registry's lifetime.
  Counter* RegisterCounter(const std::string& name,
                           MetricClass cls = MetricClass::kCount);
  Gauge* RegisterGauge(const std::string& name);
  Histogram* RegisterHistogram(const std::string& name,
                               std::vector<uint64_t> edges);
  TimeMetric* RegisterTime(const std::string& name);

  MetricsSnapshot Snapshot() const;

  // The process-wide registry every production call site uses. Tests
  // that need isolation (duplicate-name behaviour, ordering) construct
  // their own Registry instead.
  static Registry& Instance();

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kTime };
  struct Entry {
    Kind kind;
    MetricClass cls;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::unique_ptr<TimeMetric> time;
  };

  void CheckFresh(const std::string& name) const;  // mu_ held

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

// Geometric bucket edges for byte/width histograms: lo, lo*2, ..., hi
// (inclusive). lo must be nonzero and <= hi.
std::vector<uint64_t> Pow2Edges(uint64_t lo, uint64_t hi);

}  // namespace splitlock::obs
