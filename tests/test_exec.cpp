// Exec-layer contract tests: the thread pool runs what it is given, the
// deterministic primitives cover their ranges exactly once, counter-based
// streams reproduce, and — the load-bearing guarantee — every parallel
// sweep in the library (HD/OER, pattern agreement, oracle-less probe,
// proximity scoring) is bit-identical at 1, 2 and 8 threads.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "attack/proximity.hpp"
#include "attack/sat_attack.hpp"
#include "circuits/c17.hpp"
#include "circuits/random_circuit.hpp"
#include "core/flow.hpp"
#include "exec/parallel.hpp"
#include "exec/stream_rng.hpp"
#include "exec/thread_pool.hpp"
#include "lock/epic.hpp"
#include "obs/metrics.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/stopwatch.hpp"

namespace splitlock {
namespace {

// Restores the default pool width when a test body returns.
struct PoolWidthGuard {
  ~PoolWidthGuard() { exec::ThreadPool::SetDefaultThreadCount(0); }
};

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    exec::ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  }  // the destructor runs every queued task before it joins
  EXPECT_EQ(count.load(), 100);
}

// A region's caller opens the region inside a pool task: on a width-1 pool
// the worker runs the task and, as the region's caller, both chunks.
// exec.pool.busy_s counts that task's time once (the chunks run inside
// it), so busy time cannot exceed the wall time of the whole run.
TEST(ThreadPool, BusyTimeCountsARegionInsideATaskOnce) {
  PoolWidthGuard guard;
  exec::ThreadPool::SetDefaultThreadCount(1);
  constexpr double kSpinSeconds = 0.025;
  const double before =
      obs::Registry::Instance().Snapshot().times["exec.pool.busy_s"];
  const Stopwatch wall;
  std::atomic<bool> done{false};
  exec::ThreadPool::Default().Submit([&done] {
    exec::ParallelFor(2, 1, [](size_t, size_t) {
      const Stopwatch spin;
      while (spin.Seconds() < kSpinSeconds) {
      }
    });
    done.store(true);
  });
  while (!done.load()) std::this_thread::yield();
  exec::ThreadPool::SetDefaultThreadCount(1);  // joins the worker
  const double wall_s = wall.Seconds();
  const double busy_s =
      obs::Registry::Instance().Snapshot().times["exec.pool.busy_s"] - before;
  EXPECT_GE(busy_s, 2 * kSpinSeconds);
  EXPECT_LE(busy_s, wall_s);
}

TEST(ParallelFor, PropagatesExceptions) {
  PoolWidthGuard guard;
  exec::ThreadPool::SetDefaultThreadCount(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(exec::ParallelFor(8, 1,
                                 [&ran](size_t lo, size_t) {
                                   ran.fetch_add(1);
                                   if (lo % 3 == 0) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The exception surfaces only after every chunk has run.
  EXPECT_EQ(ran.load(), 8);
}

// The waiter of a region runs only its own chunks. On a width-1 pool the
// two chunks rendezvous, so one runs on the caller and one on the worker.
// The worker's chunk submits a foreign task and holds the region open
// until that task ran or 200 ms passed: a waiter that helps with any
// queued task would run the foreign task on the caller.
TEST(ParallelFor, WaiterRunsOnlyItsOwnChunks) {
  PoolWidthGuard guard;
  exec::ThreadPool::SetDefaultThreadCount(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> arrived{0};
  std::atomic<bool> foreign_ran{false};
  std::atomic<bool> foreign_ran_on_caller{false};
  exec::ParallelFor(2, 1, [&](size_t, size_t) {
    arrived.fetch_add(1);
    const Stopwatch rendezvous;
    while (arrived.load() < 2 && rendezvous.Seconds() < 5.0) {
      std::this_thread::yield();
    }
    if (std::this_thread::get_id() == caller) return;
    exec::ThreadPool::Default().Submit([&] {
      foreign_ran_on_caller.store(std::this_thread::get_id() == caller);
      foreign_ran.store(true);
    });
    const Stopwatch hold;
    while (!foreign_ran.load() && hold.Seconds() < 0.2) {
      std::this_thread::yield();
    }
  });
  // Replacing the pool runs its queued tasks, the foreign one included.
  exec::ThreadPool::SetDefaultThreadCount(1);
  ASSERT_TRUE(foreign_ran.load());
  EXPECT_FALSE(foreign_ran_on_caller.load());
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  PoolWidthGuard guard;
  for (size_t threads : {1u, 2u, 8u}) {
    exec::ThreadPool::SetDefaultThreadCount(threads);
    std::vector<std::atomic<int>> hits(1000);
    exec::ParallelFor(1000, 7, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
    });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " @ " << threads;
    }
  }
}

TEST(ParallelFor, NestedRegionsDoNotDeadlock) {
  PoolWidthGuard guard;
  exec::ThreadPool::SetDefaultThreadCount(2);
  std::atomic<int> total{0};
  exec::ParallelFor(8, 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      exec::ParallelFor(8, 1,
                        [&](size_t l, size_t h) {
                          total.fetch_add(static_cast<int>(h - l));
                        });
    }
  });
  EXPECT_EQ(total.load(), 64);
}

// Overwrites the stack below the caller, where the frame of a region that
// just returned lived.
[[gnu::noinline]] void ScribbleStack() {
  volatile unsigned char junk[2048];
  for (size_t i = 0; i < sizeof(junk); ++i) junk[i] = 0xA5;
}

// Regression for a use-after-scope in the region wait: the last chunk's
// task once dropped the pending count to zero before taking the region's
// mutex to notify, so the caller could return, and the region's stack
// frame be reused, while the task still had the mutex and condition
// variable to touch. Region state now lives as long as its last helper
// task, which may start after the region returned. Many tiny nested
// regions, entered from more threads than there are cores so that tasks
// get preempted inside that window, with the stack scribbled after each
// region; with the bug this aborted, crashed or hung.
TEST(ParallelFor, ManyTinyNestedRegionsFromSeveralThreads) {
  PoolWidthGuard guard;
  exec::ThreadPool::SetDefaultThreadCount(8);
  constexpr size_t kCallers = 8;
  constexpr size_t kRegions = 3000;
  std::atomic<size_t> total{0};
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&total] {
      for (size_t r = 0; r < kRegions; ++r) {
        exec::ParallelFor(4, 1, [&total](size_t, size_t) {
          exec::ParallelFor(2, 1, [&total](size_t lo, size_t hi) {
            total.fetch_add(hi - lo);
          });
          ScribbleStack();
        });
        ScribbleStack();
      }
    });
  }
  for (std::thread& c : callers) c.join();
  EXPECT_EQ(total.load(), kCallers * kRegions * 4 * 2);
}

TEST(ParallelReduce, FloatSumIsBitIdenticalAcrossWidths) {
  PoolWidthGuard guard;
  std::vector<double> values(10000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = 1.0 / static_cast<double>(i + 1);
  }
  std::vector<double> results;
  for (size_t threads : {1u, 2u, 8u}) {
    exec::ThreadPool::SetDefaultThreadCount(threads);
    results.push_back(exec::ParallelReduce<double>(
        values.size(), 64, 0.0,
        [&](size_t lo, size_t hi) {
          return std::accumulate(values.begin() + lo, values.begin() + hi,
                                 0.0);
        },
        [](double x, double y) { return x + y; }));
  }
  EXPECT_EQ(results[0], results[1]);  // bitwise, not approximate
  EXPECT_EQ(results[0], results[2]);
}

TEST(StreamRng, ReproducibleAndStreamIndependent) {
  exec::StreamRng a(42, exec::StreamDomain::kStimulus, 7);
  exec::StreamRng b(42, exec::StreamDomain::kStimulus, 7);
  exec::StreamRng c(42, exec::StreamDomain::kStimulus, 8);
  exec::StreamRng d(42, exec::StreamDomain::kKeySample, 7);
  bool diff_stream = false;
  bool diff_domain = false;
  for (int i = 0; i < 64; ++i) {
    const uint64_t va = a.NextWord();
    EXPECT_EQ(va, b.NextWord());
    diff_stream = diff_stream || va != c.NextWord();
    diff_domain = diff_domain || va != d.NextWord();
  }
  EXPECT_TRUE(diff_stream);
  EXPECT_TRUE(diff_domain);
}

// Width-1 batches, which run the kernel's single-word instance, match the
// columns of one wide batch.
TEST(Simulator, RunBatchMatchesRepeatedSingleWordRuns) {
  circuits::CircuitSpec spec;
  spec.num_inputs = 12;
  spec.num_outputs = 6;
  spec.num_gates = 300;
  spec.seed = 9;
  const Netlist nl = circuits::GenerateCircuit(spec);

  constexpr size_t kWidth = 5;
  Rng rng(123);
  std::vector<std::vector<uint64_t>> columns(
      kWidth, std::vector<uint64_t>(nl.inputs().size()));
  for (auto& column : columns) {
    for (uint64_t& w : column) w = rng.NextWord();
  }

  Simulator batch(nl);
  batch.BeginBatch(kWidth);
  for (size_t w = 0; w < kWidth; ++w) batch.SetInputColumn(w, columns[w]);
  batch.RunBatch();

  Simulator single(nl);
  single.BeginBatch(1);
  for (size_t w = 0; w < kWidth; ++w) {
    single.SetInputColumn(0, columns[w]);
    single.RunBatch();
    for (NetId n = 0; n < nl.NumNets(); ++n) {
      ASSERT_EQ(single.BatchNetWord(n, 0), batch.BatchNetWord(n, w))
          << "net " << n << " word " << w;
    }
    for (size_t o = 0; o < nl.outputs().size(); ++o) {
      ASSERT_EQ(single.BatchOutputWord(o, 0), batch.BatchOutputWord(o, w));
    }
  }
}

TEST(Simulator, RunBatchHonorsKeyBits) {
  const Netlist original = circuits::MakeC17();
  Rng lock_rng(4);
  const lock::EpicResult locked = lock::LockWithEpic(original, 4, lock_rng);
  const Netlist& nl = locked.locked;

  Simulator batch(nl);
  batch.BeginBatch(3);
  batch.SetKeyBitsBatch(locked.key);
  std::vector<uint64_t> row(3);
  Rng rng(5);
  for (GateId pi : nl.inputs()) {
    for (uint64_t& w : row) w = rng.NextWord();
    batch.SetSourceBatch(pi, row);
  }
  batch.RunBatch();  // smoke: correct key must not crash and produces words
  (void)batch.BatchOutputWord(0, 2);
}

// The determinism contract of the ISSUE: the same seed must give
// bit-identical results at ANY thread count for every sharded sweep.
TEST(ThreadInvariance, FaultCoverageHdOerProbeAndProximity) {
  PoolWidthGuard guard;

  circuits::CircuitSpec spec;
  spec.num_inputs = 14;
  spec.num_outputs = 7;
  spec.num_gates = 350;
  spec.seed = 21;
  const Netlist nl = circuits::GenerateCircuit(spec);

  Rng lock_rng(6);
  const lock::EpicResult locked = lock::LockWithEpic(nl, 8, lock_rng);
  std::vector<uint8_t> wrong_key = locked.key;
  wrong_key[0] ^= 1;

  // 2500 patterns: not a multiple of 64, so tail-lane masking is exercised
  // in every sweep.
  constexpr uint64_t kPatterns = 2500;

  struct Snapshot {
    double hd = 0.0, oer = 0.0;
    bool agree_right = false, agree_wrong = false;
    size_t distinct = 0;
  };
  std::vector<Snapshot> snaps;
  for (size_t threads : {1u, 2u, 8u}) {
    exec::ThreadPool::SetDefaultThreadCount(threads);
    Snapshot s;
    const FunctionalDiff d = CompareFunctional(
        nl, locked.locked, kPatterns, 77, {}, wrong_key);
    s.hd = d.hd_percent;
    s.oer = d.oer_percent;
    s.agree_right =
        RandomPatternsAgree(nl, locked.locked, kPatterns, 77, {}, locked.key);
    s.agree_wrong =
        RandomPatternsAgree(nl, locked.locked, kPatterns, 77, {}, wrong_key);
    s.distinct =
        attack::ProbeOracleLessKeySpace(locked.locked, 40, kPatterns, 77)
            .distinct_functions;
    snaps.push_back(std::move(s));
  }
  for (size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_EQ(snaps[0].hd, snaps[i].hd);  // bitwise
    EXPECT_EQ(snaps[0].oer, snaps[i].oer);
    EXPECT_EQ(snaps[0].agree_right, snaps[i].agree_right);
    EXPECT_EQ(snaps[0].agree_wrong, snaps[i].agree_wrong);
    EXPECT_EQ(snaps[0].distinct, snaps[i].distinct);
  }
  EXPECT_TRUE(snaps[0].agree_right);
  EXPECT_FALSE(snaps[0].agree_wrong);
}

TEST(ThreadInvariance, ProximityAttackAssignment) {
  PoolWidthGuard guard;
  circuits::CircuitSpec spec;
  spec.num_inputs = 12;
  spec.num_outputs = 6;
  spec.num_gates = 250;
  spec.seed = 33;
  const Netlist original = circuits::GenerateCircuit(spec);
  core::FlowOptions options;
  options.key_bits = 16;
  options.seed = 33;
  const core::FlowResult flow = core::RunSecureFlow(original, options);

  std::vector<split::Assignment> assignments;
  for (size_t threads : {1u, 2u, 8u}) {
    exec::ThreadPool::SetDefaultThreadCount(threads);
    assignments.push_back(attack::RunProximityAttack(flow.feol).assignment);
  }
  EXPECT_EQ(assignments[0], assignments[1]);
  EXPECT_EQ(assignments[0], assignments[2]);
}

// Regression for the tail-word fingerprint bug: with patterns == 1 the
// probe must fingerprint ONE lane. The circuit's key only changes the
// output for input pattern (a=1, b=0); when the single live pattern is not
// (1,0) both keys induce the same observed function, so exactly one
// distinct fingerprint must be counted. The unmasked implementation leaked
// the other 63 (dead) lanes into the fingerprint and counted two.
TEST(OracleLessProbe, TailWordLanesAreMasked) {
  Netlist nl("tail");
  const NetId a = nl.AddInput("a");
  const NetId b = nl.AddInput("b");
  const NetId k = nl.AddGate(GateOp::kKeyIn, {}, "k");
  const NetId not_b = nl.AddGate(GateOp::kInv, {b});
  const NetId a_nb = nl.AddGate(GateOp::kAnd, {a, not_b});
  const NetId flip = nl.AddGate(GateOp::kAnd, {k, a_nb});
  const NetId base = nl.AddGate(GateOp::kAnd, {a, b});
  const NetId out = nl.AddGate(GateOp::kXor, {base, flip});
  nl.AddOutput(out, "y");

  // Find a seed whose first stimulus lane is NOT (a=1, b=0), so the two key
  // values agree on the only live pattern.
  uint64_t seed = 0;
  for (uint64_t s = 1; s < 64; ++s) {
    exec::StreamRng rng(s, exec::StreamDomain::kStimulus, 0);
    const uint64_t wa = rng.NextWord();
    const uint64_t wb = rng.NextWord();
    if (!((wa & 1) == 1 && (wb & 1) == 0)) {
      seed = s;
      break;
    }
  }
  ASSERT_NE(seed, 0u);

  // Enough samples that both key values certainly occur.
  const attack::OracleLessProbe probe =
      attack::ProbeOracleLessKeySpace(nl, 32, /*patterns=*/1, seed);
  EXPECT_EQ(probe.sampled_keys, 32u);
  EXPECT_EQ(probe.distinct_functions, 1u);
}

}  // namespace
}  // namespace splitlock
