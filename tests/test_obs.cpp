// The observability layer: registry semantics, histogram bucketing, trace
// span export, and — most importantly — the determinism contracts the
// instrumentation must keep: count-class metrics bit-identical at any
// thread count, canonical records byte-identical with tracing on or off,
// and stage timings that sum to no more than the job's total.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/engine.hpp"
#include "circuits/random_circuit.hpp"
#include "core/campaign.hpp"
#include "core/flow.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/result_store.hpp"
#include "util/json.hpp"

namespace splitlock::obs {
namespace {

namespace fs = std::filesystem;

// --- Registry ---------------------------------------------------------------

TEST(Registry, SnapshotIsNameOrderedAndClassSegregated) {
  Registry reg;
  // Registered deliberately out of name order; snapshots sort by name.
  Counter* b = reg.RegisterCounter("test.b.count");
  Counter* a = reg.RegisterCounter("test.a.count");
  Counter* s = reg.RegisterCounter("test.c.sched", MetricClass::kSched);
  Gauge* g = reg.RegisterGauge("test.d.gauge");
  TimeMetric* t = reg.RegisterTime("test.e.time");
  Histogram* h = reg.RegisterHistogram("test.f.hist", {4, 16});

  a->Add(1);
  b->Add(2);
  s->Add(3);
  g->Set(9);
  g->Set(5);  // high-water stays 9
  t->AddSeconds(0.25);
  h->Observe(10);

  const MetricsSnapshot snap = reg.Snapshot();
  // kCount counters only in `counts`, in name order.
  std::vector<std::string> count_names;
  for (const auto& [name, value] : snap.counts) count_names.push_back(name);
  EXPECT_EQ(count_names,
            (std::vector<std::string>{"test.a.count", "test.b.count"}));
  EXPECT_EQ(snap.counts.at("test.a.count"), 1u);
  EXPECT_EQ(snap.counts.at("test.b.count"), 2u);
  // Sched section: sched-class counters plus gauge high-water marks.
  EXPECT_EQ(snap.sched.at("test.c.sched"), 3u);
  EXPECT_EQ(snap.sched.at("test.d.gauge"), 9u);
  EXPECT_EQ(snap.counts.count("test.c.sched"), 0u);
  // Times segregated from counts entirely.
  EXPECT_NEAR(snap.times.at("test.e.time"), 0.25, 1e-9);
  EXPECT_EQ(snap.counts.count("test.e.time"), 0u);
  // Histogram rides the deterministic section.
  ASSERT_EQ(snap.histograms.count("test.f.hist"), 1u);
  EXPECT_EQ(snap.histograms.at("test.f.hist").total, 1u);

  // CountsJson covers only the deterministic sections; ToJson adds the
  // rest. Name order makes both strings reproducible.
  const std::string counts_json = snap.CountsJson();
  EXPECT_NE(counts_json.find("\"test.a.count\":1"), std::string::npos);
  EXPECT_EQ(counts_json.find("test.c.sched"), std::string::npos);
  EXPECT_EQ(counts_json.find("test.e.time"), std::string::npos);
  const std::string full_json = snap.ToJson();
  EXPECT_NE(full_json.find("\"sched\""), std::string::npos);
  EXPECT_NE(full_json.find("\"times\""), std::string::npos);
  EXPECT_TRUE(util::ParseJson(full_json).has_value());
  EXPECT_TRUE(util::ParseJson(counts_json).has_value());
}

TEST(Registry, DuplicateRegistrationThrows) {
  Registry reg;
  // Non-literal names keep the lint obs-metric-once collector (which
  // audits literal call sites against the process-wide registry) out of
  // this deliberately-duplicating test.
  const std::string name = "test.dup.metric";
  reg.RegisterCounter(name);
  EXPECT_THROW(reg.RegisterCounter(name), std::logic_error);
  // Cross-kind duplicates are rejected too.
  EXPECT_THROW(reg.RegisterGauge(name), std::logic_error);
  EXPECT_THROW(reg.RegisterHistogram(name, {1, 2}), std::logic_error);
  EXPECT_THROW(reg.RegisterTime(name), std::logic_error);
}

// --- Histogram --------------------------------------------------------------

TEST(HistogramTest, BucketEdgesAreInclusiveWithOverflow) {
  Histogram h({2, 4, 8});
  for (const uint64_t v : {1, 2, 3, 4, 8, 9}) h.Observe(v);
  // v <= 2 -> bucket 0; v <= 4 -> bucket 1; v <= 8 -> bucket 2; else
  // overflow.
  EXPECT_EQ(h.BucketCounts(), (std::vector<uint64_t>{2, 2, 1, 1}));
  EXPECT_EQ(h.Total(), 6u);
  EXPECT_EQ(h.Sum(), 27u);
  h.ObserveN(3, 10);
  EXPECT_EQ(h.BucketCounts(), (std::vector<uint64_t>{2, 12, 1, 1}));
  EXPECT_EQ(h.Total(), 16u);
  EXPECT_EQ(h.Sum(), 57u);
}

TEST(HistogramTest, Pow2EdgesSpanLoToHi) {
  EXPECT_EQ(Pow2Edges(1, 8), (std::vector<uint64_t>{1, 2, 4, 8}));
  // hi lands between powers: hi itself becomes the final edge.
  EXPECT_EQ(Pow2Edges(64, 100), (std::vector<uint64_t>{64, 100}));
  EXPECT_EQ(Pow2Edges(16, 16), (std::vector<uint64_t>{16}));
}

TEST(MetricsSnapshotTest, DeltaSubtractsPerName) {
  Registry reg;
  Counter* a = reg.RegisterCounter("test.delta.a");
  Histogram* h = reg.RegisterHistogram("test.delta.h", {4});
  a->Add(3);
  h->Observe(2);
  const MetricsSnapshot before = reg.Snapshot();
  a->Add(5);
  h->Observe(10);
  const MetricsSnapshot after = reg.Snapshot();
  const MetricsSnapshot delta = MetricsSnapshot::Delta(before, after);
  EXPECT_EQ(delta.counts.at("test.delta.a"), 5u);
  EXPECT_EQ(delta.histograms.at("test.delta.h").total, 1u);
  EXPECT_EQ(delta.histograms.at("test.delta.h").buckets,
            (std::vector<uint64_t>{0, 1}));
}

TEST(MetricsSnapshotTest, FlatCountsJsonFiltersByPrefix) {
  Registry reg;
  // Local Registry, but the obs-metric-once lint audit is lexical and
  // cross-file: keep these literals distinct from any real registration.
  reg.RegisterCounter("store.test.hits")->Add(2);
  reg.RegisterCounter("exec.pool.test_only")->Add(7);
  reg.RegisterHistogram("store.test.bytes_read", {64})->Observe(10);
  const std::string flat = reg.Snapshot().FlatCountsJson("store.");
  EXPECT_NE(flat.find("\"store.test.hits\":2"), std::string::npos);
  EXPECT_NE(flat.find("\"store.test.bytes_read.total\":1"),
            std::string::npos);
  EXPECT_NE(flat.find("\"store.test.bytes_read.sum\":10"),
            std::string::npos);
  EXPECT_EQ(flat.find("exec.pool"), std::string::npos);
  EXPECT_TRUE(util::ParseJson(flat).has_value());
}

// --- Trace export -----------------------------------------------------------

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Trace, ExportIsWellFormedNestedAndThreadAttributed) {
  const std::string path =
      (fs::temp_directory_path() / "splitlock_obs_trace_test.json").string();
  Tracer::Instance().RegisterCurrentThread("main");
  Tracer::Instance().Start(path);
  {
    Span outer("test.outer");
    {
      Span inner("test.inner", 7);
    }
  }
  // Pool work so worker tracks and exec.task spans appear.
  std::vector<uint64_t> sink(256, 0);
  exec::ParallelFor(sink.size(), 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) sink[i] = i * i;
  });
  // The caller may have run every chunk itself, leaving the helper tasks
  // queued. Replacing the pool runs them and joins the workers, so every
  // exec.task span is closed before the export.
  exec::ThreadPool::SetDefaultThreadCount(0);
  ASSERT_TRUE(Tracer::Instance().ExportAndStop());

  const std::optional<util::JsonValue> doc =
      util::ParseJson(ReadWholeFile(path));
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->IsObject());
  EXPECT_EQ(doc->GetString("displayTimeUnit", ""), "ms");
  const util::JsonValue* events = doc->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->IsArray());

  double main_tid = -1;
  bool saw_exec_task = false;
  const util::JsonValue* outer_ev = nullptr;
  const util::JsonValue* inner_ev = nullptr;
  for (const util::JsonValue& e : events->array) {
    const std::string ph = e.GetString("ph", "");
    if (ph == "M") {
      const util::JsonValue* args = e.Get("args");
      if (args != nullptr && args->GetString("name", "") == "main") {
        main_tid = e.GetNumber("tid", -1);
      }
      continue;
    }
    ASSERT_EQ(ph, "X");  // only metadata + complete events are emitted
    const std::string name = e.GetString("name", "");
    if (name == "exec.task") saw_exec_task = true;
    if (name == "test.outer") outer_ev = &e;
    if (name == "test.inner") inner_ev = &e;
  }
  ASSERT_GE(main_tid, 0.0);
  EXPECT_TRUE(saw_exec_task);
  ASSERT_NE(outer_ev, nullptr);
  ASSERT_NE(inner_ev, nullptr);
  // Both spans ran on the main thread's track...
  EXPECT_EQ(outer_ev->GetNumber("tid", -1), main_tid);
  EXPECT_EQ(inner_ev->GetNumber("tid", -2), main_tid);
  // ...and nest by (ts, dur) containment, which is how Chrome renders
  // parent/child slices.
  const double o_ts = outer_ev->GetNumber("ts", 0);
  const double o_end = o_ts + outer_ev->GetNumber("dur", 0);
  const double i_ts = inner_ev->GetNumber("ts", 0);
  const double i_end = i_ts + inner_ev->GetNumber("dur", 0);
  EXPECT_GE(i_ts, o_ts);
  EXPECT_LE(i_end, o_end);
  // The integer span argument rides through as args.v.
  const util::JsonValue* args = inner_ev->Get("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->GetNumber("v", -1), 7.0);
  fs::remove(path);
}

TEST(Trace, DisabledSpansRecordNothingAndExportFails) {
  // Never started (or already stopped by a previous test): spans are
  // inert and ExportAndStop reports there is nothing to export.
  {
    Span span("test.should.not.appear");
  }
  EXPECT_FALSE(Tracer::Instance().ExportAndStop());
}

// --- Determinism contracts --------------------------------------------------

Netlist TestCircuit(uint64_t seed, size_t gates) {
  circuits::CircuitSpec spec;
  spec.num_inputs = 24;
  spec.num_outputs = 12;
  spec.num_gates = gates;
  spec.seed = seed;
  spec.bias_cone_fraction = 0.15;
  return circuits::GenerateCircuit(spec);
}

core::FlowOptions SmallOptions(uint64_t seed) {
  core::FlowOptions opts;
  opts.key_bits = 16;
  opts.seed = seed;
  opts.split_layer = 4;
  opts.placer_moves_per_cell = 15;
  return opts;
}

// A workload touching several instrumented subsystems: secure flow
// (exec pool, flow stages, lock counters) and a SAT attack (rounds, DIPs,
// oracle queries, conflicts).
// Returns the deterministic-section delta this workload caused.
std::string CountDeltaJson(size_t threads) {
  exec::ThreadPool::SetDefaultThreadCount(threads);
  const MetricsSnapshot before = Registry::Instance().Snapshot();

  const Netlist original = TestCircuit(11, 260);
  const core::FlowResult flow =
      core::RunSecureFlow(original, SmallOptions(11));
  attack::AttackContext ctx;
  ctx.feol = &flow.feol;
  ctx.locked = &flow.lock.locked;
  ctx.oracle = &original;
  ctx.correct_key = flow.lock.key;
  ctx.seed = 11;
  attack::RunAttack(ctx, "sat");

  const MetricsSnapshot after = Registry::Instance().Snapshot();
  return MetricsSnapshot::Delta(before, after).CountsJson();
}

TEST(Determinism, CountMetricsBitIdenticalAcrossThreadCounts) {
  const std::string at1 = CountDeltaJson(1);
  const std::string at2 = CountDeltaJson(2);
  const std::string at8 = CountDeltaJson(8);
  exec::ThreadPool::SetDefaultThreadCount(0);  // restore configured default
  EXPECT_EQ(at1, at2);
  EXPECT_EQ(at1, at8);
  // Sanity: the workload actually moved the deterministic counters.
  EXPECT_NE(at1.find("exec.pool.tasks_run"), std::string::npos);
  EXPECT_NE(at1.find("attack.sat.rounds"), std::string::npos);
}

// Fresh per-test store directory under the system temp dir.
std::string FreshStoreDir(const std::string& tag) {
  const std::string dir =
      (fs::temp_directory_path() / ("splitlock_obs_test_" + tag)).string();
  fs::remove_all(dir);
  return dir;
}

core::CampaignJob SmallJob(uint64_t seed) {
  core::CampaignJob job;
  job.name = "obs-smoke";
  job.make_netlist = [seed] { return TestCircuit(seed, 260); };
  job.flow = SmallOptions(seed);
  job.attacks = {attack::AttackConfig{.engine = "proximity"}};
  job.cache_id = "test/obs-smoke";
  job.cache_scale = "1";
  return job;
}

TEST(StageTimes, StageSumWithinTotalColdAndWarm) {
  const std::string dir = FreshStoreDir("stage_times");
  store::ResultStore store(dir);
  core::CampaignOptions options;
  options.score_patterns = 256;
  options.store = &store;
  const core::CampaignRunner runner(options);

  // Cold: computes, saves artifacts. Stage intervals are non-overlapping
  // sub-intervals of the job, so their sum can never exceed the total.
  const core::CampaignOutcome cold = runner.RunOne(SmallJob(21));
  ASSERT_TRUE(cold.ok) << cold.error;
  ASSERT_FALSE(cold.from_store);
  EXPECT_GT(cold.flow.times.total_s, 0.0);
  EXPECT_GT(cold.flow.times.artifact_save_s, 0.0);
  EXPECT_LE(cold.flow.times.StageSumS(), cold.flow.times.total_s + 1e-6);

  // Warm: force_compute skips the record shortcut but replays from the
  // artifact tier. artifact_load_s covers lookup + decode only; the
  // replayed analysis reports under sta_s/analyze_s — double-reporting
  // the warm window used to break this inequality.
  core::CampaignJob warm_job = SmallJob(21);
  warm_job.force_compute = true;
  const core::CampaignOutcome warm = runner.RunOne(warm_job);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_GT(warm.flow.times.artifact_load_s, 0.0);
  EXPECT_EQ(warm.flow.times.place_s, 0.0);  // replayed, not recomputed
  EXPECT_LE(warm.flow.times.StageSumS(), warm.flow.times.total_s + 1e-6);

  // The two paths agree on the canonical record bit-for-bit.
  EXPECT_EQ(cold.record.ToJson(false), warm.record.ToJson(false));
  fs::remove_all(dir);
}

TEST(Determinism, TracingDoesNotPerturbCanonicalRecords) {
  const core::CampaignRunner runner(
      core::CampaignOptions{.score_patterns = 256});
  core::CampaignJob job = SmallJob(31);
  job.cache_id.clear();  // no store: both runs compute

  const core::CampaignOutcome untraced = runner.RunOne(job);
  ASSERT_TRUE(untraced.ok) << untraced.error;

  const std::string path =
      (fs::temp_directory_path() / "splitlock_obs_campaign_trace.json")
          .string();
  Tracer::Instance().Start(path);
  const core::CampaignOutcome traced = runner.RunOne(job);
  ASSERT_TRUE(Tracer::Instance().ExportAndStop());
  ASSERT_TRUE(traced.ok) << traced.error;

  // Collection must never alter results: byte-identical canonical records.
  EXPECT_EQ(untraced.record.ToJson(false), traced.record.ToJson(false));

  // And the trace of the traced run carries the campaign + flow spans.
  const std::optional<util::JsonValue> doc =
      util::ParseJson(ReadWholeFile(path));
  ASSERT_TRUE(doc.has_value());
  std::set<std::string> names;
  const util::JsonValue* events = doc->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  for (const util::JsonValue& e : events->array) {
    if (e.GetString("ph", "") == "X") names.insert(e.GetString("name", ""));
  }
  EXPECT_TRUE(names.count("campaign.job"));
  EXPECT_TRUE(names.count("flow.lock"));
  EXPECT_TRUE(names.count("flow.place"));
  EXPECT_TRUE(names.count("flow.route"));
  EXPECT_TRUE(names.count("flow.lift"));
  EXPECT_TRUE(names.count("flow.sta"));
  EXPECT_TRUE(names.count("attack.engine"));
  EXPECT_TRUE(names.count("attack.score"));
  fs::remove(path);
}

}  // namespace
}  // namespace splitlock::obs
