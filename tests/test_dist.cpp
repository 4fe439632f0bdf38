// Multi-process campaign sharding: deterministic shard plans, shard-table
// serialization, merge validation, and the headline contract — a merged
// N-shard campaign is bit-identical to the single-process run, and a warm
// result store serves repeat runs with zero recomputation.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "attack/engine.hpp"
#include "circuits/random_circuit.hpp"
#include "core/campaign.hpp"
#include "dist/shard.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "store/result_store.hpp"

namespace splitlock::dist {
namespace {

namespace fs = std::filesystem;

// Restores the configured default pool width when a test exits.
struct PoolWidthGuard {
  ~PoolWidthGuard() { exec::ThreadPool::SetDefaultThreadCount(0); }
};

uint64_t Count(const obs::MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.counts.find(name);
  return it == snap.counts.end() ? 0 : it->second;
}

// What the obs registry — where the store counts — counted since `before`.
obs::MetricsSnapshot Since(const obs::MetricsSnapshot& before) {
  return obs::MetricsSnapshot::Delta(before,
                                     obs::Registry::Instance().Snapshot());
}

// --- ShardPlan --------------------------------------------------------------

TEST(ShardPlan, PartitionsJobsExactlyOnce) {
  for (const uint64_t shards : {1u, 2u, 3u, 4u, 7u}) {
    std::vector<int> seen(10, 0);
    for (uint64_t index = 0; index < shards; ++index) {
      const ShardPlan plan{shards, index};
      ASSERT_TRUE(plan.Valid());
      for (const uint64_t job : plan.Select(10)) {
        ASSERT_LT(job, 10u);
        ++seen[job];
        EXPECT_TRUE(plan.Owns(job));
      }
    }
    for (const int count : seen) EXPECT_EQ(count, 1) << shards << " shards";
  }
}

TEST(ShardPlan, RoundRobinInterleaves) {
  const ShardPlan plan{3, 1};
  EXPECT_EQ(plan.Select(8), (std::vector<uint64_t>{1, 4, 7}));
  EXPECT_TRUE(plan.Select(1).empty());  // more shards than jobs
}

TEST(ShardPlan, InvalidPlansRejected) {
  EXPECT_FALSE((ShardPlan{0, 0}).Valid());
  EXPECT_FALSE((ShardPlan{2, 2}).Valid());
  EXPECT_TRUE((ShardPlan{2, 2}).Select(10).empty());
}

// --- ShardTable serialization ----------------------------------------------

ShardTable SmallTable() {
  ShardTable table;
  table.suite = "testsuite";
  table.scale = store::CanonicalDouble(1.0);
  table.flow_hash = 0xaabbccdd00112233ULL;
  table.attack_hash = 0x99887766554433ffULL;
  table.job_count = 2;
  for (uint64_t i = 0; i < 2; ++i) {
    ShardEntry entry;
    entry.job_index = i;
    entry.record.name = "job" + std::to_string(i);
    entry.record.ok = true;
    entry.record.score.hd_percent = 12.5 + static_cast<double>(i);
    table.entries.push_back(entry);
  }
  return table;
}

TEST(ShardTable, JsonRoundTripIsExact) {
  const ShardTable table = SmallTable();
  const std::string json = table.ToJson();
  const ShardTable back = ShardTable::Parse(json);
  EXPECT_EQ(back.ToJson(), json);
  EXPECT_EQ(back.suite, "testsuite");
  EXPECT_EQ(back.flow_hash, table.flow_hash);
  ASSERT_EQ(back.entries.size(), 2u);
  EXPECT_DOUBLE_EQ(back.entries[1].record.score.hd_percent, 13.5);
}

TEST(ShardTable, ParseRejectsBadInput) {
  EXPECT_THROW(ShardTable::Parse("not json"), std::runtime_error);
  EXPECT_THROW(ShardTable::Parse("{}"), std::runtime_error);
  std::string wrong_version = SmallTable().ToJson();
  const std::string needle =
      "\"schema_version\":" + std::to_string(store::kResultSchemaVersion);
  const size_t pos = wrong_version.find(needle);
  ASSERT_NE(pos, std::string::npos);
  wrong_version.replace(pos, needle.size(), "\"schema_version\":0");
  EXPECT_THROW(ShardTable::Parse(wrong_version), std::runtime_error);
}

TEST(ShardTable, ParseRejectsMalformedIntegers) {
  // Indices, counts and versions must be exact non-negative integers: a
  // truncating read would merge a table no shard wrote (and casting 1e30
  // or -1 to an integer is undefined behaviour).
  const std::string good = SmallTable().ToJson();
  const auto with = [&](const std::string& needle, const std::string& bad) {
    std::string json = good;
    const size_t pos = json.find(needle);
    EXPECT_NE(pos, std::string::npos) << needle;
    if (pos != std::string::npos) json.replace(pos, needle.size(), bad);
    return json;
  };
  EXPECT_NO_THROW(MergeShards({ShardTable::Parse(good)}));
  // The first entry's job_index, as `splitlock_cli merge` would read it.
  for (const std::string index :
       {"0.75", "-0.5", "1e30", "18446744073709551616" /* 2^64 */}) {
    const std::string json = with("\"job_index\":0", "\"job_index\":" + index);
    EXPECT_THROW(MergeShards({ShardTable::Parse(json)}), std::runtime_error)
        << index;
  }
  EXPECT_THROW(
      ShardTable::Parse(with("\"job_count\":2", "\"job_count\":6.7")),
      std::runtime_error);
  const std::string version = std::to_string(store::kResultSchemaVersion);
  EXPECT_THROW(ShardTable::Parse(with("\"schema_version\":" + version,
                                      "\"schema_version\":" + version + ".6")),
               std::runtime_error);
}

// --- Merge validation -------------------------------------------------------

TEST(MergeShards, RejectsMismatchedCampaigns) {
  ShardTable a = SmallTable();
  ShardTable b = SmallTable();
  b.flow_hash ^= 1;
  EXPECT_THROW(MergeShards({a, b}), std::runtime_error);
  b = SmallTable();
  b.scale = store::CanonicalDouble(0.5);
  EXPECT_THROW(MergeShards({a, b}), std::runtime_error);
  EXPECT_THROW(MergeShards({}), std::runtime_error);
}

TEST(MergeShards, RejectsMissingDuplicateAndOutOfRangeJobs) {
  ShardTable full = SmallTable();
  ShardTable missing = full;
  missing.entries.pop_back();
  EXPECT_THROW(MergeShards({missing}), std::runtime_error);

  ShardTable duplicated = full;
  duplicated.entries.push_back(full.entries[0]);
  EXPECT_THROW(MergeShards({duplicated}), std::runtime_error);

  ShardTable out_of_range = full;
  out_of_range.entries[1].job_index = 7;
  EXPECT_THROW(MergeShards({out_of_range}), std::runtime_error);

  EXPECT_NO_THROW(MergeShards({full}));
}

// --- End-to-end: sharded campaign == single-process campaign ----------------

core::CampaignJob TestJob(int index) {
  circuits::CircuitSpec spec;
  spec.num_inputs = 24;
  spec.num_outputs = 12;
  spec.num_gates = 380;
  spec.seed = 100 + static_cast<uint64_t>(index);
  spec.bias_cone_fraction = 0.15;

  core::CampaignJob job;
  job.name = "j" + std::to_string(index);
  job.make_netlist = [spec] { return circuits::GenerateCircuit(spec); };
  job.flow.key_bits = 16;
  job.flow.seed = 7;
  job.flow.split_layer = 4;
  job.flow.placer_moves_per_cell = 12;
  job.cache_id = "testsuite/" + job.name;
  job.cache_scale = store::CanonicalDouble(1.0);
  return job;
}

std::vector<core::CampaignJob> TestJobs() {
  std::vector<core::CampaignJob> jobs;
  for (int i = 0; i < 3; ++i) jobs.push_back(TestJob(i));
  return jobs;
}

core::CampaignOptions TestCampaignOptions(store::ResultStore* store) {
  core::CampaignOptions options;
  options.score_patterns = 512;
  options.store = store;
  return options;
}

// The CLI's sharded-suite loop, distilled: run the plan-owned subset of
// `jobs` and table the records under the campaign's identity hashes.
ShardTable RunShard(const std::vector<core::CampaignJob>& jobs,
                    const ShardPlan& plan, store::ResultStore* store) {
  ShardTable table;
  table.suite = "testsuite";
  table.scale = store::CanonicalDouble(1.0);
  table.flow_hash = core::FlowOptionsHash(jobs[0].flow);
  table.attack_hash =
      store::PortfolioHash({"proximity"}, 512, /*run_attack=*/true);
  table.job_count = jobs.size();
  table.num_shards = plan.num_shards;
  table.shard_index = plan.shard_index;
  std::vector<core::CampaignJob> owned_jobs;
  const std::vector<uint64_t> owned = plan.Select(jobs.size());
  for (const uint64_t index : owned) owned_jobs.push_back(jobs[index]);
  const std::vector<core::CampaignOutcome> outcomes =
      core::CampaignRunner(TestCampaignOptions(store)).Run(owned_jobs);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
    table.entries.push_back(ShardEntry{owned[i], outcomes[i].record});
  }
  return table;
}

TEST(ShardedCampaign, MergedShardsBitIdenticalToSingleProcessRun) {
  const std::vector<core::CampaignJob> jobs = TestJobs();

  // Reference: the whole campaign in one "process", no store.
  const ShardTable single = RunShard(jobs, ShardPlan{1, 0}, nullptr);
  const std::string golden = MergeShards({single}).ToJson();

  // Two shards, recomputed independently (cold, no store) — exactly what
  // two worker processes on two machines would do — then merged in
  // arbitrary shard order.
  const ShardTable half0 = RunShard(jobs, ShardPlan{2, 0}, nullptr);
  const ShardTable half1 = RunShard(jobs, ShardPlan{2, 1}, nullptr);
  EXPECT_EQ(MergeShards({half1, half0}).ToJson(), golden);

  // Warm persistent store: seed it from one full run, then 1- and 4-shard
  // passes must be pure store hits (zero flow/attack recomputation) and
  // still merge to the same bytes. Four shards over three jobs leaves one
  // shard empty — that must merge fine too.
  const std::string dir =
      (fs::temp_directory_path() / "splitlock_dist_test_store").string();
  fs::remove_all(dir);
  {
    const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
    store::ResultStore store(dir);
    const ShardTable seeded = RunShard(jobs, ShardPlan{1, 0}, &store);
    EXPECT_EQ(MergeShards({seeded}).ToJson(), golden);
    // One flow record plus one attack record per job.
    const obs::MetricsSnapshot delta = Since(before);
    EXPECT_EQ(Count(delta, "store.record.inserts"), 2 * jobs.size());
    EXPECT_EQ(Count(delta, "store.record.hits"), 0u);
  }
  {
    const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
    store::ResultStore store(dir);
    const ShardTable warm = RunShard(jobs, ShardPlan{1, 0}, &store);
    EXPECT_EQ(MergeShards({warm}).ToJson(), golden);
    const obs::MetricsSnapshot delta = Since(before);
    EXPECT_EQ(Count(delta, "store.record.hits"), 2 * jobs.size());  // 100%
    EXPECT_EQ(Count(delta, "store.record.misses"), 0u);
    EXPECT_EQ(Count(delta, "store.record.inserts"), 0u);  // no recompute

    std::vector<ShardTable> quarters;
    for (uint64_t i = 0; i < 4; ++i) {
      quarters.push_back(RunShard(jobs, ShardPlan{4, i}, &store));
    }
    EXPECT_TRUE(quarters[3].entries.empty());
    EXPECT_EQ(MergeShards(quarters).ToJson(), golden);
  }
  fs::remove_all(dir);
}

TEST(ShardedCampaign, ForceComputeBypassesWarmStoreLookup) {
  const std::string dir =
      (fs::temp_directory_path() / "splitlock_dist_force_store").string();
  fs::remove_all(dir);
  store::ResultStore store(dir);
  const core::CampaignRunner runner(TestCampaignOptions(&store));

  core::CampaignJob job = TestJob(0);
  const core::CampaignOutcome computed = runner.RunOne(job);
  ASSERT_TRUE(computed.ok) << computed.error;
  EXPECT_FALSE(computed.from_store);
  ASSERT_NE(computed.flow.physical.netlist, nullptr);

  // Warm hit: record only, no flow artifacts.
  const core::CampaignOutcome hit = runner.RunOne(job);
  ASSERT_TRUE(hit.ok) << hit.error;
  EXPECT_TRUE(hit.from_store);
  EXPECT_EQ(hit.flow.physical.netlist, nullptr);
  EXPECT_EQ(hit.record.ToJson(false), computed.record.ToJson(false));
  EXPECT_DOUBLE_EQ(hit.score.functional.hd_percent,
                   computed.score.functional.hd_percent);

  // force_compute: consumers that need the in-memory FlowResult always
  // get one, warm store or not — but the record is still (re)inserted.
  job.force_compute = true;
  const core::CampaignOutcome forced = runner.RunOne(job);
  ASSERT_TRUE(forced.ok) << forced.error;
  EXPECT_FALSE(forced.from_store);
  EXPECT_NE(forced.flow.physical.netlist, nullptr);
  EXPECT_EQ(forced.record.ToJson(false), computed.record.ToJson(false));
  fs::remove_all(dir);
}

TEST(ShardedCampaign, FailedOutcomesAreNeverPersistedOrServed) {
  const std::string dir =
      (fs::temp_directory_path() / "splitlock_dist_failed_store").string();
  fs::remove_all(dir);
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  store::ResultStore store(dir);
  const core::CampaignRunner runner(TestCampaignOptions(&store));

  // A transiently failing job must not poison the cache for its key.
  core::CampaignJob bad = TestJob(0);
  bad.make_netlist = []() -> Netlist {
    throw std::runtime_error("transient failure");
  };
  const core::CampaignOutcome failed = runner.RunOne(bad);
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(Count(Since(before), "store.record.inserts"), 0u);

  // A failed flow record planted by a foreign/stale store is retried, not
  // replayed — and the successful recompute overwrites it.
  const core::CampaignJob good = TestJob(0);
  store::FlowRecord poison;
  poison.name = good.name;
  poison.ok = false;
  poison.error = "stale failure";
  ASSERT_TRUE(store.InsertFlow(runner.KeyFor(good), poison));
  const core::CampaignOutcome recomputed = runner.RunOne(good);
  EXPECT_TRUE(recomputed.ok) << recomputed.error;
  EXPECT_FALSE(recomputed.from_store);
  const auto healed = store.LookupFlow(runner.KeyFor(good));
  ASSERT_TRUE(healed.has_value());
  EXPECT_TRUE(healed->ok);
  fs::remove_all(dir);
}

TEST(ShardedCampaign, PartialHitRunsOnlyMissingEnginesBitExactly) {
  PoolWidthGuard guard;

  // Cold, storeless reference for the superset portfolio.
  core::CampaignJob superset = TestJob(0);
  superset.attacks = {attack::AttackConfig{.engine = "sat"},
                      attack::AttackConfig{.engine = "proximity"}};
  const core::CampaignOutcome golden =
      core::CampaignRunner(TestCampaignOptions(nullptr)).RunOne(superset);
  ASSERT_TRUE(golden.ok) << golden.error;

  const std::string dir =
      (fs::temp_directory_path() / "splitlock_dist_partial_store").string();
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    exec::ThreadPool::SetDefaultThreadCount(threads);
    fs::remove_all(dir);
    const obs::MetricsSnapshot cold = obs::Registry::Instance().Snapshot();
    store::ResultStore store(dir);
    const core::CampaignRunner runner(TestCampaignOptions(&store));

    // Warm the subset portfolio: the flow record, the flow artifact, and
    // the sat attack record land in the store.
    core::CampaignJob subset = TestJob(0);
    subset.attacks = {attack::AttackConfig{.engine = "sat"}};
    const core::CampaignOutcome warm = runner.RunOne(subset);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_EQ(Count(Since(cold), "store.record.inserts"), 2u);  // flow + sat

    // Superset run: flow and sat records hit; only proximity is cold.
    const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
    const core::CampaignOutcome partial = runner.RunOne(superset);
    const obs::MetricsSnapshot delta = Since(before);
    ASSERT_TRUE(partial.ok) << partial.error;
    EXPECT_FALSE(partial.from_store);  // one cold engine ⇒ computed path

    EXPECT_EQ(Count(delta, "store.record.hits"), 2u)
        << "flow + sat records should both hit";
    EXPECT_EQ(Count(delta, "store.record.misses"), 1u);   // proximity
    EXPECT_EQ(Count(delta, "store.record.inserts"), 1u);  // proximity only
    EXPECT_EQ(Count(delta, "attack.engine.runs"), 1u)
        << "only the missing engine may run";
    EXPECT_EQ(Count(delta, "attack.sat.rounds"), 0u);  // sat never re-ran
    EXPECT_EQ(partial.flow.times.place_s, 0.0);  // flow replayed, not re-run
    ASSERT_EQ(partial.attacks.size(), 1u);  // only the fresh engine's report
    EXPECT_EQ(partial.attacks[0].engine, "proximity");

    // The assembled record is byte-identical to the cold superset run.
    EXPECT_EQ(partial.record.ToJson(false), golden.record.ToJson(false));

    // And the partial run published the missing piece: the next superset
    // run is a pure full hit with the same bytes.
    const core::CampaignOutcome full = runner.RunOne(superset);
    ASSERT_TRUE(full.ok) << full.error;
    EXPECT_TRUE(full.from_store);
    EXPECT_EQ(full.record.ToJson(false), golden.record.ToJson(false));
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace splitlock::dist
