// The artifact tier: binary codec round-trips (byte-identical re-encode),
// envelope corruption tolerance (truncated / bit-flipped / wrong-version /
// mis-keyed blobs read as misses, never crash or serve stale state), and
// the campaign warm-start path (a second run replays the stored artifacts,
// skips place/route/lift, and reproduces the cold run bit-exactly).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "circuits/random_circuit.hpp"
#include "core/campaign.hpp"
#include "core/flow.hpp"
#include "lock/atpg_lock.hpp"
#include "lock/key.hpp"
#include "phys/placer.hpp"
#include "phys/router.hpp"
#include "obs/metrics.hpp"
#include "store/artifact_io.hpp"
#include "store/result_store.hpp"

namespace splitlock::store {
namespace {

namespace fs = std::filesystem;

uint64_t Count(const obs::MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.counts.find(name);
  return it == snap.counts.end() ? 0 : it->second;
}

// Summed values of a byte histogram (the tier's byte total).
uint64_t Bytes(const obs::MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? 0 : it->second.sum;
}

// What the obs registry — where the store counts — counted since `before`.
obs::MetricsSnapshot Since(const obs::MetricsSnapshot& before) {
  return obs::MetricsSnapshot::Delta(before,
                                     obs::Registry::Instance().Snapshot());
}

Netlist TestCircuit(uint64_t seed, size_t gates = 400) {
  circuits::CircuitSpec spec;
  spec.num_inputs = 20;
  spec.num_outputs = 10;
  spec.num_gates = gates;
  spec.seed = seed;
  return circuits::GenerateCircuit(spec);
}

// A locked+realized netlist: TIE cells, key-gates, flagged key-nets — the
// richest gate/net shapes the codec must carry.
Netlist LockedRealized(uint64_t seed) {
  const Netlist original = TestCircuit(seed);
  lock::AtpgLockOptions opts;
  opts.key_bits = 16;
  opts.seed = seed;
  opts.verify_lec = false;
  opts.require_area_gain = false;
  const lock::AtpgLockResult r = lock::LockWithAtpg(original, opts);
  return lock::RealizeKeyAsTies(r.locked, r.key);
}

// Small-but-complete flow options: fast enough for a unit test, still
// exercising lock -> place -> route -> lift -> analyze -> split.
core::FlowOptions SmallFlowOptions() {
  core::FlowOptions options;
  options.key_bits = 16;
  options.seed = 7;
  options.placer_moves_per_cell = 10;
  options.power_patterns = 256;
  options.lock.verify_lec = false;
  options.lock.require_area_gain = false;
  return options;
}

StoreKey SampleKey() {
  StoreKey key;
  key.suite = "test/toy";
  key.scale = CanonicalDouble(1.0);
  key.flow_hash = 0x0123456789abcdefULL;
  return key;
}

// Fresh per-test store directory under the system temp dir.
class ArtifactStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("splitlock_artifact_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string ArtifactPath(const StoreKey& key) const {
    return dir_ + "/" + key.ArtifactFilename();
  }
  std::string ReadFile(const std::string& path) const {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }
  void WriteFile(const std::string& path, const std::string& bytes) const {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  }

  std::string dir_;
};

// --- Codec round-trips ------------------------------------------------------

TEST(ArtifactCodec, NetlistRoundTripIsByteIdentical) {
  const Netlist nl = LockedRealized(1);
  ArtifactWriter w;
  EncodeNetlist(w, nl);
  const std::string bytes = w.bytes();

  ArtifactReader r(bytes);
  std::optional<Netlist> back = DecodeNetlist(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back->name(), nl.name());
  EXPECT_EQ(back->NumGates(), nl.NumGates());
  EXPECT_EQ(back->NumNets(), nl.NumNets());
  EXPECT_EQ(back->NumLogicGates(), nl.NumLogicGates());
  EXPECT_TRUE(back->Validate().empty());

  // serialize(deserialize(x)) must be byte-identical: the decoder walked
  // every field the encoder wrote and nothing else.
  ArtifactWriter w2;
  EncodeNetlist(w2, *back);
  EXPECT_EQ(w2.bytes(), bytes);
}

TEST(ArtifactCodec, LayoutRoundTripIsByteIdentical) {
  const Netlist nl = LockedRealized(2);
  phys::PlacerOptions popts;
  popts.seed = 22;
  popts.moves_per_cell = 10;
  phys::Layout layout = phys::PlaceDesign(nl, phys::Tech::Nangate45Like(), popts);
  phys::RouterOptions ropts;
  ropts.seed = 22;
  phys::RouteDesign(layout, ropts);

  ArtifactWriter w;
  EncodeLayout(w, layout);
  const std::string bytes = w.bytes();

  ArtifactReader r(bytes);
  std::optional<phys::Layout> back = DecodeLayout(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back->netlist, nullptr);  // pointer is never serialized
  back->netlist = &nl;
  EXPECT_EQ(phys::LayoutFingerprint(*back), phys::LayoutFingerprint(layout));

  ArtifactWriter w2;
  EncodeLayout(w2, *back);
  EXPECT_EQ(w2.bytes(), bytes);
}

TEST(ArtifactCodec, TruncatedAndGarbageBytesDecodeToNullopt) {
  const Netlist nl = LockedRealized(3);
  ArtifactWriter w;
  EncodeNetlist(w, nl);
  const std::string bytes = w.bytes();
  // Every proper prefix must fail cleanly (no crash, no partial netlist).
  for (const size_t cut : {size_t{0}, size_t{5}, bytes.size() / 2,
                           bytes.size() - 1}) {
    ArtifactReader r(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(DecodeNetlist(r).has_value()) << "prefix " << cut;
  }
  // A corrupt element count must not drive a giant reserve/loop.
  const std::string garbage =
      std::string("\x04\x00\x00\x00\x00\x00\x00\x00"
                  "name",
                  12) +
      std::string(8, '\xff');  // gate count = 2^64-1
  ArtifactReader r(garbage);
  EXPECT_FALSE(DecodeNetlist(r).has_value());
}

TEST(ArtifactCodec, FlowArtifactReplayMatchesComputedFlow) {
  const Netlist original = TestCircuit(4);
  const core::FlowOptions options = SmallFlowOptions();
  const core::FlowResult cold = core::RunSecureFlow(original, options);

  const std::string payload =
      EncodeFlowArtifact(cold.lock, *cold.physical.netlist,
                         *cold.physical.layout, cold.physical.lift);
  std::optional<FlowArtifact> art = DecodeFlowArtifact(payload);
  ASSERT_TRUE(art.has_value());
  ASSERT_NE(art->netlist, nullptr);
  ASSERT_NE(art->layout, nullptr);
  EXPECT_EQ(art->layout->netlist, art->netlist.get());

  // Round trip through the decoded artifact is byte-identical.
  EXPECT_EQ(EncodeFlowArtifact(art->lock, *art->netlist, *art->layout,
                               art->lift),
            payload);

  const core::FlowResult warm = core::ReplayFlowFromArtifacts(
      std::move(art->lock), std::move(art->netlist), std::move(art->layout),
      art->lift, options);

  // The replay skips place/route/lift (the warm-start contract)...
  EXPECT_EQ(warm.times.lock_s, 0.0);
  EXPECT_EQ(warm.times.place_s, 0.0);
  EXPECT_EQ(warm.times.route_s, 0.0);
  EXPECT_EQ(warm.times.lift_s, 0.0);

  // ...and reproduces the computed flow bit-exactly.
  EXPECT_EQ(warm.lock.key, cold.lock.key);
  EXPECT_EQ(phys::LayoutFingerprint(*warm.physical.layout),
            phys::LayoutFingerprint(*cold.physical.layout));
  EXPECT_EQ(warm.physical.cost.die_area_um2, cold.physical.cost.die_area_um2);
  EXPECT_EQ(warm.physical.cost.power_uw, cold.physical.cost.power_uw);
  EXPECT_EQ(warm.physical.cost.critical_path_ps,
            cold.physical.cost.critical_path_ps);
  ASSERT_EQ(warm.physical.timing.net_arrival_ps.size(),
            cold.physical.timing.net_arrival_ps.size());
  for (size_t n = 0; n < warm.physical.timing.net_arrival_ps.size(); ++n) {
    EXPECT_EQ(warm.physical.timing.net_arrival_ps[n],
              cold.physical.timing.net_arrival_ps[n])
        << "net " << n;
  }
  EXPECT_EQ(warm.feol.sink_stubs.size(), cold.feol.sink_stubs.size());
  EXPECT_EQ(warm.physical.lift.key_nets_lifted,
            cold.physical.lift.key_nets_lifted);
}

// --- Store envelope ---------------------------------------------------------

TEST_F(ArtifactStoreTest, InsertThenLookupRoundTrips) {
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  ResultStore store(dir_);
  const StoreKey key = SampleKey();
  // Payloads are opaque to the envelope; embedded NULs must survive.
  const std::string payload("binary\0blob\xff payload", 20);

  EXPECT_FALSE(store.LookupArtifact(key).has_value());  // cold
  EXPECT_TRUE(store.InsertArtifact(key, payload));
  const auto hit = store.LookupArtifact(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, payload);

  const obs::MetricsSnapshot delta = Since(before);
  EXPECT_EQ(Count(delta, "store.artifact.misses"), 1u);
  EXPECT_EQ(Count(delta, "store.artifact.inserts"), 1u);
  EXPECT_EQ(Count(delta, "store.artifact.hits"), 1u);
  EXPECT_EQ(Count(delta, "store.artifact.corrupt"), 0u);
  // I/O counters measure whole envelope files, so both exceed the payload.
  EXPECT_GT(Bytes(delta, "store.artifact.bytes_read"), payload.size());
  EXPECT_GT(Bytes(delta, "store.artifact.bytes_written"), payload.size());

  // A second store over the same directory sees the blob (persistence).
  ResultStore reopened(dir_);
  EXPECT_TRUE(reopened.LookupArtifact(key).has_value());

  // The flow hash partitions the tier. (Attack identities don't exist at
  // the flow-level key at all since the two-level split — every portfolio
  // over the same (suite, scale, flow) shares this blob structurally.)
  StoreKey other_flow = key;
  other_flow.flow_hash ^= 1;
  EXPECT_FALSE(store.LookupArtifact(other_flow).has_value());
}

TEST_F(ArtifactStoreTest, TruncatedBlobReadsAsCorruptMiss) {
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  ResultStore store(dir_);
  const StoreKey key = SampleKey();
  EXPECT_TRUE(store.InsertArtifact(key, "the artifact payload"));
  const std::string bytes = ReadFile(ArtifactPath(key));
  ASSERT_GT(bytes.size(), 16u);
  WriteFile(ArtifactPath(key), bytes.substr(0, 16));  // crashed writer shape

  EXPECT_FALSE(store.LookupArtifact(key).has_value());
  EXPECT_EQ(Count(Since(before), "store.artifact.corrupt"), 1u);
  // The store recovers by overwriting.
  EXPECT_TRUE(store.InsertArtifact(key, "the artifact payload"));
  EXPECT_TRUE(store.LookupArtifact(key).has_value());
}

TEST_F(ArtifactStoreTest, BitFlippedPayloadFailsChecksum) {
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  ResultStore store(dir_);
  const StoreKey key = SampleKey();
  EXPECT_TRUE(store.InsertArtifact(key, "checksummed content"));
  std::string bytes = ReadFile(ArtifactPath(key));
  bytes.back() ^= 0x01;  // last byte is inside the payload
  WriteFile(ArtifactPath(key), bytes);

  EXPECT_FALSE(store.LookupArtifact(key).has_value());
  EXPECT_EQ(Count(Since(before), "store.artifact.corrupt"), 1u);
}

TEST_F(ArtifactStoreTest, SchemaVersionMismatchReadsAsMiss) {
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  ResultStore store(dir_);
  const StoreKey key = SampleKey();
  EXPECT_TRUE(store.InsertArtifact(key, "versioned content"));
  std::string bytes = ReadFile(ArtifactPath(key));
  // Envelope layout: magic u32 at [0,4), schema version u32 at [4,8).
  ASSERT_GT(bytes.size(), 8u);
  bytes[4] = static_cast<char>(bytes[4] ^ 0x7f);
  WriteFile(ArtifactPath(key), bytes);

  EXPECT_FALSE(store.LookupArtifact(key).has_value());
  EXPECT_EQ(Count(Since(before), "store.artifact.corrupt"), 1u);
}

TEST_F(ArtifactStoreTest, KeyEchoMismatchReadsAsCorrupt) {
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  ResultStore store(dir_);
  const StoreKey key = SampleKey();
  EXPECT_TRUE(store.InsertArtifact(key, "keyed content"));
  // Blob copied/renamed under a different key: must not be served.
  StoreKey other = key;
  other.flow_hash ^= 0xff;
  fs::copy_file(ArtifactPath(key), ArtifactPath(other));

  EXPECT_FALSE(store.LookupArtifact(other).has_value());
  EXPECT_EQ(Count(Since(before), "store.artifact.corrupt"), 1u);
  // The original is untouched.
  EXPECT_TRUE(store.LookupArtifact(key).has_value());
}

TEST_F(ArtifactStoreTest, NoteArtifactCorruptReclassifiesHit) {
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  ResultStore store(dir_);
  const StoreKey key = SampleKey();
  EXPECT_TRUE(store.InsertArtifact(key, "envelope ok, payload undecodable"));
  ASSERT_TRUE(store.LookupArtifact(key).has_value());
  EXPECT_EQ(Count(Since(before), "store.artifact.hits"), 1u);

  store.NoteArtifactCorrupt();
  const obs::MetricsSnapshot delta = Since(before);
  EXPECT_EQ(Count(delta, "store.artifact.hits"), 0u);
  EXPECT_EQ(Count(delta, "store.artifact.misses"), 1u);
  EXPECT_EQ(Count(delta, "store.artifact.corrupt"), 1u);
}

// --- Artifact GC ------------------------------------------------------------

TEST_F(ArtifactStoreTest, GcRespectsBudgetAndNeverTouchesRecords) {
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  ResultStore store(dir_);
  StoreKey key = SampleKey();
  // Four blobs of ~equal size plus a record file that must survive.
  for (uint64_t i = 0; i < 4; ++i) {
    key.flow_hash = i;
    EXPECT_TRUE(store.InsertArtifact(key, std::string(1000, 'a' + static_cast<char>(i))));
  }
  FlowRecord record;
  record.name = "toy";
  record.ok = true;
  EXPECT_TRUE(store.InsertFlow(key, record));

  uint64_t blob_bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".art") {
      blob_bytes += static_cast<uint64_t>(entry.file_size());
    }
  }
  const uint64_t per_blob = blob_bytes / 4;

  // Budget for two blobs: exactly two must go.
  const GcResult gc = store.CollectArtifactGarbage(2 * per_blob);
  EXPECT_EQ(gc.scanned_blobs, 4u);
  EXPECT_EQ(gc.scanned_bytes, blob_bytes);
  EXPECT_EQ(gc.evicted_blobs, 2u);
  EXPECT_EQ(gc.evicted_bytes, 2 * per_blob);
  EXPECT_EQ(gc.errors, 0u);

  size_t art = 0, json = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".art") ++art;
    if (entry.path().extension() == ".json") ++json;
  }
  EXPECT_EQ(art, 2u);
  EXPECT_EQ(json, 1u);  // records are never GC candidates
  EXPECT_TRUE(store.LookupFlow(key).has_value());

  const obs::MetricsSnapshot delta = Since(before);
  EXPECT_EQ(Count(delta, "store.artifact.evictions"), 2u);
  EXPECT_EQ(Count(delta, "store.artifact.evicted_bytes"), 2 * per_blob);

  // Already under budget: a second pass is a no-op.
  const GcResult again = store.CollectArtifactGarbage(2 * per_blob);
  EXPECT_EQ(again.evicted_blobs, 0u);
  EXPECT_EQ(again.scanned_blobs, 2u);
}

TEST_F(ArtifactStoreTest, GcEvictionOrderIsDeterministicForEqualMtimes) {
  ResultStore store(dir_);
  StoreKey key = SampleKey();
  // Blobs with distinct sizes; force identical mtimes by copying one
  // file's timestamp onto the others, simulating a same-second bulk fill.
  std::vector<std::string> paths;
  for (uint64_t i = 0; i < 3; ++i) {
    key.flow_hash = i;
    EXPECT_TRUE(store.InsertArtifact(
        key, std::string(100 * (i + 1), static_cast<char>('a' + i))));
    paths.push_back(ArtifactPath(key));
  }
  const auto stamp = fs::last_write_time(paths[0]);
  for (const std::string& p : paths) fs::last_write_time(p, stamp);

  // Budget below total: equal mtimes fall through to size (largest first),
  // so the i=2 blob (largest) must be the one evicted.
  uint64_t total = 0;
  for (const std::string& p : paths) {
    total += static_cast<uint64_t>(fs::file_size(p));
  }
  const uint64_t largest = static_cast<uint64_t>(fs::file_size(paths[2]));
  const GcResult gc = store.CollectArtifactGarbage(total - 1);
  EXPECT_EQ(gc.evicted_blobs, 1u);
  EXPECT_EQ(gc.evicted_bytes, largest);
  EXPECT_FALSE(fs::exists(paths[2]));
  EXPECT_TRUE(fs::exists(paths[0]));
  EXPECT_TRUE(fs::exists(paths[1]));
}

TEST_F(ArtifactStoreTest, AutoGcOnInsertKeepsTierUnderBudget) {
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  ResultStore store(dir_);
  StoreKey key = SampleKey();
  key.flow_hash = 0;
  EXPECT_TRUE(store.InsertArtifact(key, std::string(1000, 'x')));
  const uint64_t per_blob = [&] {
    uint64_t b = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().extension() == ".art") {
        b = static_cast<uint64_t>(entry.file_size());
      }
    }
    return b;
  }();

  // Budget for one blob; each further insert must evict down to one.
  store.set_artifact_budget(per_blob);
  for (uint64_t i = 1; i < 4; ++i) {
    key.flow_hash = i;
    EXPECT_TRUE(store.InsertArtifact(key, std::string(1000, 'x')));
    size_t art = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().extension() == ".art") ++art;
    }
    EXPECT_EQ(art, 1u) << "after insert " << i;
  }
  EXPECT_GE(Count(Since(before), "store.artifact.evictions"), 3u);
}

// --- Campaign warm start ----------------------------------------------------

core::CampaignJob ToyJob() {
  core::CampaignJob job;
  job.name = "toy";
  job.make_netlist = [] { return TestCircuit(9); };
  job.flow = SmallFlowOptions();
  job.cache_id = "test/toy";
  job.cache_scale = CanonicalDouble(1.0);
  // Consumers that need the in-memory FlowResult always force-compute;
  // the artifact tier is what makes their warm runs cheap anyway.
  job.force_compute = true;
  return job;
}

core::CampaignOptions ToyCampaignOptions(ResultStore* store) {
  core::CampaignOptions options;
  options.score_patterns = 256;
  options.store = store;
  return options;
}

TEST_F(ArtifactStoreTest, WarmCampaignRunSkipsPhysicalStagesBitExactly) {
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  ResultStore store(dir_);
  const core::CampaignRunner runner(ToyCampaignOptions(&store));
  const core::CampaignJob job = ToyJob();

  const core::CampaignOutcome cold = runner.RunOne(job);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.from_store);
  EXPECT_GT(cold.flow.times.lock_s + cold.flow.times.place_s +
                cold.flow.times.route_s,
            0.0);
  EXPECT_GT(cold.flow.times.artifact_save_s, 0.0);
  EXPECT_EQ(Count(Since(before), "store.artifact.inserts"), 1u);

  const core::CampaignOutcome warm = runner.RunOne(job);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_FALSE(warm.from_store);  // artifact hits are computed-path results
  EXPECT_EQ(Count(Since(before), "store.artifact.hits"), 1u);

  // The warm run never ran lock/place/route/lift...
  EXPECT_EQ(warm.flow.times.lock_s, 0.0);
  EXPECT_EQ(warm.flow.times.place_s, 0.0);
  EXPECT_EQ(warm.flow.times.route_s, 0.0);
  EXPECT_EQ(warm.flow.times.lift_s, 0.0);
  EXPECT_GT(warm.flow.times.artifact_load_s, 0.0);

  // ...yet its canonical record is byte-identical to the cold run's.
  EXPECT_EQ(warm.record.ToJson(false), cold.record.ToJson(false));

  // Same attack trajectory: every engine proposes the identical assignment.
  ASSERT_EQ(warm.attacks.size(), cold.attacks.size());
  for (size_t i = 0; i < warm.attacks.size(); ++i) {
    EXPECT_EQ(warm.attacks[i].ok, cold.attacks[i].ok);
    EXPECT_EQ(warm.attacks[i].assignment, cold.attacks[i].assignment)
        << "attack " << i;
    EXPECT_EQ(warm.attacks[i].key_found, cold.attacks[i].key_found);
  }
  EXPECT_EQ(phys::LayoutFingerprint(*warm.flow.physical.layout),
            phys::LayoutFingerprint(*cold.flow.physical.layout));
}

TEST_F(ArtifactStoreTest, CorruptArtifactFallsBackToRecompute) {
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  ResultStore store(dir_);
  const core::CampaignRunner runner(ToyCampaignOptions(&store));
  const core::CampaignJob job = ToyJob();
  const StoreKey key = runner.KeyFor(job);

  const core::CampaignOutcome cold = runner.RunOne(job);
  ASSERT_TRUE(cold.ok) << cold.error;

  // Truncate the blob: the envelope no longer parses.
  const std::string bytes = ReadFile(ArtifactPath(key));
  ASSERT_GT(bytes.size(), 32u);
  WriteFile(ArtifactPath(key), bytes.substr(0, 32));

  const core::CampaignOutcome recomputed = runner.RunOne(job);
  ASSERT_TRUE(recomputed.ok) << recomputed.error;
  EXPECT_GT(recomputed.flow.times.place_s, 0.0);  // really recomputed
  EXPECT_EQ(recomputed.record.ToJson(false), cold.record.ToJson(false));
  EXPECT_GE(Count(Since(before), "store.artifact.corrupt"), 1u);

  // The recompute re-published a good blob: the next run is warm again.
  const core::CampaignOutcome warm = runner.RunOne(job);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.flow.times.place_s, 0.0);
  EXPECT_GT(warm.flow.times.artifact_load_s, 0.0);
}

TEST_F(ArtifactStoreTest, UndecodablePayloadRecomputes) {
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  ResultStore store(dir_);
  const core::CampaignRunner runner(ToyCampaignOptions(&store));
  const core::CampaignJob job = ToyJob();
  const StoreKey key = runner.KeyFor(job);

  // A valid envelope around garbage: the store's checksum vouches for it,
  // so only DecodeFlowArtifact can reject it — via NoteArtifactCorrupt.
  EXPECT_TRUE(store.InsertArtifact(key, "not a flow artifact"));

  const core::CampaignOutcome outcome = runner.RunOne(job);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_GT(outcome.flow.times.place_s, 0.0);  // fell back to computing
  const obs::MetricsSnapshot delta = Since(before);
  EXPECT_GE(Count(delta, "store.artifact.corrupt"), 1u);
  EXPECT_EQ(Count(delta, "store.artifact.hits"), 0u);  // reclassified

  // The garbage was overwritten with the real artifact.
  const core::CampaignOutcome warm = runner.RunOne(job);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.flow.times.place_s, 0.0);
  EXPECT_EQ(warm.record.ToJson(false), outcome.record.ToJson(false));
}

TEST_F(ArtifactStoreTest, EvictedArtifactDegradesToRecomputeThenRewarms) {
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  ResultStore store(dir_);
  const core::CampaignRunner runner(ToyCampaignOptions(&store));
  const core::CampaignJob job = ToyJob();
  const StoreKey key = runner.KeyFor(job);

  const core::CampaignOutcome cold = runner.RunOne(job);
  ASSERT_TRUE(cold.ok) << cold.error;
  ASSERT_TRUE(fs::exists(ArtifactPath(key)));

  // GC under a zero budget: the blob is evicted, records stay.
  const GcResult gc = store.CollectArtifactGarbage(0);
  EXPECT_EQ(gc.evicted_blobs, 1u);
  EXPECT_FALSE(fs::exists(ArtifactPath(key)));
  EXPECT_TRUE(store.LookupFlow(key).has_value());
  EXPECT_EQ(Count(Since(before), "store.artifact.evictions"), 1u);

  // An eviction is an ordinary miss: the flow recomputes, byte-identically.
  const core::CampaignOutcome recomputed = runner.RunOne(job);
  ASSERT_TRUE(recomputed.ok) << recomputed.error;
  EXPECT_GT(recomputed.flow.times.place_s, 0.0);
  EXPECT_EQ(recomputed.record.ToJson(false), cold.record.ToJson(false));

  // ...and re-publishes the blob, so the tier re-warms itself.
  ASSERT_TRUE(fs::exists(ArtifactPath(key)));
  const core::CampaignOutcome warm = runner.RunOne(job);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.flow.times.place_s, 0.0);
  EXPECT_GT(warm.flow.times.artifact_load_s, 0.0);
}

}  // namespace
}  // namespace splitlock::store
