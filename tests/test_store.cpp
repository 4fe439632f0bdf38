// The persistent result store: JSON parsing, record round-trips, atomic
// insert/lookup, corruption tolerance, and the golden store-key hashes.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "attack/engine.hpp"
#include "core/flow.hpp"
#include "exec/parallel.hpp"
#include "obs/metrics.hpp"
#include "store/result_store.hpp"
#include "util/json.hpp"

namespace splitlock::store {
namespace {

namespace fs = std::filesystem;

uint64_t Count(const obs::MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.counts.find(name);
  return it == snap.counts.end() ? 0 : it->second;
}

// What the obs registry — where the store counts — counted since `before`.
obs::MetricsSnapshot Since(const obs::MetricsSnapshot& before) {
  return obs::MetricsSnapshot::Delta(before,
                                     obs::Registry::Instance().Snapshot());
}

// Fresh per-test store directory under the system temp dir.
class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("splitlock_store_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string dir_;
};

Scorecard SampleScorecard() {
  Scorecard c;
  c.regular_ccr_percent = 14.5;
  c.key_logical_ccr_percent = 51.2;
  c.key_physical_ccr_percent = 0.5;
  c.pnr_percent = 7.0;
  c.hd_percent = 49.5;
  c.oer_percent = 100.0;
  c.score_patterns = 4096;
  return c;
}

CampaignRecord SampleRecord() {
  CampaignRecord r;
  r.name = "b14";
  r.ok = true;
  r.broken_connections = 123;
  r.key_bits = 128;
  r.logic_gates = 2456;
  r.die_area_um2 = 1234.5;
  r.power_uw = 88.25;
  r.critical_path_ps = 901.0 / 3.0;  // not exactly representable in decimal
  r.score = SampleScorecard();
  AttackRecord a;
  a.engine = "proximity";
  a.config = "proximity";
  a.ok = true;
  a.counters["candidates"] = 17;
  a.elapsed_s = 1.5;
  r.attacks.push_back(a);
  r.times.lock_s = 2.25;
  r.times.place_s = 3.5;
  r.times.total_s = 9.75;
  return r;
}

StoreKey SampleKey() {
  StoreKey key;
  key.suite = "itc/b14";
  key.scale = CanonicalDouble(0.25);
  key.flow_hash = 0x0123456789abcdefULL;
  return key;
}

// An attack identity to file records under SampleKey().
constexpr uint64_t kSampleAttackHash = 0xfedcba9876543210ULL;

FlowRecord SampleFlowRecord() {
  FlowRecord r;
  r.name = "b14";
  r.ok = true;
  r.broken_connections = 123;
  r.key_bits = 128;
  r.logic_gates = 2456;
  r.die_area_um2 = 1234.5;
  r.power_uw = 88.25;
  r.critical_path_ps = 901.0 / 3.0;  // not exactly representable in decimal
  r.times.lock_s = 2.25;
  r.times.place_s = 3.5;
  r.times.total_s = 9.75;
  return r;
}

AttackRecord SampleAttackRecord() {
  AttackRecord a;
  a.engine = "proximity";
  a.config = "proximity";
  a.ok = true;
  a.counters["candidates"] = 17;
  a.score = SampleScorecard();
  a.elapsed_s = 1.5;
  return a;
}

// --- JSON parser ------------------------------------------------------------

TEST(Json, ParsesScalarsObjectsArrays) {
  const auto v = util::ParseJson(
      R"({"a":1.5,"b":"x\n\"yz","c":[true,false,null],"d":{"e":-2e3}})");
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(v->GetNumber("a", 0), 1.5);
  EXPECT_EQ(v->GetString("b", ""), "x\n\"yz");
  const util::JsonValue* c = v->Get("c");
  ASSERT_NE(c, nullptr);
  ASSERT_EQ(c->array.size(), 3u);
  EXPECT_TRUE(c->array[0].boolean);
  EXPECT_EQ(c->array[2].type, util::JsonValue::Type::kNull);
  ASSERT_NE(v->Get("d"), nullptr);
  EXPECT_DOUBLE_EQ(v->Get("d")->GetNumber("e", 0), -2000.0);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(util::ParseJson("").has_value());
  EXPECT_FALSE(util::ParseJson("{").has_value());
  EXPECT_FALSE(util::ParseJson("{\"a\":1,}").has_value());
  EXPECT_FALSE(util::ParseJson("[1 2]").has_value());
  EXPECT_FALSE(util::ParseJson("\"unterminated").has_value());
  EXPECT_FALSE(util::ParseJson("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(util::ParseJson("nul").has_value());
}

TEST(Json, GetUintAcceptsOnlyExactNonNegativeIntegers) {
  const auto v = util::ParseJson(
      R"({"zero":0,"n":4096,"max":9007199254740992,"frac":0.75,)"
      R"("neg":-0.5,"minus":-1,"huge":1e30,"two64":18446744073709551616,)"
      R"("text":"12"})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->GetUint("zero", 7), 0u);
  EXPECT_EQ(v->GetUint("n", 7), 4096u);
  EXPECT_EQ(v->GetUint("max", 7), 9007199254740992u);  // 2^53
  EXPECT_EQ(v->GetUint("absent", 7), 7u);  // absent keeps the default
  for (const char* bad : {"frac", "neg", "minus", "huge", "two64", "text"}) {
    EXPECT_FALSE(v->GetUint(bad, 7).has_value()) << bad;
  }
}

TEST(Json, HexU64RoundTrips) {
  for (const uint64_t v :
       {0ULL, 1ULL, 0xdeadbeefULL, 0xffffffffffffffffULL}) {
    EXPECT_EQ(util::ParseHexU64(util::HexU64(v)), v);
  }
  EXPECT_FALSE(util::ParseHexU64("").has_value());
  EXPECT_FALSE(util::ParseHexU64("xyz").has_value());
  EXPECT_FALSE(util::ParseHexU64("00000000000000000").has_value());  // 17
}

// --- Record round-trip ------------------------------------------------------

TEST(CampaignRecord, JsonRoundTripIsExact) {
  const CampaignRecord r = SampleRecord();
  const std::string json = r.ToJson(/*include_timings=*/true);
  const auto parsed = util::ParseJson(json);
  ASSERT_TRUE(parsed.has_value());
  const auto back = CampaignRecord::FromJson(*parsed);
  ASSERT_TRUE(back.has_value());
  // Re-serializing the parsed record must be byte-identical: canonical
  // %.17g doubles survive the round trip exactly.
  EXPECT_EQ(back->ToJson(true), json);
  EXPECT_EQ(back->name, r.name);
  EXPECT_EQ(back->broken_connections, 123u);
  EXPECT_DOUBLE_EQ(back->critical_path_ps, r.critical_path_ps);
  ASSERT_EQ(back->attacks.size(), 1u);
  EXPECT_DOUBLE_EQ(back->attacks[0].counters.at("candidates"), 17.0);
}

TEST(CampaignRecord, CanonicalJsonExcludesTimings) {
  const CampaignRecord r = SampleRecord();
  const std::string canonical = r.ToJson(/*include_timings=*/false);
  EXPECT_EQ(canonical.find("elapsed_s"), std::string::npos);
  EXPECT_EQ(canonical.find("\"times\""), std::string::npos);
  // Two runs of the same key that differ only in wall clocks agree.
  CampaignRecord slower = r;
  slower.times.total_s = 99.0;
  slower.times.lock_s = 42.0;
  slower.attacks[0].elapsed_s = 7.0;
  EXPECT_EQ(slower.ToJson(false), canonical);
  EXPECT_NE(slower.ToJson(true), r.ToJson(true));
}

// --- Golden record bytes ----------------------------------------------------
//
// The full (timed) JSON of each sample record, byte for byte: the body the
// store writes into its files and shard tables embed. A refactor of the
// record structs must not move a byte; only a kResultSchemaVersion bump
// may change these strings.

TEST(GoldenRecords, FlowRecordJsonIsPinned) {
  EXPECT_EQ(SampleFlowRecord().ToJson(/*include_timings=*/true),
            R"({"name":"b14","ok":true,"error":"","broken_connections":123,)"
            R"("key_bits":128,"logic_gates":2456,"cost":{"die_area_um2":)"
            R"(1234.5,"power_uw":88.25,"critical_path_ps":)"
            R"(300.33333333333331},"times":{"lock_s":2.25,"place_s":3.5,)"
            R"("route_s":0,"lift_s":0,"sta_s":0,"analyze_s":0,)"
            R"("artifact_load_s":0,"artifact_save_s":0},"elapsed_s":9.75})");
}

TEST(GoldenRecords, CampaignRecordJsonIsPinned) {
  EXPECT_EQ(SampleRecord().ToJson(/*include_timings=*/true),
            R"({"name":"b14","ok":true,"error":"","broken_connections":123,)"
            R"("key_bits":128,"logic_gates":2456,"cost":{"die_area_um2":)"
            R"(1234.5,"power_uw":88.25,"critical_path_ps":)"
            R"(300.33333333333331},"score":{"regular_ccr_percent":14.5,)"
            R"("key_logical_ccr_percent":51.200000000000003,)"
            R"("key_physical_ccr_percent":0.5,"pnr_percent":7,)"
            R"("hd_percent":49.5,"oer_percent":100,"score_patterns":4096},)"
            R"("attacks":[{"engine":"proximity","config":"proximity",)"
            R"("ok":true,"error":"","key_found":false,)"
            R"("functionally_correct":false,"counters":{"candidates":17},)"
            R"("has_score":false,"elapsed_s":1.5}],"times":{"lock_s":2.25,)"
            R"("place_s":3.5,"route_s":0,"lift_s":0,"sta_s":0,)"
            R"("analyze_s":0,"artifact_load_s":0,"artifact_save_s":0},)"
            R"("elapsed_s":9.75})");
}

TEST(GoldenRecords, AttackRecordJsonIsPinned) {
  EXPECT_EQ(SampleAttackRecord().ToJson(/*include_timings=*/true),
            R"({"engine":"proximity","config":"proximity","ok":true,)"
            R"("error":"","key_found":false,"functionally_correct":false,)"
            R"("counters":{"candidates":17},"has_score":true,"score":)"
            R"({"regular_ccr_percent":14.5,)"
            R"("key_logical_ccr_percent":51.200000000000003,)"
            R"("key_physical_ccr_percent":0.5,"pnr_percent":7,)"
            R"("hd_percent":49.5,"oer_percent":100,"score_patterns":4096},)"
            R"("elapsed_s":1.5})");
}

// --- Store ------------------------------------------------------------------

TEST_F(StoreTest, FlowInsertThenLookupRoundTrips) {
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  ResultStore store(dir_);
  const StoreKey key = SampleKey();
  EXPECT_FALSE(store.LookupFlow(key).has_value());  // cold
  EXPECT_TRUE(store.InsertFlow(key, SampleFlowRecord()));
  const auto hit = store.LookupFlow(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->ToJson(true), SampleFlowRecord().ToJson(true));

  const obs::MetricsSnapshot delta = Since(before);
  EXPECT_EQ(Count(delta, "store.record.misses"), 1u);
  EXPECT_EQ(Count(delta, "store.record.inserts"), 1u);
  EXPECT_EQ(Count(delta, "store.record.hits"), 1u);
  EXPECT_EQ(Count(delta, "store.record.corrupt"), 0u);

  // A second store over the same directory sees the record (persistence).
  ResultStore reopened(dir_);
  EXPECT_TRUE(reopened.LookupFlow(key).has_value());
}

TEST_F(StoreTest, AttackInsertThenLookupRoundTrips) {
  ResultStore store(dir_);
  const StoreKey key = SampleKey();
  EXPECT_FALSE(store.LookupAttack(key, kSampleAttackHash).has_value());
  EXPECT_TRUE(store.InsertAttack(key, kSampleAttackHash,
                                 SampleAttackRecord()));
  const auto hit = store.LookupAttack(key, kSampleAttackHash);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->ToJson(true), SampleAttackRecord().ToJson(true));
  ASSERT_TRUE(hit->score.has_value());
  EXPECT_DOUBLE_EQ(hit->score->hd_percent, 49.5);
  EXPECT_EQ(hit->score->score_patterns, 4096u);
}

TEST_F(StoreTest, DistinctKeysDistinctFiles) {
  ResultStore store(dir_);
  const StoreKey key = SampleKey();
  // Two attack identities under one flow key are separate records...
  EXPECT_TRUE(store.InsertAttack(key, kSampleAttackHash,
                                 SampleAttackRecord()));
  EXPECT_FALSE(store.LookupAttack(key, kSampleAttackHash ^ 1).has_value());
  AttackRecord different = SampleAttackRecord();
  different.score->hd_percent = 1.0;
  EXPECT_TRUE(store.InsertAttack(key, kSampleAttackHash ^ 1, different));
  EXPECT_DOUBLE_EQ(
      store.LookupAttack(key, kSampleAttackHash)->score->hd_percent, 49.5);
  EXPECT_DOUBLE_EQ(
      store.LookupAttack(key, kSampleAttackHash ^ 1)->score->hd_percent, 1.0);
  // ...and a different flow key shares nothing.
  StoreKey other = key;
  other.flow_hash ^= 1;
  EXPECT_FALSE(store.LookupFlow(other).has_value());
  EXPECT_FALSE(store.LookupAttack(other, kSampleAttackHash).has_value());
}

TEST_F(StoreTest, CorruptFileReadsAsMiss) {
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  ResultStore store(dir_);
  const StoreKey key = SampleKey();
  EXPECT_TRUE(store.InsertFlow(key, SampleFlowRecord()));
  {  // truncate the record mid-file, as a crashed non-atomic writer would
    std::ofstream f(dir_ + "/" + key.FlowFilename(), std::ios::binary);
    f << "{\"schema_version\":1,\"key\":{\"suite\":\"itc/b14\"";
  }
  EXPECT_FALSE(store.LookupFlow(key).has_value());
  EXPECT_EQ(Count(Since(before), "store.record.corrupt"), 1u);
  // The store recovers by overwriting.
  EXPECT_TRUE(store.InsertFlow(key, SampleFlowRecord()));
  EXPECT_TRUE(store.LookupFlow(key).has_value());
}

TEST_F(StoreTest, SchemaVersionMismatchReadsAsMiss) {
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  ResultStore store(dir_);
  const StoreKey key = SampleKey();
  EXPECT_TRUE(store.InsertFlow(key, SampleFlowRecord()));
  const std::string path = dir_ + "/" + key.FlowFilename();
  std::ifstream in(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  const std::string needle =
      "\"schema_version\":" + std::to_string(kResultSchemaVersion);
  const size_t pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "\"schema_version\":0");
  std::ofstream(path, std::ios::binary) << text;
  EXPECT_FALSE(store.LookupFlow(key).has_value());
  EXPECT_EQ(Count(Since(before), "store.record.corrupt"), 1u);
}

TEST_F(StoreTest, MalformedIntegersReadAsCorrupt) {
  // Counts and versions are exact non-negative integers; a truncating
  // read would serve a record no writer produced.
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  ResultStore store(dir_);
  const StoreKey key = SampleKey();
  const std::string path = dir_ + "/" + key.FlowFilename();
  const std::string version = std::to_string(kResultSchemaVersion);
  const std::pair<std::string, std::string> edits[] = {
      {"\"key_bits\":128", "\"key_bits\":1.5"},
      {"\"schema_version\":" + version,
       "\"schema_version\":" + version + ".6"}};
  for (const auto& [needle, bad] : edits) {
    ASSERT_TRUE(store.InsertFlow(key, SampleFlowRecord()));
    std::ifstream in(path, std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    const size_t pos = text.find(needle);
    ASSERT_NE(pos, std::string::npos) << needle;
    text.replace(pos, needle.size(), bad);
    std::ofstream(path, std::ios::binary) << text;
    EXPECT_FALSE(store.LookupFlow(key).has_value()) << bad;
  }
  EXPECT_EQ(Count(Since(before), "store.record.corrupt"), 2u);
}

TEST_F(StoreTest, KeyEchoMismatchReadsAsCorrupt) {
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  ResultStore store(dir_);
  const StoreKey key = SampleKey();
  EXPECT_TRUE(store.InsertFlow(key, SampleFlowRecord()));
  // File copied/renamed under a different key: must not be served.
  StoreKey other = key;
  other.flow_hash ^= 0xff;
  fs::copy_file(dir_ + "/" + key.FlowFilename(),
                dir_ + "/" + other.FlowFilename());
  EXPECT_FALSE(store.LookupFlow(other).has_value());
  EXPECT_EQ(Count(Since(before), "store.record.corrupt"), 1u);
}

TEST_F(StoreTest, KindConfusionReadsAsCorrupt) {
  // A flow record copied over an attack filename (or vice versa) must not
  // parse as the other kind — the envelope's kind marker catches it even
  // when the key echo would match.
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  ResultStore store(dir_);
  const StoreKey key = SampleKey();
  EXPECT_TRUE(store.InsertFlow(key, SampleFlowRecord()));
  fs::copy_file(dir_ + "/" + key.FlowFilename(),
                dir_ + "/" + key.AttackFilename(kSampleAttackHash));
  EXPECT_FALSE(store.LookupAttack(key, kSampleAttackHash).has_value());
  EXPECT_EQ(Count(Since(before), "store.record.corrupt"), 1u);
}

TEST_F(StoreTest, InsertLeavesNoTempFiles) {
  ResultStore store(dir_);
  StoreKey key = SampleKey();
  for (int i = 0; i < 4; ++i) {
    key.flow_hash = static_cast<uint64_t>(i);
    EXPECT_TRUE(store.InsertFlow(key, SampleFlowRecord()));
    EXPECT_TRUE(store.InsertAttack(key, kSampleAttackHash,
                                   SampleAttackRecord()));
  }
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().extension(), ".json") << entry.path();
    ++files;
  }
  EXPECT_EQ(files, 8u);
}

TEST_F(StoreTest, ConcurrentSameKeyInsertsAndLookupsAreSafe) {
  // Campaign workers race Lookup/Insert on the pool; same-key writers are
  // resolved by atomic rename, so readers must only ever see a miss or a
  // complete record — never a torn one.
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  ResultStore store(dir_);
  const StoreKey key = SampleKey();
  const FlowRecord flow = SampleFlowRecord();
  const AttackRecord attack = SampleAttackRecord();
  exec::ParallelFor(64, 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      switch (i % 4) {
        case 0:
          EXPECT_TRUE(store.InsertFlow(key, flow));
          break;
        case 1:
          EXPECT_TRUE(store.InsertAttack(key, kSampleAttackHash, attack));
          break;
        case 2:
          if (const auto hit = store.LookupFlow(key)) {
            EXPECT_EQ(hit->ToJson(true), flow.ToJson(true));
          }
          break;
        default:
          if (const auto hit = store.LookupAttack(key, kSampleAttackHash)) {
            EXPECT_EQ(hit->ToJson(true), attack.ToJson(true));
          }
      }
    }
  });
  const obs::MetricsSnapshot delta = Since(before);
  EXPECT_EQ(Count(delta, "store.record.corrupt"), 0u);
  EXPECT_EQ(Count(delta, "store.record.insert_errors"), 0u);
  ASSERT_TRUE(store.LookupFlow(key).has_value());
  ASSERT_TRUE(store.LookupAttack(key, kSampleAttackHash).has_value());
}

TEST(StoreKeyTest, FilenamesSanitizeAndDisambiguate) {
  StoreKey key = SampleKey();
  for (const std::string& name :
       {key.FlowFilename(), key.AttackFilename(kSampleAttackHash),
        key.ArtifactFilename()}) {
    EXPECT_EQ(name.find('/'), std::string::npos) << name;
  }
  // The three file kinds under one key never collide.
  EXPECT_NE(key.FlowFilename(), key.AttackFilename(kSampleAttackHash));
  EXPECT_NE(key.FlowFilename(), key.ArtifactFilename());
  StoreKey other = key;
  other.scale = CanonicalDouble(0.5);
  EXPECT_NE(other.FlowFilename(), key.FlowFilename());
  EXPECT_NE(other.AttackFilename(kSampleAttackHash),
            key.AttackFilename(kSampleAttackHash));
}

// --- Composition ------------------------------------------------------------

TEST(Compose, AssemblesCampaignRecordFromPieces) {
  const FlowRecord flow = SampleFlowRecord();
  AttackRecord scoreless = SampleAttackRecord();
  scoreless.engine = "sat";
  scoreless.config = "sat";
  scoreless.score.reset();
  const AttackRecord scored = SampleAttackRecord();
  const CampaignRecord r = ComposeCampaignRecord(flow, {scoreless, scored});
  EXPECT_EQ(r.name, "b14");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.broken_connections, 123u);
  EXPECT_DOUBLE_EQ(r.die_area_um2, 1234.5);
  // Campaign score = the first attack carrying one, skipping scoreless
  // engines (key-only engines like sat produce no assignment).
  EXPECT_DOUBLE_EQ(r.score.hd_percent, 49.5);
  EXPECT_EQ(r.score.score_patterns, 4096u);
  ASSERT_EQ(r.attacks.size(), 2u);
  EXPECT_EQ(r.attacks[0].engine, "sat");
  // Timings (including elapsed_s) come from the flow's producing run.
  EXPECT_DOUBLE_EQ(r.times.lock_s, 2.25);
  EXPECT_DOUBLE_EQ(r.times.total_s, 9.75);
}

TEST(Compose, RoundTripThroughStoreIsByteIdentical) {
  // The partial-hit contract in one invariant: composing from records that
  // went through ToJson -> FromJson yields the same canonical bytes as
  // composing from the originals (CanonicalDouble is round-trip exact).
  const FlowRecord flow = SampleFlowRecord();
  const std::vector<AttackRecord> attacks = {SampleAttackRecord()};
  const CampaignRecord direct = ComposeCampaignRecord(flow, attacks);

  const auto flow_doc = util::ParseJson(flow.ToJson(true));
  ASSERT_TRUE(flow_doc.has_value());
  const auto flow_back = FlowRecord::FromJson(*flow_doc);
  ASSERT_TRUE(flow_back.has_value());
  const auto attack_doc = util::ParseJson(attacks[0].ToJson(true));
  ASSERT_TRUE(attack_doc.has_value());
  const auto attack_back = AttackRecord::FromJson(*attack_doc);
  ASSERT_TRUE(attack_back.has_value());

  const CampaignRecord assembled =
      ComposeCampaignRecord(*flow_back, {*attack_back});
  EXPECT_EQ(assembled.ToJson(false), direct.ToJson(false));
  EXPECT_EQ(assembled.ToJson(true), direct.ToJson(true));
}

// --- Golden store-key hashes ------------------------------------------------
//
// These values ARE the on-disk cache partitioning: a refactor that changes
// any canonical string or hash silently orphans every stored record (and,
// worse, could collide shard tables from different campaigns). Update the
// constants ONLY for a deliberate, schema-version-bumping change.

TEST(GoldenHashes, AttackConfigHashIsPinned) {
  // An attack's store key is AttackKeyHash over the config's canonical
  // form, whose params are ordered: spec order must not matter.
  const std::string canonical =
      attack::AttackConfig::Parse("sat:b=1,a=2").ToString();
  EXPECT_EQ(canonical, "sat:a=2,b=1");
  EXPECT_EQ(canonical, attack::AttackConfig::Parse("sat:a=2,b=1").ToString());
  EXPECT_EQ(AttackKeyHash(canonical, 4096), 16488802507442681531ULL);
  EXPECT_EQ(
      AttackKeyHash(
          attack::AttackConfig::Parse("sat:conflicts=1000").ToString(), 4096),
      5960187842426934978ULL);
}

TEST(GoldenHashes, FlowOptionsHashIsPinned) {
  const core::FlowOptions defaults;
  EXPECT_EQ(core::FlowOptionsCanonical(defaults),
            "v1;key_bits=128;split_layer=4;lift_layer=0;"
            "utilization=0.69999999999999996;placer_moves_per_cell=60;seed=1;"
            "power_patterns=2048;randomize_tie_placement=1;lift_key_nets=1;"
            "package_mode=0;lock.max_cut_leaves=12;lock.max_minterms=512;"
            "lock.max_cubes=6;lock.partitions=8;lock.min_bias=0.75;"
            "lock.bias_patterns=4096;lock.check_patterns=2048;"
            "lock.verify_lec=1;lock.require_area_gain=1");
  EXPECT_EQ(core::FlowOptionsHash(defaults), 3339888385804500872ULL);

  core::FlowOptions m6 = defaults;
  m6.split_layer = 6;
  EXPECT_EQ(core::FlowOptionsHash(m6), 12318144755518929478ULL);

  // Synced lock fields must not shift the key (RunSecureFlow overrides
  // them with the top-level values).
  core::FlowOptions synced = defaults;
  synced.lock.key_bits = 7;
  synced.lock.seed = 99;
  EXPECT_EQ(core::FlowOptionsHash(synced), core::FlowOptionsHash(defaults));
}

TEST(GoldenHashes, AttackKeyHashIsPinned) {
  // The per-attack record address introduced by the two-level split (v4).
  EXPECT_EQ(AttackKeyHash("proximity", 4096), 1514545893005242316ULL);
  // Both components participate: the same config scored under a different
  // pattern budget is a different record.
  EXPECT_NE(AttackKeyHash("proximity", 4096), AttackKeyHash("proximity", 2048));
  EXPECT_NE(AttackKeyHash("proximity", 4096), AttackKeyHash("ml", 4096));
}

TEST(GoldenHashes, PortfolioHashIsPinned) {
  EXPECT_EQ(PortfolioHash({"proximity"}, 4096, true),
            16128696088342593761ULL);
  // Every component participates.
  EXPECT_NE(PortfolioHash({"proximity"}, 4096, true),
            PortfolioHash({"proximity"}, 8192, true));
  EXPECT_NE(PortfolioHash({"proximity"}, 4096, true),
            PortfolioHash({"proximity"}, 4096, false));
  EXPECT_NE(PortfolioHash({"proximity"}, 4096, true),
            PortfolioHash({"proximity", "ml"}, 4096, true));
}

}  // namespace
}  // namespace splitlock::store
