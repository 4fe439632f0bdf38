#include "store/result_store.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "attack/engine.hpp"  // JsonEscape
#include "obs/metrics.hpp"
#include "store/artifact_io.hpp"  // ArtifactWriter/Reader for blob envelopes
#include "store/fs_clock.hpp"     // eviction ordering needs file mtimes
#include "util/hash.hpp"

#ifdef _WIN32
#include <process.h>
#define SPLITLOCK_GETPID _getpid
#else
#include <unistd.h>
#define SPLITLOCK_GETPID getpid
#endif

namespace splitlock::store {

namespace {

void AppendKv(std::string* out, const char* key, const std::string& value,
              bool* first) {
  if (!*first) out->push_back(',');
  *first = false;
  *out += '"';
  *out += key;
  *out += "\":";
  *out += value;
}

std::string Quoted(std::string_view s) { return attack::JsonEscape(s); }

std::string U64(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

// First four bytes of every artifact blob ("SLAR" little-endian), so a
// record JSON accidentally renamed to .art fails at byte 0.
constexpr uint32_t kArtifactMagic = 0x52414c53u;

// The store's stats, one set per tier (store.record.* /
// store.artifact.*), one count per file operation: a job touches one flow
// record plus one record per attack in its portfolio. All count-class:
// what a store serves is a function of the workload and the disk state,
// never of the thread count. The byte histograms bucket the sizes of the
// files returned by hits (bytes_read) and published (bytes_written); their
// sums are the per-tier byte totals `--store-stats` reports.
struct TierMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* inserts;
  obs::Counter* insert_errors;
  obs::Counter* corrupt;
  obs::Histogram* bytes_read;
  obs::Histogram* bytes_written;
};

TierMetrics MakeTierMetrics(const std::string& prefix) {
  obs::Registry& r = obs::Registry::Instance();
  return TierMetrics{
      r.RegisterCounter(prefix + ".hits"),
      r.RegisterCounter(prefix + ".misses"),
      r.RegisterCounter(prefix + ".inserts"),
      r.RegisterCounter(prefix + ".insert_errors"),
      r.RegisterCounter(prefix + ".corrupt"),
      r.RegisterHistogram(prefix + ".bytes_read",
                          obs::Pow2Edges(64, 1ULL << 30)),
      r.RegisterHistogram(prefix + ".bytes_written",
                          obs::Pow2Edges(64, 1ULL << 30)),
  };
}

TierMetrics& RecordTier() {
  static TierMetrics m = MakeTierMetrics("store.record");
  return m;
}

TierMetrics& ArtifactTier() {
  static TierMetrics m = MakeTierMetrics("store.artifact");
  return m;
}

// GC activity is artifact-tier only, so it lives outside TierMetrics.
// Count-class like the rest of the store: evictions are a function of the
// disk state and the budget, never of thread count.
struct GcMetrics {
  obs::Counter* evictions;
  obs::Counter* evicted_bytes;
};

GcMetrics& ArtifactGc() {
  static GcMetrics m = [] {
    obs::Registry& r = obs::Registry::Instance();
    return GcMetrics{
        r.RegisterCounter("store.artifact.evictions"),
        r.RegisterCounter("store.artifact.evicted_bytes"),
    };
  }();
  return m;
}

// Shared envelope validation for both record kinds: schema version, kind
// marker, and the key echo — a record must describe the key it is filed
// under, so a filename collision or a copied/tampered file reads as
// corrupt, not as a wrong answer. `attack_hash` is checked only for
// attack records (null for flow records).
bool EnvelopeMatches(const util::JsonValue& doc, const char* kind,
                     const StoreKey& key, const uint64_t* attack_hash) {
  if (doc.GetUint("schema_version", 0) != uint64_t{kResultSchemaVersion}) {
    return false;
  }
  if (doc.GetString("kind", "") != kind) return false;
  const util::JsonValue* k = doc.Get("key");
  if (!k || !k->IsObject() || k->GetString("suite", "") != key.suite ||
      k->GetString("scale", "") != key.scale ||
      util::ParseHexU64(k->GetString("flow_hash", "")) != key.flow_hash) {
    return false;
  }
  if (attack_hash &&
      util::ParseHexU64(k->GetString("attack_hash", "")) != *attack_hash) {
    return false;
  }
  return true;
}

void CountMiss(TierMetrics& tier, bool corrupt) {
  tier.misses->Add(1);
  if (corrupt) tier.corrupt->Add(1);
}

// The flow-summary fields every record kind opens with.
void AppendFlowSummary(const FlowRecord& r, std::string* out, bool* first) {
  AppendKv(out, "name", Quoted(r.name), first);
  AppendKv(out, "ok", r.ok ? "true" : "false", first);
  AppendKv(out, "error", Quoted(r.error), first);
  AppendKv(out, "broken_connections", U64(r.broken_connections), first);
  AppendKv(out, "key_bits", U64(r.key_bits), first);
  AppendKv(out, "logic_gates", U64(r.logic_gates), first);
  std::string cost = "{\"die_area_um2\":" + CanonicalDouble(r.die_area_um2) +
                     ",\"power_uw\":" + CanonicalDouble(r.power_uw) +
                     ",\"critical_path_ps\":" +
                     CanonicalDouble(r.critical_path_ps) + "}";
  AppendKv(out, "cost", cost, first);
}

// The non-canonical tail every flow-carrying record closes with: one
// "times" key per stage, in kStages order, then the job's total.
void AppendFlowTimings(const FlowRecord& r, std::string* out, bool* first) {
  std::string times = "{";
  bool first_stage = true;
  for (const core::StageInfo& stage : core::kStages) {
    AppendKv(&times, stage.key, CanonicalDouble(r.times.*stage.field),
             &first_stage);
  }
  times += '}';
  AppendKv(out, "times", times, first);
  AppendKv(out, "elapsed_s", CanonicalDouble(r.times.total_s), first);
}

std::string KeyEchoJson(const StoreKey& key, const uint64_t* attack_hash) {
  std::string out = "{\"suite\":" + Quoted(key.suite) +
                    ",\"scale\":" + Quoted(key.scale) +
                    ",\"flow_hash\":" + Quoted(util::HexU64(key.flow_hash));
  if (attack_hash) {
    out += ",\"attack_hash\":" + Quoted(util::HexU64(*attack_hash));
  }
  out += '}';
  return out;
}

// One record file: the envelope (schema version, kind, key echo) that
// EnvelopeMatches checks, around the record's full JSON.
std::string RecordDoc(const char* kind, const StoreKey& key,
                      const uint64_t* attack_hash,
                      const std::string& record_json) {
  return "{\"schema_version\":" + std::to_string(kResultSchemaVersion) +
         ",\"kind\":\"" + kind + "\",\"key\":" +
         KeyEchoJson(key, attack_hash) + ",\"record\":" + record_json + "}\n";
}

// The whole file at `path`; nullopt when it cannot be opened.
std::optional<std::string> ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::nullopt;
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

// Reads one record file and validates its envelope, counting exactly one
// hit, miss (absent file) or corrupt miss (anything unusable).
template <typename Record>
std::optional<Record> ReadRecord(const std::string& path, const char* kind,
                                 const StoreKey& key,
                                 const uint64_t* attack_hash) {
  const std::optional<std::string> text = ReadWholeFile(path);
  if (!text) {
    CountMiss(RecordTier(), /*corrupt=*/false);
    return std::nullopt;
  }
  std::optional<Record> record;
  const std::optional<util::JsonValue> doc = util::ParseJson(*text);
  if (doc && EnvelopeMatches(*doc, kind, key, attack_hash)) {
    if (const util::JsonValue* rec = doc->Get("record")) {
      record = Record::FromJson(*rec);
    }
  }
  if (!record) {
    CountMiss(RecordTier(), /*corrupt=*/true);
    return std::nullopt;
  }
  RecordTier().hits->Add(1);
  RecordTier().bytes_read->Observe(text->size());
  return record;
}

}  // namespace

std::string CanonicalDouble(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string StoreKey::Stem() const {
  std::string suite_part = suite;
  for (char& c : suite_part) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.';
    if (!safe) c = '_';
  }
  std::string scale_part = scale;
  for (char& c : scale_part) {
    if (!((c >= '0' && c <= '9') || c == '.')) c = '_';
  }
  return suite_part + "-s" + scale_part + "-f" + util::HexU64(flow_hash);
}

std::string StoreKey::FlowFilename() const { return Stem() + ".flow.json"; }

std::string StoreKey::AttackFilename(uint64_t attack_hash) const {
  return Stem() + "-a" + util::HexU64(attack_hash) + ".json";
}

std::string StoreKey::ArtifactFilename() const { return Stem() + ".art"; }

uint64_t AttackKeyHash(const std::string& config_string,
                       uint64_t score_patterns) {
  // The per-attack scorecard (HD/OER over random patterns) depends on the
  // pattern count, so it is part of the attack identity: the same config
  // scored under a different pattern budget is a different record.
  std::string canonical = "v1;patterns=";
  canonical += U64(score_patterns);
  canonical += ';';
  canonical += config_string;
  return util::Fnv1a(canonical);
}

uint64_t PortfolioHash(const std::vector<std::string>& config_strings,
                       uint64_t score_patterns, bool run_attack) {
  std::string canonical = "v1;run_attack=";
  canonical += run_attack ? '1' : '0';
  canonical += ";patterns=";
  canonical += U64(score_patterns);
  for (const std::string& config : config_strings) {
    canonical += ';';
    canonical += config;
  }
  return util::Fnv1a(canonical);
}

// --- Scorecard --------------------------------------------------------------

std::string Scorecard::ToJson() const {
  return "{\"regular_ccr_percent\":" + CanonicalDouble(regular_ccr_percent) +
         ",\"key_logical_ccr_percent\":" +
         CanonicalDouble(key_logical_ccr_percent) +
         ",\"key_physical_ccr_percent\":" +
         CanonicalDouble(key_physical_ccr_percent) +
         ",\"pnr_percent\":" + CanonicalDouble(pnr_percent) +
         ",\"hd_percent\":" + CanonicalDouble(hd_percent) +
         ",\"oer_percent\":" + CanonicalDouble(oer_percent) +
         ",\"score_patterns\":" + U64(score_patterns) + "}";
}

std::optional<Scorecard> Scorecard::FromJson(const util::JsonValue& v) {
  if (!v.IsObject()) return std::nullopt;
  const std::optional<uint64_t> patterns = v.GetUint("score_patterns", 0);
  if (!patterns) return std::nullopt;
  Scorecard c;
  c.regular_ccr_percent = v.GetNumber("regular_ccr_percent", 0.0);
  c.key_logical_ccr_percent = v.GetNumber("key_logical_ccr_percent", 0.0);
  c.key_physical_ccr_percent = v.GetNumber("key_physical_ccr_percent", 0.0);
  c.pnr_percent = v.GetNumber("pnr_percent", 0.0);
  c.hd_percent = v.GetNumber("hd_percent", 0.0);
  c.oer_percent = v.GetNumber("oer_percent", 0.0);
  c.score_patterns = *patterns;
  return c;
}

// --- AttackRecord -----------------------------------------------------------

std::string AttackRecord::ToJson(bool include_timings) const {
  std::string out = "{";
  bool first = true;
  AppendKv(&out, "engine", Quoted(engine), &first);
  AppendKv(&out, "config", Quoted(config), &first);
  AppendKv(&out, "ok", ok ? "true" : "false", &first);
  AppendKv(&out, "error", Quoted(error), &first);
  AppendKv(&out, "key_found", key_found ? "true" : "false", &first);
  AppendKv(&out, "functionally_correct",
           functionally_correct ? "true" : "false", &first);
  std::string counters_json = "{";
  bool fc = true;
  for (const auto& [cname, cvalue] : counters) {
    if (!fc) counters_json += ',';
    fc = false;
    counters_json += Quoted(cname) + ":" + CanonicalDouble(cvalue);
  }
  counters_json += '}';
  AppendKv(&out, "counters", counters_json, &first);
  AppendKv(&out, "has_score", score ? "true" : "false", &first);
  if (score) AppendKv(&out, "score", score->ToJson(), &first);
  if (include_timings) {
    AppendKv(&out, "elapsed_s", CanonicalDouble(elapsed_s), &first);
  }
  out += '}';
  return out;
}

std::optional<AttackRecord> AttackRecord::FromJson(const util::JsonValue& v) {
  if (!v.IsObject()) return std::nullopt;
  const util::JsonValue* engine = v.Get("engine");
  const util::JsonValue* ok = v.Get("ok");
  if (!engine || !engine->IsString() || !ok || !ok->IsBool()) {
    return std::nullopt;
  }
  AttackRecord a;
  a.engine = engine->string;
  a.config = v.GetString("config", "");
  a.ok = ok->boolean;
  a.error = v.GetString("error", "");
  a.key_found = v.GetBool("key_found", false);
  a.functionally_correct = v.GetBool("functionally_correct", false);
  if (const util::JsonValue* counters = v.Get("counters");
      counters && counters->IsObject()) {
    for (const auto& [cname, cvalue] : counters->object) {
      if (cvalue.IsNumber()) a.counters[cname] = cvalue.number;
    }
  }
  if (v.GetBool("has_score", false)) {
    a.score.emplace();
    if (const util::JsonValue* score = v.Get("score");
        score && score->IsObject()) {
      a.score = Scorecard::FromJson(*score);
      if (!a.score) return std::nullopt;
    }
  }
  a.elapsed_s = v.GetNumber("elapsed_s", 0.0);
  return a;
}

// --- FlowRecord -------------------------------------------------------------

std::string FlowRecord::ToJson(bool include_timings) const {
  std::string out = "{";
  bool first = true;
  AppendFlowSummary(*this, &out, &first);
  if (include_timings) AppendFlowTimings(*this, &out, &first);
  out += '}';
  return out;
}

std::optional<FlowRecord> FlowRecord::FromJson(const util::JsonValue& v) {
  if (!v.IsObject()) return std::nullopt;
  const util::JsonValue* name = v.Get("name");
  const util::JsonValue* ok = v.Get("ok");
  if (!name || !name->IsString() || !ok || !ok->IsBool()) return std::nullopt;
  const std::optional<uint64_t> broken = v.GetUint("broken_connections", 0);
  const std::optional<uint64_t> key_bits = v.GetUint("key_bits", 0);
  const std::optional<uint64_t> logic_gates = v.GetUint("logic_gates", 0);
  if (!broken || !key_bits || !logic_gates) return std::nullopt;
  FlowRecord r;
  r.name = name->string;
  r.ok = ok->boolean;
  r.error = v.GetString("error", "");
  r.broken_connections = *broken;
  r.key_bits = *key_bits;
  r.logic_gates = *logic_gates;
  if (const util::JsonValue* cost = v.Get("cost"); cost && cost->IsObject()) {
    r.die_area_um2 = cost->GetNumber("die_area_um2", 0.0);
    r.power_uw = cost->GetNumber("power_uw", 0.0);
    r.critical_path_ps = cost->GetNumber("critical_path_ps", 0.0);
  }
  if (const util::JsonValue* times = v.Get("times");
      times && times->IsObject()) {
    for (const core::StageInfo& stage : core::kStages) {
      r.times.*stage.field = times->GetNumber(stage.key, 0.0);
    }
  }
  r.times.total_s = v.GetNumber("elapsed_s", 0.0);
  return r;
}

// --- CampaignRecord ---------------------------------------------------------

std::string CampaignRecord::ToJson(bool include_timings) const {
  std::string out = "{";
  bool first = true;
  AppendFlowSummary(*this, &out, &first);
  AppendKv(&out, "score", score.ToJson(), &first);
  std::string attacks_json = "[";
  bool first_attack = true;
  for (const AttackRecord& a : attacks) {
    if (!first_attack) attacks_json += ',';
    first_attack = false;
    // One serializer for attack entries everywhere: the composed record's
    // attacks array is byte-for-byte the per-attack record files' bodies.
    attacks_json += a.ToJson(include_timings);
  }
  attacks_json += ']';
  AppendKv(&out, "attacks", attacks_json, &first);
  if (include_timings) AppendFlowTimings(*this, &out, &first);
  out += '}';
  return out;
}

std::optional<CampaignRecord> CampaignRecord::FromJson(
    const util::JsonValue& v) {
  std::optional<FlowRecord> flow = FlowRecord::FromJson(v);
  if (!flow) return std::nullopt;
  CampaignRecord r;
  static_cast<FlowRecord&>(r) = std::move(*flow);
  if (const util::JsonValue* score = v.Get("score");
      score && score->IsObject()) {
    std::optional<Scorecard> card = Scorecard::FromJson(*score);
    if (!card) return std::nullopt;
    r.score = *card;
  }
  if (const util::JsonValue* attacks = v.Get("attacks");
      attacks && attacks->IsArray()) {
    for (const util::JsonValue& av : attacks->array) {
      std::optional<AttackRecord> a = AttackRecord::FromJson(av);
      if (!a) return std::nullopt;
      r.attacks.push_back(std::move(*a));
    }
  }
  return r;
}

CampaignRecord ComposeCampaignRecord(const FlowRecord& flow,
                                     const std::vector<AttackRecord>& attacks) {
  CampaignRecord r;
  static_cast<FlowRecord&>(r) = flow;
  // Campaign score: the first attack in portfolio order carrying a
  // scorecard — the same "first complete assignment wins" rule the
  // compute path has always applied, now reproducible from cached pieces.
  for (const AttackRecord& a : attacks) {
    if (a.score) {
      r.score = *a.score;
      break;
    }
  }
  r.attacks = attacks;
  return r;
}

// --- ResultStore ------------------------------------------------------------

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_)) {
    throw std::runtime_error("result store: cannot create directory " + dir_);
  }
  // Register every store metric up front, so a run that never touches a
  // tier (a warm run's artifacts, GC) still exports its zeros.
  RecordTier();
  ArtifactTier();
  ArtifactGc();
}

std::optional<FlowRecord> ResultStore::LookupFlow(const StoreKey& key) {
  return ReadRecord<FlowRecord>(dir_ + "/" + key.FlowFilename(), "flow", key,
                                /*attack_hash=*/nullptr);
}

bool ResultStore::InsertFlow(const StoreKey& key, const FlowRecord& record) {
  return PublishFile(dir_ + "/" + key.FlowFilename(),
                     RecordDoc("flow", key, /*attack_hash=*/nullptr,
                               record.ToJson(/*include_timings=*/true)),
                     /*record_tier=*/true);
}

std::optional<AttackRecord> ResultStore::LookupAttack(const StoreKey& key,
                                                      uint64_t attack_hash) {
  return ReadRecord<AttackRecord>(dir_ + "/" + key.AttackFilename(attack_hash),
                                  "attack", key, &attack_hash);
}

bool ResultStore::InsertAttack(const StoreKey& key, uint64_t attack_hash,
                               const AttackRecord& record) {
  return PublishFile(dir_ + "/" + key.AttackFilename(attack_hash),
                     RecordDoc("attack", key, &attack_hash,
                               record.ToJson(/*include_timings=*/true)),
                     /*record_tier=*/true);
}

// Unique temp name in the same directory (rename must not cross
// filesystems), then atomic publish. Shared by both tiers; only the
// counters they bump differ.
bool ResultStore::PublishFile(const std::string& path, const std::string& doc,
                              bool record_tier) {
  static std::atomic<uint64_t> counter{0};
  const std::string tmp = path + ".tmp." +
                          std::to_string(SPLITLOCK_GETPID()) + "." +
                          std::to_string(counter.fetch_add(1));
  TierMetrics& tier = record_tier ? RecordTier() : ArtifactTier();

  const auto fail = [&]() {
    std::remove(tmp.c_str());
    tier.insert_errors->Add(1);
    return false;
  };

  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return fail();
  const bool wrote = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) return fail();
  if (std::rename(tmp.c_str(), path.c_str()) != 0) return fail();

  tier.inserts->Add(1);
  tier.bytes_written->Observe(doc.size());
  return true;
}

// --- Artifact tier ----------------------------------------------------------

std::string ResultStore::ArtifactPathFor(const StoreKey& key) const {
  return dir_ + "/" + key.ArtifactFilename();
}

std::optional<std::string> ResultStore::LookupArtifact(const StoreKey& key) {
  const std::optional<std::string> file = ReadWholeFile(ArtifactPathFor(key));
  if (!file) {
    CountMiss(ArtifactTier(), /*corrupt=*/false);
    return std::nullopt;
  }
  const std::string& blob = *file;

  const auto corrupt_miss = [&]() -> std::optional<std::string> {
    CountMiss(ArtifactTier(), /*corrupt=*/true);
    return std::nullopt;
  };

  ArtifactReader r(blob);
  if (r.U32() != kArtifactMagic) return corrupt_miss();
  if (static_cast<int>(r.U32()) != kResultSchemaVersion) return corrupt_miss();
  // Key echo, mirroring the record path: a renamed or collided file reads
  // as corrupt, never as somebody else's layout.
  if (r.Str() != key.suite || r.Str() != key.scale ||
      r.U64() != key.flow_hash || !r.ok()) {
    return corrupt_miss();
  }
  const size_t payload_size = r.Count(1);
  const uint64_t checksum = r.U64();
  if (!r.ok()) return corrupt_miss();
  std::string payload = r.Str();
  // Str() re-reads the length prefix Count() validated; the two must agree
  // and the payload must end the blob exactly.
  if (!r.AtEnd() || payload.size() != payload_size ||
      util::Fnv1a(payload) != checksum) {
    return corrupt_miss();
  }

  ArtifactTier().hits->Add(1);
  ArtifactTier().bytes_read->Observe(blob.size());
  return payload;
}

bool ResultStore::InsertArtifact(const StoreKey& key,
                                 std::string_view payload) {
  ArtifactWriter w;
  w.U32(kArtifactMagic);
  w.U32(static_cast<uint32_t>(kResultSchemaVersion));
  w.Str(key.suite);
  w.Str(key.scale);
  w.U64(key.flow_hash);
  w.U64(payload.size());
  w.U64(util::Fnv1a(payload));
  w.Str(payload);

  const bool published =
      PublishFile(ArtifactPathFor(key), w.bytes(), /*record_tier=*/false);
  // Auto-GC: keep the tier under budget as it grows. Running after the
  // publish means the budget is enforced on the state that includes the
  // new blob — which may itself be evicted when it is the best candidate.
  if (published && artifact_budget_ > 0) {
    CollectArtifactGarbage(artifact_budget_);
  }
  return published;
}

void ResultStore::NoteArtifactCorrupt() {
  // The lookup counted an envelope-level hit; the payload turned out to be
  // undecodable, so reclassify it as a corrupt miss (Counter::Sub exists
  // for exactly this path).
  ArtifactTier().hits->Sub(1);
  CountMiss(ArtifactTier(), /*corrupt=*/true);
}

GcResult ResultStore::CollectArtifactGarbage(uint64_t budget_bytes) {
  namespace fs = std::filesystem;
  struct Blob {
    std::string name;
    uint64_t size;
    int64_t mtime_ns;
  };
  std::vector<Blob> blobs;
  uint64_t total = 0;
  std::error_code ec;
  for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code fec;
    if (!it->is_regular_file(fec) || fec) continue;
    std::string name = it->path().filename().string();
    // Only sealed blobs: records (.json) are never GC candidates, and
    // in-flight ".art.tmp.<pid>.<n>" temp files don't match the suffix.
    if (name.size() < 4 || name.compare(name.size() - 4, 4, ".art") != 0) {
      continue;
    }
    const uint64_t size = static_cast<uint64_t>(it->file_size(fec));
    if (fec) continue;
    const int64_t mtime = FileMtimeNanos(it->path());
    total += size;
    blobs.push_back(Blob{std::move(name), size, mtime});
  }

  GcResult out;
  out.scanned_blobs = blobs.size();
  out.scanned_bytes = total;
  if (total <= budget_bytes) return out;

  // Eviction order: oldest first (a cold blob's flow is the least likely
  // to be replayed again), largest first among equal mtimes (fewest
  // evictions to fit the budget), filename as the final deterministic
  // tiebreak so same-second bulk fills evict identically everywhere.
  std::sort(blobs.begin(), blobs.end(), [](const Blob& a, const Blob& b) {
    if (a.mtime_ns != b.mtime_ns) return a.mtime_ns < b.mtime_ns;
    if (a.size != b.size) return a.size > b.size;
    return a.name < b.name;
  });

  for (const Blob& blob : blobs) {
    if (total <= budget_bytes) break;
    if (std::remove((dir_ + "/" + blob.name).c_str()) != 0) {
      ++out.errors;
      continue;
    }
    total -= blob.size;
    ++out.evicted_blobs;
    out.evicted_bytes += blob.size;
  }

  ArtifactGc().evictions->Add(out.evicted_blobs);
  ArtifactGc().evicted_bytes->Add(out.evicted_bytes);
  return out;
}

}  // namespace splitlock::store
