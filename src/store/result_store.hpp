// Persistent, content-addressed campaign-result store.
//
// The paper's tables are suite-scale sweeps; every bench/CI run used to
// recompute identical lock -> place/route -> split -> attack pipelines
// because the only cache was an in-process map. This store persists the
// *deterministic summary* of one campaign job as JSON files in a cache
// directory, so repeated runs (and the shards of a distributed run, see
// dist/shard.hpp) skip straight to the answer.
//
// Two-level keying. Results are cached at the granularity they are
// actually shared, not at the granularity a job happens to batch them:
//
//   FlowRecord    one file per (suite member, scale, flow-options hash) —
//                 the flow summary every attack portfolio over the same
//                 FEOL shares: layout cost, broken-connection count,
//                 key/gate counts.
//   AttackRecord  one file per (flow key, attack hash) — one engine's
//                 verdict, counters and (when it recovered a complete
//                 assignment) its scorecard.
//
// A campaign job's CampaignRecord is *assembled* from those pieces
// (ComposeCampaignRecord), so a `{sat, proximity}` run reuses the
// AttackRecord a `{sat}` run already paid for and computes only the
// proximity engine — the partial-hit path in core::CampaignRunner::RunOne.
// The hashes are FNV-1a over canonical strings (core::FlowOptionsHash,
// AttackKeyHash over AttackConfig::ToString; PortfolioHash identifies a
// whole portfolio for shard tables), stable across processes and pinned
// by golden tests — a silent hash change would repartition the cache, so
// tests fail loudly instead.
//
// Durability. Writes go to a unique temp file in the same directory and
// are published with rename(2), so readers only ever observe absent or
// complete records — a shard killed mid-insert leaves no torn JSON behind.
// Reads are corruption-tolerant: unparseable files, schema-version
// mismatches and key-echo mismatches count as misses (and bump the tier's
// `corrupt` counter) rather than erroring, so a damaged cache degrades to
// recomputation, never to a failed campaign.
//
// The JSON records deliberately do NOT contain netlists or layouts — those
// live in the *artifact tier*: per-flow binary blobs (store/artifact_io)
// filed next to the records under the same flow key (attack identities are
// excluded — artifacts capture the flow output, which every attack
// portfolio over the same FEOL shares). Consumers that need the physical
// state back (`force_compute` recomputes, ablation benches, the
// partial-hit replay) deserialize instead of re-running place/route/lift;
// consumers that need numbers are served from the JSON records. Artifact
// blobs ride the same temp-file + rename publish path and the same
// corruption-tolerance policy: a damaged blob is a miss, never a crash.
//
// Artifact GC. Blobs are orders of magnitude larger than records, so the
// artifact tier is bounded: CollectArtifactGarbage(budget) evicts blobs —
// oldest mtime first, largest first among equals — until the tier fits the
// byte budget. Records are never touched, so eviction only downgrades a
// warm replay to a recompute (which re-publishes the blob); canonical
// output is unaffected. A concurrent reader of an evicted blob sees an
// ordinary miss.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/stage_times.hpp"
#include "util/json.hpp"

namespace splitlock::store {

// Version of the on-disk record layout AND of every CLI/bench JSON
// emitter's envelope ("schema_version" field). Bump on any incompatible
// change; old records then read as misses and old shard tables refuse to
// merge with new ones. v2: portable in-repo RNG draws + per-net/per-move
// stream restructure changed every seed-dependent result, and the stage
// timings gained analyze_s — v1 records are unreproducible by v2 binaries.
// v3: the floorplan/initial-placement prefix moved to counter-based
// StreamRng draws and floorplan sizing to a chunked parallel reduction,
// changing every seed-dependent placement; stage timings gained sta_s /
// artifact_load_s / artifact_save_s and the artifact tier was introduced.
// v4: the record tier split into two levels — per-flow FlowRecord files
// plus one AttackRecord file per (flow, attack) with per-attack
// scorecards — replacing the single per-(flow, portfolio) record, and
// campaign records are now assembled from those pieces.
// v5: the SAT solver minimizes and deletes learnt clauses and keeps learnt
// units at the root, which changes the DIP count, the conflict count and
// the recovered key of every stored sat / sat-portfolio attack record.
// v6: the SAT attack sweeps its miter's two key copies when a round runs
// long, which changes the conflict count and the recovered key of every
// stored sat attack record, and sat records drop the mean_dip_batch
// counter (always 1, or 0 when no round found a DIP).
inline constexpr int kResultSchemaVersion = 6;

// Canonical double formatting for record JSON: round-trip exact (%.17g),
// so re-serializing a parsed record is bit-identical.
std::string CanonicalDouble(double value);

// Flow-level address: everything under one key describes the same flow
// output (FlowRecord, the artifact blob) or hangs attack identities off
// it (AttackRecord files).
struct StoreKey {
  std::string suite;   // suite member id, e.g. "itc/b14"
  std::string scale;   // CanonicalDouble of the REPRO_SCALE in effect
  uint64_t flow_hash = 0;  // core::FlowOptionsHash

  // Filesystem-safe filename stem "<suite>-s<scale>-f<hex>" ('/' in suite
  // ids becomes '_'). Every file under this key starts with it.
  std::string Stem() const;
  std::string FlowFilename() const;  // Stem() + ".flow.json"
  // One record file per attack identity under this flow.
  std::string AttackFilename(uint64_t attack_hash) const;  // -a<hex>.json
  // Artifact-blob filename. Deliberately carries no attack identity: the
  // blob captures the flow output, which is shared by every attack
  // portfolio over the same (suite, scale, flow) triple.
  std::string ArtifactFilename() const;  // Stem() + ".art"
  bool operator==(const StoreKey&) const = default;
};

// Address of one attack's record under a flow key: one engine config plus
// the scoring parameters its per-attack scorecard depends on. Anything
// that changes what would be computed changes the hash.
uint64_t AttackKeyHash(const std::string& config_string,
                       uint64_t score_patterns);

// Hash of one whole attack portfolio + its scoring parameters: the
// *campaign* identity shard tables carry (dist/shard.hpp) and merge
// validation compares. Record files are no longer addressed by it — the
// per-attack AttackKeyHash is — but two shard tables still refuse to
// merge unless they ran the same portfolio.
uint64_t PortfolioHash(const std::vector<std::string>& config_strings,
                       uint64_t score_patterns, bool run_attack);

// The headline numbers of one attack's recovered assignment
// (attack::AttackScore fields): CCR, PNR and HD/OER over `score_patterns`
// random patterns.
// lint:result-schema(v6) persisted in the canonical record JSON — a
// result-affecting change here needs a kResultSchemaVersion bump.
struct Scorecard {
  double regular_ccr_percent = 0.0;
  double key_logical_ccr_percent = 0.0;
  double key_physical_ccr_percent = 0.0;
  double pnr_percent = 0.0;
  double hd_percent = 0.0;
  double oer_percent = 0.0;
  uint64_t score_patterns = 0;

  std::string ToJson() const;
  // nullopt when `v` is not a scorecard object.
  static std::optional<Scorecard> FromJson(const util::JsonValue& v);
};

// Summary of one attack-engine run (subset of attack::AttackReport that
// is serializable and small), stored one file per (flow key, attack
// hash). When the engine recovered a complete assignment the record also
// carries the scorecard computed from it, so a later portfolio containing
// this attack can reproduce the campaign-level score without re-running
// anything.
// lint:result-schema(v6) persisted in the canonical record JSON — a
// result-affecting change here needs a kResultSchemaVersion bump.
struct AttackRecord {
  std::string engine;
  std::string config;
  bool ok = false;
  std::string error;
  bool key_found = false;
  bool functionally_correct = false;
  std::map<std::string, double> counters;  // deterministic

  // Scorecard from this attack's recovered assignment. Absent for engines
  // that recover keys but no layout assignment (e.g. sat) and when the
  // split broke nothing. The JSON writes "has_score" either way.
  std::optional<Scorecard> score;

  double elapsed_s = 0.0;  // timing: non-canonical

  // Canonical form omits elapsed_s; the store persists the full form.
  std::string ToJson(bool include_timings) const;
  // nullopt when `v` is not an attack-record object.
  static std::optional<AttackRecord> FromJson(const util::JsonValue& v);
};

// The deterministic per-flow summary every portfolio over the same FEOL
// shares, plus (non-canonical) timings from the run that produced it.
// lint:result-schema(v6) persisted in the canonical record JSON — a
// result-affecting change here needs a kResultSchemaVersion bump.
struct FlowRecord {
  std::string name;
  bool ok = false;
  std::string error;

  uint64_t broken_connections = 0;
  uint64_t key_bits = 0;
  uint64_t logic_gates = 0;

  // Layout cost (core::LayoutCost fields, inlined to keep the store
  // dependency-free).
  double die_area_um2 = 0.0;
  double power_uw = 0.0;
  double critical_path_ps = 0.0;

  // Timings from the producing run (excluded from canonical JSON: two
  // processes computing the same key agree on everything above, never on
  // wall clocks). times.total_s is the producing job's whole duration,
  // serialized as "elapsed_s".
  core::StageTimes times;

  std::string ToJson(bool include_timings) const;
  // nullopt when `v` is not a record object. Absent timing fields read
  // as 0 (canonical-form input is valid).
  static std::optional<FlowRecord> FromJson(const util::JsonValue& v);
};

// The deterministic summary of one campaign job: its flow summary plus the
// campaign scorecard and every attack's record. No longer persisted as one
// file: it is assembled (ComposeCampaignRecord) from a FlowRecord and the
// job's AttackRecords, and what shard tables / the CLI serialize.
// lint:result-schema(v6) the canonical record layout itself — any change
// to serialized fields IS the schema; bump kResultSchemaVersion.
struct CampaignRecord : FlowRecord {
  // Campaign-level attack scorecard: the first attack in portfolio order
  // that carries one (all zeros when none does).
  Scorecard score;
  std::vector<AttackRecord> attacks;

  // One JSON object: the flow summary, then "score" and "attacks", then
  // the flow timings. Canonical form omits every timing field and is
  // bit-identical across processes/thread counts/store temperatures for
  // the same key — the merge determinism contract builds on it.
  std::string ToJson(bool include_timings) const;
  static std::optional<CampaignRecord> FromJson(const util::JsonValue& v);
};

// Assembles the job-level record from its two-level pieces. `attacks`
// must be in canonical portfolio order — the composed record (and
// therefore suite stdout and merge output) is byte-identical whether the
// pieces came from the store or were just computed, which is the
// partial-hit path's whole contract. Campaign score = the first attack
// carrying one. Timings (including elapsed_s) are copied from `flow`.
CampaignRecord ComposeCampaignRecord(const FlowRecord& flow,
                                     const std::vector<AttackRecord>& attacks);

// One CollectArtifactGarbage pass, summarized.
struct GcResult {
  uint64_t scanned_blobs = 0;
  uint64_t scanned_bytes = 0;  // artifact-tier size before the pass
  uint64_t evicted_blobs = 0;
  uint64_t evicted_bytes = 0;
  uint64_t errors = 0;  // blobs that could not be removed
};

// The on-disk store. Thread-safe: campaign workers look up and insert
// concurrently; distinct keys map to distinct files and same-key races are
// resolved by atomic rename (last writer wins with an identical record).
//
// Stats. Every hit, miss, insert, error, byte and eviction is counted in
// the process-wide obs registry — store.record.* and store.artifact.*, the
// only count the store keeps — which `--store-stats` and bench records
// read. Construction registers both tiers' metrics, so a snapshot carries
// them at every store temperature, zeros included.
class ResultStore {
 public:
  // Creates `dir` (and parents) if needed. Throws std::runtime_error when
  // the directory cannot be created.
  explicit ResultStore(std::string dir);

  // --- Record tier --------------------------------------------------------

  std::optional<FlowRecord> LookupFlow(const StoreKey& key);
  // False on I/O failure (counted as an insert error, never throws).
  bool InsertFlow(const StoreKey& key, const FlowRecord& record);

  std::optional<AttackRecord> LookupAttack(const StoreKey& key,
                                           uint64_t attack_hash);
  bool InsertAttack(const StoreKey& key, uint64_t attack_hash,
                    const AttackRecord& record);

  // --- Artifact tier ------------------------------------------------------
  // Blobs are opaque payloads (store/artifact_io encodings) wrapped in an
  // envelope carrying magic, schema version, key echo, payload length, and
  // an FNV-1a content checksum. Lookup validates the whole envelope before
  // returning the payload; anything malformed is a corrupt miss.

  std::optional<std::string> LookupArtifact(const StoreKey& key);
  // False on I/O failure (counted as an insert error, never throws). When
  // an artifact budget is set (set_artifact_budget), a successful publish
  // triggers an auto-GC pass over the tier.
  bool InsertArtifact(const StoreKey& key, std::string_view payload);
  // Callers that fail to *decode* a payload the envelope vouched for (e.g.
  // a format-version mismatch inside artifact_io) report it here so the
  // blob is reclassified from hit to corrupt miss in the store.artifact.*
  // counters.
  void NoteArtifactCorrupt();

  // Evicts artifact blobs until the tier's byte total fits `budget_bytes`.
  // Deterministic eviction order: oldest mtime first, then largest first,
  // then lexicographic filename — so equal-mtime ties (same-second bulk
  // fills) still evict identically everywhere. Summary records are never
  // touched. Safe against concurrent readers: an evicted blob simply
  // reads as a miss and the flow recomputes (then re-warms the blob).
  GcResult CollectArtifactGarbage(uint64_t budget_bytes);

  // Auto-GC budget for InsertArtifact; 0 (the default) disables auto-GC.
  void set_artifact_budget(uint64_t budget_bytes) {
    artifact_budget_ = budget_bytes;
  }
  uint64_t artifact_budget() const { return artifact_budget_; }

  const std::string& dir() const { return dir_; }

 private:
  bool PublishFile(const std::string& path, const std::string& doc,
                   bool record_tier);

  std::string ArtifactPathFor(const StoreKey& key) const;

  std::string dir_;
  uint64_t artifact_budget_ = 0;
};

}  // namespace splitlock::store
