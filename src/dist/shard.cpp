#include "dist/shard.hpp"

#include <algorithm>
#include <stdexcept>

#include "attack/engine.hpp"  // JsonEscape
#include "util/json.hpp"

namespace splitlock::dist {

namespace {

std::string U64(uint64_t v) { return std::to_string(v); }

uint64_t RequireHexHash(const util::JsonValue& v, const char* key) {
  const std::optional<uint64_t> parsed =
      util::ParseHexU64(v.GetString(key, ""));
  if (!parsed) {
    throw std::runtime_error(std::string("shard table: bad or missing '") +
                             key + "'");
  }
  return *parsed;
}

// An unsigned count or index (util::JsonValue::GetUint's strict rule):
// `def` when absent, a throw when present but malformed.
uint64_t RequireUint(const util::JsonValue& v, const char* key, uint64_t def) {
  const std::optional<uint64_t> parsed = v.GetUint(key, def);
  if (!parsed) {
    throw std::runtime_error(std::string("shard table: malformed '") + key +
                             "'");
  }
  return *parsed;
}

}  // namespace

std::vector<uint64_t> ShardPlan::Select(uint64_t job_count) const {
  std::vector<uint64_t> owned;
  if (!Valid()) return owned;
  for (uint64_t i = shard_index; i < job_count; i += num_shards) {
    owned.push_back(i);
  }
  return owned;
}

std::string ShardTable::ToJson() const {
  std::string out = "{\"schema_version\":" +
                    U64(store::kResultSchemaVersion) +
                    ",\"suite\":" + attack::JsonEscape(suite) +
                    ",\"scale\":" + attack::JsonEscape(scale) +
                    ",\"flow_hash\":" + attack::JsonEscape(util::HexU64(flow_hash)) +
                    ",\"attack_hash\":" +
                    attack::JsonEscape(util::HexU64(attack_hash)) +
                    ",\"job_count\":" + U64(job_count) +
                    ",\"num_shards\":" + U64(num_shards) +
                    ",\"shard_index\":" + U64(shard_index) + ",\"jobs\":[";
  bool first = true;
  for (const ShardEntry& entry : entries) {
    if (!first) out += ',';
    first = false;
    out += "{\"job_index\":" + U64(entry.job_index) + ",\"record\":" +
           entry.record.ToJson(/*include_timings=*/false) + "}";
  }
  out += "]}\n";
  return out;
}

ShardTable ShardTable::Parse(std::string_view json) {
  const std::optional<util::JsonValue> doc = util::ParseJson(json);
  if (!doc || !doc->IsObject()) {
    throw std::runtime_error("shard table: not a JSON object");
  }
  const uint64_t version = RequireUint(*doc, "schema_version", 0);
  if (version != uint64_t{store::kResultSchemaVersion}) {
    throw std::runtime_error(
        "shard table: schema_version " + std::to_string(version) +
        " (this binary writes " + std::to_string(store::kResultSchemaVersion) +
        ")");
  }
  ShardTable table;
  table.suite = doc->GetString("suite", "");
  table.scale = doc->GetString("scale", "");
  if (table.suite.empty() || table.scale.empty()) {
    throw std::runtime_error("shard table: missing suite/scale");
  }
  table.flow_hash = RequireHexHash(*doc, "flow_hash");
  table.attack_hash = RequireHexHash(*doc, "attack_hash");
  table.job_count = RequireUint(*doc, "job_count", 0);
  table.num_shards = RequireUint(*doc, "num_shards", 0);
  table.shard_index = RequireUint(*doc, "shard_index", 0);

  const util::JsonValue* jobs = doc->Get("jobs");
  if (!jobs || !jobs->IsArray()) {
    throw std::runtime_error("shard table: missing 'jobs' array");
  }
  for (const util::JsonValue& jv : jobs->array) {
    if (!jv.IsObject() || !jv.Get("job_index")) {
      throw std::runtime_error("shard table: malformed job entry");
    }
    ShardEntry entry;
    entry.job_index = RequireUint(jv, "job_index", 0);
    const util::JsonValue* rec = jv.Get("record");
    std::optional<store::CampaignRecord> record =
        rec ? store::CampaignRecord::FromJson(*rec) : std::nullopt;
    if (!record) {
      throw std::runtime_error("shard table: malformed record for job " +
                               std::to_string(entry.job_index));
    }
    entry.record = std::move(*record);
    table.entries.push_back(std::move(entry));
  }
  return table;
}

ShardTable MergeShards(const std::vector<ShardTable>& shards) {
  if (shards.empty()) {
    throw std::runtime_error("merge: no shard tables given");
  }
  ShardTable merged;
  merged.suite = shards[0].suite;
  merged.scale = shards[0].scale;
  merged.flow_hash = shards[0].flow_hash;
  merged.attack_hash = shards[0].attack_hash;
  merged.job_count = shards[0].job_count;
  merged.num_shards = 1;
  merged.shard_index = 0;

  for (const ShardTable& shard : shards) {
    if (shard.suite != merged.suite || shard.scale != merged.scale ||
        shard.flow_hash != merged.flow_hash ||
        shard.attack_hash != merged.attack_hash ||
        shard.job_count != merged.job_count) {
      throw std::runtime_error(
          "merge: shard tables describe different campaigns (suite/scale/"
          "flow_hash/attack_hash/job_count mismatch)");
    }
    for (const ShardEntry& entry : shard.entries) {
      if (entry.job_index >= merged.job_count) {
        throw std::runtime_error("merge: job index " +
                                 std::to_string(entry.job_index) +
                                 " out of range for job_count " +
                                 std::to_string(merged.job_count));
      }
      merged.entries.push_back(entry);
    }
  }

  std::sort(merged.entries.begin(), merged.entries.end(),
            [](const ShardEntry& a, const ShardEntry& b) {
              return a.job_index < b.job_index;
            });
  for (uint64_t i = 0; i < merged.entries.size(); ++i) {
    if (merged.entries[i].job_index != i) {
      const bool duplicate =
          i > 0 && merged.entries[i].job_index == merged.entries[i - 1].job_index;
      throw std::runtime_error(
          std::string("merge: ") + (duplicate ? "duplicate" : "missing") +
          " job index " +
          std::to_string(duplicate ? merged.entries[i].job_index : i));
    }
  }
  if (merged.entries.size() != merged.job_count) {
    throw std::runtime_error(
        "merge: incomplete campaign: " + std::to_string(merged.entries.size()) +
        " of " + std::to_string(merged.job_count) + " jobs present");
  }
  return merged;
}

}  // namespace splitlock::dist
