// splitlock_cli — drive the secure split-manufacturing flow from the shell.
//
// Subcommands:
//   lock   <in.bench> <out.bench>  [--key-bits N] [--seed S]
//       Locks a .bench netlist; writes the locked netlist (KEYIN sources)
//       and prints the correct key to stdout.
//   flow   <in.bench>  [--key-bits N] [--split M] [--seed S] [--naive]
//       Full secure flow + proximity attack; prints the scorecard.
//   attack <in.bench>  [--split M] [--seed S] [--engine E]... [--json]
//       Treats the input as an unprotected design: lays it out, splits it
//       and runs the configured attack engines (default: proximity) against
//       the FEOL view. --engine list prints the registry.
//   report <in.bench>  [--key-bits N] [--split M] [--seed S]
//                      [--engine E]... [--json]
//       Full secure flow, then every configured attack engine (default:
//       proximity) against the protected design — engines additionally see
//       the locked netlist, the original as oracle, and the designer key,
//       so SAT-family engines run too. Prints one scorecard per engine.
//   stats  <in.bench>
//       Prints netlist statistics (gates by type, depth, area).
//   suite  <iscas|itc>  [--key-bits N] [--split M] [--seed S] [--threads T]
//                       [--engine E]... [--shards N] [--shard-index I]
//                       [--store DIR] [--store-stats] [--json] [--out F]
//       Concurrent campaign over a whole benchmark suite: each member runs
//       the full lock -> place/route -> split -> attack-portfolio pipeline
//       as a job on the exec thread pool; prints one scorecard row per
//       member. --threads sizes the pool (default: SPLITLOCK_THREADS or
//       hardware concurrency). --shards/--shard-index runs one
//       deterministic round-robin shard of the job list in this process
//       (see `merge`). --store consults/fills a persistent result-store
//       directory, so repeated runs skip completed jobs — including the
//       artifact tier, which warm-starts compute-path jobs from serialized
//       layouts instead of re-running place/route/lift; --store-stats
//       prints the hit/miss/insert counters of both tiers to stderr at
//       exit (plus a JSON stats object on stderr under --json). --json
//       emits the shard outcome table (canonical JSON, timings excluded)
//       instead of text; --out additionally writes it to a file.
//   merge  <shard.json>... [--json] [--out F]
//       Joins shard outcome tables written by sharded `suite` runs into
//       the canonical job-ordered table — bit-identical to what a
//       single-process `suite --json` run emits. Refuses tables from
//       different campaigns (suite/scale/option-hash mismatch) or with
//       missing/duplicate jobs.
//   store gc  --store DIR --budget-bytes N [--json]
//       Artifact-tier garbage collection: evicts flow artifacts (*.art)
//       oldest-first (then largest-first) until the tier fits the byte
//       budget. Summary records are never touched, so warm lookups keep
//       hitting; an evicted flow degrades to recomputation on its next
//       compute-path run, which re-publishes the blob. Prints the scan and
//       eviction totals; exits 1 if any eviction failed.
//
// Engines are attack::AttackConfig specs: a registry name, optionally with
// key=value params — e.g. --engine proximity --engine "sat:max_dips=64".
// --json makes `attack` and `report` emit one machine-readable JSON object
// per run on stdout (for scripting and CI diffing) instead of the tables.
// All JSON outputs carry "schema_version" (store::kResultSchemaVersion).
//
// Sequential .bench files (DFF statements) are analyzed as their FF-cut
// combinational cores.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "attack/engine.hpp"
#include "attack/metrics.hpp"
#include "core/campaign.hpp"
#include "core/flow.hpp"
#include "dist/shard.hpp"
#include "exec/thread_pool.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/libcell.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/result_store.hpp"
#include "util/env.hpp"

namespace {

using namespace splitlock;

struct Args {
  std::string command;
  std::string input;
  std::string output;
  size_t key_bits = 128;
  int split_layer = 4;
  uint64_t seed = 1;
  size_t threads = 0;  // 0 = default pool width
  bool naive = false;
  bool json = false;
  std::vector<std::string> engines;  // AttackConfig specs
  // suite/merge distribution + persistence:
  uint64_t shards = 1;
  uint64_t shard_index = 0;
  std::string store_dir;
  bool store_stats = false;
  uint64_t budget_bytes = 0;  // store gc: artifact-tier byte budget
  bool budget_set = false;
  std::string out_path;              // shard/merged table file
  std::vector<std::string> inputs;   // merge: all shard table files
  // Observability (src/obs): --trace FILE exports a Chrome trace-event
  // JSON of the run; --metrics[=FILE] dumps the ordered metrics snapshot
  // to stderr (or FILE). Both leave canonical stdout untouched.
  std::string trace_path;
  bool metrics = false;
  std::string metrics_path;  // empty = stderr
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: splitlock_cli <lock|flow|attack|report|stats> <in.bench> "
      "[out.bench] [--key-bits N] [--split M] [--seed S] [--naive] "
      "[--engine E]... [--json]\n"
      "       splitlock_cli suite <iscas|itc> [--key-bits N] [--split M] "
      "[--seed S] [--threads T] [--engine E]... [--shards N] "
      "[--shard-index I] [--store DIR] [--store-stats] [--json] [--out F]\n"
      "       splitlock_cli merge <shard.json>... [--json] [--out F]\n"
      "       splitlock_cli store gc --store DIR --budget-bytes N [--json]\n"
      "       --engine list   print the attack-engine registry\n"
      "       --trace FILE    export a Chrome trace-event JSON of the run\n"
      "       --metrics[=F]   dump the metrics snapshot to stderr (or F)\n");
  return 2;
}

Netlist Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return ReadBench(buf.str(), path);
}

// Parsed --engine specs (default: proximity). Throws on malformed specs.
std::vector<attack::AttackConfig> EngineConfigs(const Args& args) {
  std::vector<attack::AttackConfig> configs;
  for (const std::string& spec : args.engines) {
    configs.push_back(attack::AttackConfig::Parse(spec));
  }
  if (configs.empty()) {
    configs.push_back(attack::AttackConfig{.engine = "proximity"});
  }
  return configs;
}

int PrintEngineList() {
  attack::EngineRegistry& registry = attack::EngineRegistry::Instance();
  for (const std::string& name : registry.Names()) {
    std::printf("%-14s %s\n", name.c_str(),
                registry.Create(name)->description().c_str());
  }
  return 0;
}

std::string ScoreJson(const attack::AttackScore& score) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"regular_ccr_percent\":%.4f,"
                "\"key_logical_ccr_percent\":%.4f,"
                "\"key_physical_ccr_percent\":%.4f,"
                "\"pnr_percent\":%.4f,\"hd_percent\":%.4f,"
                "\"oer_percent\":%.4f}",
                score.ccr.regular_ccr_percent,
                score.ccr.key_logical_ccr_percent,
                score.ccr.key_physical_ccr_percent, score.pnr_percent,
                score.functional.hd_percent, score.functional.oer_percent);
  return buf;
}

void PrintReportText(const attack::AttackReport& report) {
  std::printf("engine %s (%s): %s\n", report.engine.c_str(),
              report.config.c_str(),
              report.ok ? "ok" : report.error.c_str());
  if (!report.ok) return;
  if (report.key_found) {
    std::printf("  key recovered (%zu bits), functionally correct: %s\n",
                report.recovered_key.size(),
                report.functionally_correct ? "YES" : "no");
  }
  for (const auto& [name, value] : report.counters) {
    std::printf("  %-24s %.4g\n", name.c_str(), value);
  }
  std::printf("  elapsed %.2f s\n", report.elapsed_s);
}

// Runs `configs` against `ctx`; when a report carries a full assignment it
// is scored against the FEOL ground truth. In JSON mode `runs_json` holds
// the combined runs array (nothing is printed here); in text mode results
// print directly and `runs_json` stays empty.
struct EngineRunOutcome {
  std::string runs_json;
  bool any_failed = false;
};

EngineRunOutcome RunEnginesAndRender(
    const attack::AttackContext& ctx,
    const std::vector<attack::AttackConfig>& configs, uint64_t score_patterns,
    bool json) {
  EngineRunOutcome out;
  if (json) out.runs_json = "[";
  bool first = true;
  for (const attack::AttackConfig& config : configs) {
    const attack::AttackReport report = attack::RunAttack(ctx, config);
    if (!report.ok) out.any_failed = true;
    const bool scorable = ctx.feol && report.CompletesAssignment(*ctx.feol);
    attack::AttackScore score;
    if (scorable) {
      score = attack::ScoreAttack(*ctx.feol, report.assignment, score_patterns,
                                  ctx.seed);
    }
    if (json) {
      if (!first) out.runs_json += ',';
      out.runs_json += "{\"report\":" + report.ToJson();
      if (scorable) out.runs_json += ",\"score\":" + ScoreJson(score);
      out.runs_json += '}';
    } else {
      PrintReportText(report);
      if (scorable) {
        std::printf(
            "  CCR key log/phys %.1f/%.1f %%, regular %.1f %%  "
            "PNR %.1f %%  HD %.1f %%  OER %.1f %%\n",
            score.ccr.key_logical_ccr_percent,
            score.ccr.key_physical_ccr_percent, score.ccr.regular_ccr_percent,
            score.pnr_percent, score.functional.hd_percent,
            score.functional.oer_percent);
      }
    }
    first = false;
  }
  if (json) out.runs_json += ']';
  return out;
}

int CmdStats(const Args& args) {
  const Netlist nl = Load(args.input);
  std::map<std::string, size_t> by_op;
  for (GateId g = 0; g < nl.NumGates(); ++g) {
    const Gate& gate = nl.gate(g);
    if (gate.op == GateOp::kDeleted || gate.op == GateOp::kInput ||
        gate.op == GateOp::kOutput) {
      continue;
    }
    ++by_op[GateOpName(gate.op)];
  }
  std::printf("%s: %zu PIs, %zu POs, %zu logic gates, %.1f um^2 cell area\n",
              nl.name().c_str(), nl.inputs().size(), nl.outputs().size(),
              nl.NumLogicGates(), TotalCellArea(nl));
  for (const auto& [op, count] : by_op) {
    std::printf("  %-8s %zu\n", op.c_str(), count);
  }
  return 0;
}

int CmdLock(const Args& args) {
  const Netlist original = Load(args.input);
  lock::AtpgLockOptions opts;
  opts.key_bits = args.key_bits;
  opts.seed = args.seed;
  const lock::AtpgLockResult r = lock::LockWithAtpg(original, opts);
  if (!args.output.empty()) {
    std::ofstream out(args.output);
    out << WriteBench(r.locked.Compacted());
  }
  std::printf("locked %s: %zu key bits (%zu pattern, %zu padded), LEC %s\n",
              original.name().c_str(), r.key.size(), r.pattern_bits,
              r.padding_bits, r.lec_equivalent ? "ok" : "FAILED");
  std::printf("area %.1f -> %.1f um^2 (%+.2f%%)\n", r.original_area_um2,
              r.locked_area_um2, r.AreaDeltaPercent());
  std::printf("key: ");
  for (uint8_t b : r.key) std::printf("%d", b);
  std::printf("\n");
  return r.lec_equivalent ? 0 : 1;
}

int CmdFlow(const Args& args) {
  const Netlist original = Load(args.input);
  core::FlowOptions opts;
  opts.key_bits = args.key_bits;
  opts.split_layer = args.split_layer;
  opts.seed = args.seed;
  if (args.naive) {
    opts.randomize_tie_placement = false;
    opts.lift_key_nets = false;
  }
  const core::FlowResult flow = core::RunSecureFlow(original, opts);
  attack::AttackContext ctx;
  ctx.feol = &flow.feol;
  ctx.seed = args.seed;
  const attack::AttackReport atk =
      attack::RunAttack(ctx, attack::AttackConfig{.engine = "proximity"});
  const attack::AttackScore score = attack::ScoreAttack(
      flow.feol, atk.assignment, ReproPatterns(), args.seed);
  std::printf("%s @ M%d (%s): %zu broken connections\n",
              original.name().c_str(), args.split_layer,
              args.naive ? "naive layout" : "secure flow",
              flow.feol.sink_stubs.size());
  std::printf("CCR key log/phys %.1f/%.1f %%, regular %.1f %%\n",
              score.ccr.key_logical_ccr_percent,
              score.ccr.key_physical_ccr_percent,
              score.ccr.regular_ccr_percent);
  std::printf("HD %.1f %%  OER %.1f %%  PNR %.1f %%\n",
              score.functional.hd_percent, score.functional.oer_percent,
              score.pnr_percent);
  return 0;
}

int CmdAttack(const Args& args) {
  const Netlist original = Load(args.input);
  core::FlowOptions opts;
  opts.seed = args.seed;
  opts.split_layer = args.split_layer;
  opts.lift_key_nets = false;
  opts.randomize_tie_placement = false;
  const core::PhysicalBundle bundle = core::BuildPhysical(original, opts);
  const split::FeolView feol =
      split::SplitLayout(*bundle.layout, args.split_layer);

  attack::AttackContext ctx;
  ctx.feol = &feol;
  ctx.seed = args.seed;
  if (!args.json) {
    std::printf("%s unprotected @ M%d: %zu broken connections\n",
                original.name().c_str(), args.split_layer,
                feol.sink_stubs.size());
  }
  const EngineRunOutcome runs =
      RunEnginesAndRender(ctx, EngineConfigs(args), ReproPatterns(), args.json);
  if (args.json) {
    std::printf("{\"command\":\"attack\",\"schema_version\":%d,"
                "\"design\":%s,\"split_layer\":%d,\"seed\":%llu,"
                "\"broken_connections\":%zu,\"runs\":%s}\n",
                store::kResultSchemaVersion,
                attack::JsonEscape(original.name()).c_str(), args.split_layer,
                (unsigned long long)args.seed, feol.sink_stubs.size(),
                runs.runs_json.c_str());
  }
  return runs.any_failed ? 1 : 0;
}

int CmdReport(const Args& args) {
  const Netlist original = Load(args.input);
  core::FlowOptions opts;
  opts.key_bits = args.key_bits;
  opts.split_layer = args.split_layer;
  opts.seed = args.seed;
  if (args.naive) {
    opts.randomize_tie_placement = false;
    opts.lift_key_nets = false;
  }
  const core::FlowResult flow = core::RunSecureFlow(original, opts);

  attack::AttackContext ctx;
  ctx.feol = &flow.feol;
  ctx.locked = &flow.lock.locked;
  ctx.oracle = &original;
  ctx.correct_key = flow.lock.key;
  ctx.seed = args.seed;
  if (!args.json) {
    std::printf("%s @ M%d (%s): %zu key bits, %zu broken connections\n",
                original.name().c_str(), args.split_layer,
                args.naive ? "naive layout" : "secure flow",
                flow.lock.key.size(), flow.feol.sink_stubs.size());
  }
  const EngineRunOutcome runs =
      RunEnginesAndRender(ctx, EngineConfigs(args), ReproPatterns(), args.json);
  if (args.json) {
    std::printf("{\"command\":\"report\",\"schema_version\":%d,"
                "\"design\":%s,\"split_layer\":%d,\"seed\":%llu,"
                "\"key_bits\":%zu,\"broken_connections\":%zu,\"runs\":%s}\n",
                store::kResultSchemaVersion,
                attack::JsonEscape(original.name()).c_str(), args.split_layer,
                (unsigned long long)args.seed, flow.lock.key.size(),
                flow.feol.sink_stubs.size(), runs.runs_json.c_str());
  }
  return runs.any_failed ? 1 : 0;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  out.flush();
  return out.good();
}

// The `suite`/`merge` exit-code rule: a failed job OR a failed attack
// engine is a failure, so gating on merge behaves like gating on the
// equivalent single-process run.
bool AnyFailed(const dist::ShardTable& table) {
  for (const dist::ShardEntry& entry : table.entries) {
    if (!entry.record.ok) return true;
    for (const store::AttackRecord& attack : entry.record.attacks) {
      if (!attack.ok) return true;
    }
  }
  return false;
}

// One scorecard row per record; shared by `suite` (text mode) and `merge`.
// The time column only exists when the caller has wall clocks (a live run);
// merged tables are canonical and carry none.
void PrintRecordTable(const dist::ShardTable& table,
                      const std::vector<double>* elapsed) {
  std::printf("%-6s | %8s | %7s | %7s | %7s | %7s%s\n", "", "broken",
              "CCR %", "PNR %", "HD %", "OER %",
              elapsed ? " | time (s)" : "");
  for (size_t i = 0; i < table.entries.size(); ++i) {
    const store::CampaignRecord& r = table.entries[i].record;
    if (!r.ok) {
      std::printf("%-6s | FAILED: %s\n", r.name.c_str(), r.error.c_str());
      continue;
    }
    std::printf("%-6s | %8llu | %7.1f | %7.1f | %7.1f | %7.1f",
                r.name.c_str(),
                static_cast<unsigned long long>(r.broken_connections),
                r.score.regular_ccr_percent, r.score.pnr_percent,
                r.score.hd_percent, r.score.oer_percent);
    if (elapsed) std::printf(" | %8.2f", (*elapsed)[i]);
    std::printf("\n");
    for (const store::AttackRecord& attack : r.attacks) {
      if (!attack.ok) {
        std::printf("%-6s |   engine %s FAILED: %s\n", "",
                    attack.engine.c_str(), attack.error.c_str());
      }
    }
  }
}

// One `--store-stats` text line for the tier whose metrics start with
// `tier`: its counters, then its byte totals (the byte histograms' sums),
// each labelled `label` + the metric name.
void PrintTierStatsLine(const obs::MetricsSnapshot& snap,
                        const std::string& tier, const std::string& label) {
  std::string line = "store-stats:";
  for (const char* name : {"hits", "misses", "inserts", "insert_errors",
                           "corrupt", "bytes_read", "bytes_written"}) {
    const std::string metric = tier + "." + name;
    uint64_t value = 0;
    if (const auto c = snap.counts.find(metric); c != snap.counts.end()) {
      value = c->second;
    }
    if (const auto h = snap.histograms.find(metric);
        h != snap.histograms.end()) {
      value = h->second.sum;
    }
    line += " " + label + name + "=" + std::to_string(value);
  }
  std::fprintf(stderr, "%s\n", line.c_str());
}

int CmdSuite(const Args& args) {
  if (args.input != "iscas" && args.input != "itc") return Usage();
  if (args.threads > 0) exec::ThreadPool::SetDefaultThreadCount(args.threads);
  const dist::ShardPlan plan{args.shards, args.shard_index};
  if (!plan.Valid()) {
    std::fprintf(stderr, "error: --shard-index must be < --shards\n");
    return 2;
  }

  core::FlowOptions opts;
  opts.key_bits = args.key_bits;
  opts.split_layer = args.split_layer;
  opts.seed = args.seed;
  const double scale = args.input == "itc" ? ReproScale() : 1.0;
  std::vector<core::CampaignJob> jobs =
      args.input == "iscas" ? core::IscasCampaignJobs(opts)
                            : core::Itc99CampaignJobs(opts, ReproScale());
  const std::vector<attack::AttackConfig> configs = EngineConfigs(args);
  for (core::CampaignJob& job : jobs) job.attacks = configs;

  std::unique_ptr<store::ResultStore> result_store;
  if (!args.store_dir.empty()) {
    result_store = std::make_unique<store::ResultStore>(args.store_dir);
  }
  core::CampaignOptions campaign_options;
  campaign_options.score_patterns = ReproPatterns();
  campaign_options.store = result_store.get();
  const core::CampaignRunner runner(campaign_options);

  const std::vector<uint64_t> owned = plan.Select(jobs.size());
  std::vector<core::CampaignJob> shard_jobs;
  for (const uint64_t job_index : owned) {
    shard_jobs.push_back(jobs[job_index]);
  }
  const std::vector<core::CampaignOutcome> outcomes = runner.Run(shard_jobs);

  dist::ShardTable table;
  table.suite = args.input;
  table.scale = store::CanonicalDouble(scale);
  table.flow_hash = core::FlowOptionsHash(opts);
  {
    std::vector<std::string> config_strings;
    for (const attack::AttackConfig& config : configs) {
      config_strings.push_back(config.ToString());
    }
    table.attack_hash = store::PortfolioHash(config_strings, ReproPatterns(),
                                             /*run_attack=*/true);
  }
  table.job_count = jobs.size();
  table.num_shards = plan.num_shards;
  table.shard_index = plan.shard_index;
  std::vector<double> elapsed;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    table.entries.push_back(dist::ShardEntry{owned[i], outcomes[i].record});
    elapsed.push_back(outcomes[i].elapsed_s);
  }

  int rc = AnyFailed(table) ? 1 : 0;
  if (args.json) {
    std::fputs(table.ToJson().c_str(), stdout);
  } else {
    std::printf("%zu-job campaign @ M%d, %zu key bits, %zu threads",
                shard_jobs.size(), args.split_layer, args.key_bits,
                args.threads > 0 ? args.threads
                                 : exec::ThreadPool::DefaultThreadCount());
    if (plan.num_shards > 1) {
      std::printf(", shard %llu/%llu",
                  static_cast<unsigned long long>(plan.shard_index),
                  static_cast<unsigned long long>(plan.num_shards));
    }
    std::printf(", attacks:");
    for (const attack::AttackConfig& config : configs) {
      std::printf(" %s", config.ToString().c_str());
    }
    std::printf("\n");
    PrintRecordTable(table, &elapsed);
  }
  if (!args.out_path.empty() && !WriteFile(args.out_path, table.ToJson())) {
    std::fprintf(stderr, "error: cannot write %s\n", args.out_path.c_str());
    rc = 1;
  }
  if (args.store_stats && !result_store) {
    std::fprintf(stderr, "store-stats: no --store directory configured\n");
  }
  if (result_store && args.store_stats) {
    // The process runs one store, so the registry's store.* metrics are
    // exactly its stats.
    const obs::MetricsSnapshot snap = obs::Registry::Instance().Snapshot();
    PrintTierStatsLine(snap, "store.record", "");
    PrintTierStatsLine(snap, "store.artifact", "artifact_");
    if (args.json) {
      // The canonical suite table (stdout/--out) must stay byte-identical
      // between warm and cold runs, so the stats object goes to stderr:
      // the registry's flat "store.<tier>.<metric>" naming with
      // histogram-style byte totals per tier — the same object bench
      // records embed.
      std::fprintf(stderr, "{\"store_stats\":%s}\n",
                   snap.FlatCountsJson("store.").c_str());
    }
  }
  return rc;
}

// `store gc` — offline artifact-tier garbage collection. Safe to run
// while other processes read the store: a reader that loses a blob
// mid-lookup sees an ordinary miss and recomputes (the corruption-
// tolerance contract already covers torn reads).
int CmdStoreGc(const Args& args) {
  if (args.store_dir.empty()) {
    std::fprintf(stderr, "store gc: --store DIR is required\n");
    return 2;
  }
  if (!args.budget_set) {
    std::fprintf(stderr, "store gc: --budget-bytes N is required\n");
    return 2;
  }
  store::ResultStore result_store(args.store_dir);
  const store::GcResult gc =
      result_store.CollectArtifactGarbage(args.budget_bytes);
  if (args.json) {
    std::printf("{\"command\":\"store-gc\",\"schema_version\":%d,"
                "\"budget_bytes\":%llu,\"scanned_blobs\":%llu,"
                "\"scanned_bytes\":%llu,\"evicted_blobs\":%llu,"
                "\"evicted_bytes\":%llu,\"errors\":%llu}\n",
                store::kResultSchemaVersion,
                static_cast<unsigned long long>(args.budget_bytes),
                static_cast<unsigned long long>(gc.scanned_blobs),
                static_cast<unsigned long long>(gc.scanned_bytes),
                static_cast<unsigned long long>(gc.evicted_blobs),
                static_cast<unsigned long long>(gc.evicted_bytes),
                static_cast<unsigned long long>(gc.errors));
  } else {
    std::printf("store gc: %llu blob(s) / %llu bytes scanned, "
                "%llu evicted / %llu bytes freed (budget %llu bytes)\n",
                static_cast<unsigned long long>(gc.scanned_blobs),
                static_cast<unsigned long long>(gc.scanned_bytes),
                static_cast<unsigned long long>(gc.evicted_blobs),
                static_cast<unsigned long long>(gc.evicted_bytes),
                static_cast<unsigned long long>(args.budget_bytes));
    if (gc.errors > 0) {
      std::fprintf(stderr, "store gc: %llu eviction error(s)\n",
                   static_cast<unsigned long long>(gc.errors));
    }
  }
  return gc.errors > 0 ? 1 : 0;
}

int CmdStore(const Args& args) {
  // The store verb carries its own sub-verbs; `gc` is the only one so far.
  if (args.input == "gc") return CmdStoreGc(args);
  return Usage();
}

int CmdMerge(const Args& args) {
  if (args.inputs.empty()) return Usage();
  std::vector<dist::ShardTable> shards;
  for (const std::string& path : args.inputs) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open " + path);
    std::stringstream buf;
    buf << in.rdbuf();
    try {
      shards.push_back(dist::ShardTable::Parse(buf.str()));
    } catch (const std::exception& e) {
      throw std::runtime_error(path + ": " + e.what());
    }
  }
  const dist::ShardTable merged = dist::MergeShards(shards);

  int rc = AnyFailed(merged) ? 1 : 0;
  if (args.json) {
    std::fputs(merged.ToJson().c_str(), stdout);
  } else {
    std::printf("%llu-job campaign '%s' @ scale %s, merged from %zu shard "
                "table(s)\n",
                static_cast<unsigned long long>(merged.job_count),
                merged.suite.c_str(), merged.scale.c_str(), shards.size());
    PrintRecordTable(merged, nullptr);
  }
  if (!args.out_path.empty() && !WriteFile(args.out_path, merged.ToJson())) {
    std::fprintf(stderr, "error: cannot write %s\n", args.out_path.c_str());
    rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  // `--engine list` needs no input file; honor it wherever it appears so
  // `splitlock_cli attack --engine list` works as the usage line suggests.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--engine=list") == 0 ||
        (std::strcmp(argv[i], "--engine") == 0 && i + 1 < argc &&
         std::strcmp(argv[i + 1], "list") == 0)) {
      return PrintEngineList();
    }
  }
  if (argc < 3) return Usage();
  Args args;
  args.command = argv[1];
  // merge takes a variable list of positional shard files, so every arg
  // from argv[2] on goes through the flag loop; the other subcommands
  // take their input file at argv[2] unconditionally.
  int first_flag = 2;
  if (args.command != "merge") {
    args.input = argv[2];
    first_flag = 3;
  }
  for (int i = first_flag; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--key-bits") {
      const char* v = next();
      if (!v) return Usage();
      args.key_bits = std::strtoull(v, nullptr, 10);
    } else if (a == "--split") {
      const char* v = next();
      if (!v) return Usage();
      args.split_layer = std::atoi(v);
    } else if (a == "--seed") {
      const char* v = next();
      if (!v) return Usage();
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--threads") {
      const char* v = next();
      if (!v) return Usage();
      args.threads = std::strtoull(v, nullptr, 10);
    } else if (a == "--engine") {
      const char* v = next();
      if (!v) return Usage();
      args.engines.emplace_back(v);
    } else if (a.rfind("--engine=", 0) == 0) {
      args.engines.emplace_back(a.substr(9));
    } else if (a == "--shards") {
      const char* v = next();
      if (!v) return Usage();
      args.shards = std::strtoull(v, nullptr, 10);
    } else if (a == "--shard-index") {
      const char* v = next();
      if (!v) return Usage();
      args.shard_index = std::strtoull(v, nullptr, 10);
    } else if (a == "--store") {
      const char* v = next();
      if (!v) return Usage();
      args.store_dir = v;
    } else if (a == "--store-stats") {
      args.store_stats = true;
    } else if (a == "--budget-bytes") {
      const char* v = next();
      if (!v) return Usage();
      args.budget_bytes = std::strtoull(v, nullptr, 10);
      args.budget_set = true;
    } else if (a == "--trace") {
      const char* v = next();
      if (!v) return Usage();
      args.trace_path = v;
    } else if (a.rfind("--trace=", 0) == 0) {
      args.trace_path = a.substr(8);
    } else if (a == "--metrics") {
      args.metrics = true;
    } else if (a.rfind("--metrics=", 0) == 0) {
      args.metrics = true;
      args.metrics_path = a.substr(10);
    } else if (a == "--out") {
      const char* v = next();
      if (!v) return Usage();
      args.out_path = v;
    } else if (a == "--json") {
      args.json = true;
    } else if (a == "--naive") {
      args.naive = true;
    } else if (a[0] != '-' && args.command == "merge") {
      args.inputs.push_back(a);
    } else if (a[0] != '-' && args.output.empty()) {
      args.output = a;
    } else {
      return Usage();
    }
  }
  // Observability prologue: name the main track and arm the tracer before
  // any command work so every span of the run is captured. --trace wins
  // over the SPLITLOCK_TRACE environment variable.
  obs::Tracer::Instance().RegisterCurrentThread("main");
  if (!args.trace_path.empty()) {
    obs::Tracer::Instance().Start(args.trace_path);
  } else {
    obs::Tracer::Instance().InitFromEnv();
  }
  int rc = 0;
  bool known_command = true;
  try {
    if (args.command == "stats") rc = CmdStats(args);
    else if (args.command == "lock") rc = CmdLock(args);
    else if (args.command == "flow") rc = CmdFlow(args);
    else if (args.command == "attack") rc = CmdAttack(args);
    else if (args.command == "report") rc = CmdReport(args);
    else if (args.command == "suite") rc = CmdSuite(args);
    else if (args.command == "merge") rc = CmdMerge(args);
    else if (args.command == "store") rc = CmdStore(args);
    else known_command = false;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  // Epilogue runs even when the command failed: a trace of a failing run
  // is exactly what the flag was passed for. Export failure only flips a
  // successful exit code — it never masks the command's own failure.
  const bool tracing = obs::Tracer::Instance().enabled();
  if (tracing && !obs::Tracer::Instance().ExportAndStop()) {
    std::fprintf(stderr, "error: cannot write trace file\n");
    if (rc == 0) rc = 1;
  }
  if (args.metrics) {
    const std::string json = obs::Registry::Instance().Snapshot().ToJson();
    if (args.metrics_path.empty()) {
      std::fprintf(stderr, "%s\n", json.c_str());
    } else if (!WriteFile(args.metrics_path, json + "\n")) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   args.metrics_path.c_str());
      if (rc == 0) rc = 1;
    }
  }
  if (!known_command) return Usage();
  return rc;
}
