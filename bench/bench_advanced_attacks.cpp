// Beyond-the-tables claims of the paper, made executable:
//
//  A. ML attack (footnote 3 / Sec. V): a learning-based matcher trained on
//     the attacker's own FEOL recovers regular nets better than naive
//     proximity but stays at coin flipping on the key-nets — "any proximity
//     attack has to rely on FEOL-level hints, and such hints are inherently
//     avoided for the secret key".
//  B. Oracle-less SAT reasoning (Sec. II-C): without a functional oracle
//     the key space cannot be pruned (many sampled keys, many distinct
//     behaviours, nothing to rank them by); WITH an oracle — which the
//     split-manufacturing threat model excludes — the classical SAT attack
//     extracts a functionally correct key quickly. The missing oracle is
//     the security.
//  C. Package-mode future work (Sec. V): key-nets to I/O pads tied in the
//     trusted package; security metrics match the BEOL variant.
//
// All attacks dispatch through the attack-engine registry (the shared
// adapters); per-round SAT telemetry (conflicts, encode/solve/oracle
// wall-ms) lands in the JSON record emitted to stdout and, with
// --json=PATH or $BENCH_ADVANCED_JSON, to a file.
#include "bench_common.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "lock/atpg_lock.hpp"
#include "phys/router.hpp"

namespace splitlock::bench {
namespace {

constexpr const char* kBenchName = "b14";

// --- A: ML attack vs proximity attack --------------------------------------

struct MlRow {
  attack::CcrReport proximity;
  attack::CcrReport ml;
  double ml_training_accuracy = 0.0;
};

const MlRow& RunMlCached(int split_layer) {
  static std::map<int, MlRow> cache;
  auto it = cache.find(split_layer);
  if (it != cache.end()) return it->second;
  const FlowScore& base = RunItcFlowCached(kBenchName, split_layer);
  MlRow row;
  row.proximity = base.score.ccr;
  const attack::AttackReport ml = RunEngineOnFeol(base.flow.feol, "ml");
  row.ml = attack::ComputeCcr(base.flow.feol, ml.assignment);
  row.ml_training_accuracy = ml.counters.at("training_accuracy_percent");
  return cache.emplace(split_layer, row).first->second;
}

// --- B: SAT attack with/without oracle --------------------------------------

struct SatRow {
  attack::AttackReport oracle_less;
  attack::AttackReport sequential;  // "sat" engine
  size_t key_bits = 0;
};

const SatRow& RunSatCached() {
  static SatRow row;
  static bool done = false;
  if (done) return row;
  // A moderate design keeps the with-oracle SAT attack fast enough to
  // demonstrate the contrast.
  const Netlist original = circuits::MakeItc99(kBenchName, 0.05);
  lock::AtpgLockOptions opts;
  opts.key_bits = 48;
  opts.seed = 2019;
  opts.verify_lec = false;
  const lock::AtpgLockResult lock = lock::LockWithAtpg(original, opts);
  row.key_bits = lock.key.size();

  attack::AttackContext ctx;
  ctx.locked = &lock.locked;
  ctx.oracle = &original;
  ctx.seed = 2019;
  const auto run = [&](const char* spec) {
    attack::AttackReport report = attack::RunAttack(ctx, spec);
    if (!report.ok) {
      throw std::runtime_error(std::string("attack engine ") + spec + ": " +
                               report.error);
    }
    return report;
  };
  row.oracle_less = run("oracle-less:samples=512,patterns=4096");
  row.sequential = run("sat");
  done = true;
  return row;
}

// --- C: package mode --------------------------------------------------------

struct PackageRow {
  attack::CcrReport ccr;
  double ideal_oer = 0.0;
  size_t key_pads = 0;
};

const PackageRow& RunPackageCached() {
  static PackageRow row;
  static bool done = false;
  if (done) return row;
  const Netlist original = circuits::MakeItc99(kBenchName, ReproScale());
  core::FlowOptions opts = DefaultFlowOptions(4, 2019);
  opts.package_mode = true;
  const core::FlowResult flow = core::RunSecureFlow(original, opts);
  row.key_pads = flow.physical.netlist->KeyInputs().size();
  const attack::AttackReport atk = RunEngineOnFeol(flow.feol, "proximity");
  row.ccr = attack::ComputeCcr(flow.feol, atk.assignment);
  attack::AttackContext ctx;
  ctx.locked = &flow.lock.locked;
  ctx.oracle = &original;
  ctx.correct_key = flow.lock.key;
  ctx.seed = 2019;
  const attack::AttackReport ideal = attack::RunAttack(
      ctx, "ideal:guesses=" +
               std::to_string(std::min<uint64_t>(ReproGuesses(), 20000)) +
               ",patterns_per_guess=64");
  row.ideal_oer = ideal.ok ? ideal.counters.at("oer_percent") : 0.0;
  done = true;
  return row;
}

// --- JSON record ------------------------------------------------------------

std::string CcrJson(const attack::CcrReport& ccr) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"regular\":%.4f,\"key_logical\":%.4f,"
                "\"key_physical\":%.4f}",
                ccr.regular_ccr_percent, ccr.key_logical_ccr_percent,
                ccr.key_physical_ccr_percent);
  return buf;
}

std::string ToJson() {
  std::string json = "{\"bench\":\"bench_advanced_attacks\",\"schema_version\":" +
                     std::to_string(store::kResultSchemaVersion) + ",";
  char buf[256];
  std::snprintf(buf, sizeof(buf), "\"repro_scale\":%.4f,\"design\":\"%s\",",
                ReproScale(), kBenchName);
  json += buf;
  json += "\"ml\":[";
  bool first = true;
  for (int split : {4, 6}) {
    const MlRow& row = RunMlCached(split);
    if (!first) json += ',';
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"split_layer\":%d,\"training_accuracy\":%.4f,"
                  "\"proximity\":",
                  split, row.ml_training_accuracy);
    json += buf;
    json += CcrJson(row.proximity);
    json += ",\"ml\":";
    json += CcrJson(row.ml);
    json += '}';
  }
  json += "],";
  const SatRow& sat = RunSatCached();
  std::snprintf(buf, sizeof(buf),
                "\"sat_contrast\":{\"key_bits\":%zu,\"oracle_less\":",
                sat.key_bits);
  json += buf;
  // The full per-round telemetry rides in each report's "rounds" array —
  // conflicts, encode/solve/oracle wall-ms per DIP round — replacing the
  // opaque totals this bench used to print.
  json += sat.oracle_less.ToJson();
  json += ",\"sequential\":";
  json += sat.sequential.ToJson();
  json += "},";
  const PackageRow& pkg = RunPackageCached();
  std::snprintf(buf, sizeof(buf),
                "\"package_mode\":{\"key_pads\":%zu,\"ideal_oer\":%.4f,"
                "\"proximity_ccr\":",
                pkg.key_pads, pkg.ideal_oer);
  json += buf;
  json += CcrJson(pkg.ccr);
  json += "}}";
  return json;
}

void PrintTables() {
  PrintHeader("A. Learning-based attack vs proximity attack (b14)");
  std::printf("%-10s | %28s | %28s\n", "split",
              "proximity: reg / keylog / keyphys",
              "ML: reg / keylog / keyphys");
  PrintRule(76);
  for (int split : {4, 6}) {
    const MlRow& row = RunMlCached(split);
    std::printf("M%-9d | %8.1f / %6.1f / %7.1f | %8.1f / %6.1f / %7.1f\n",
                split, row.proximity.regular_ccr_percent,
                row.proximity.key_logical_ccr_percent,
                row.proximity.key_physical_ccr_percent,
                row.ml.regular_ccr_percent, row.ml.key_logical_ccr_percent,
                row.ml.key_physical_ccr_percent);
  }
  std::printf("(ML training accuracy on intact connections: %.1f%%)\n",
              RunMlCached(4).ml_training_accuracy);
  std::printf("claim: no attack family beats coin flipping on the key "
              "(logical CCR ~50, physical ~0).\n");

  PrintHeader("B. The worth of the missing oracle (b14 @ 0.05 scale, 48 "
              "key bits)");
  const SatRow& sat = RunSatCached();
  std::printf("oracle-less probe: %.0f sampled keys -> %.0f distinct "
              "behaviours; nothing ranks them.\n",
              sat.oracle_less.counters.at("sampled_keys"),
              sat.oracle_less.counters.at("distinct_functions"));
  std::printf("with an oracle (threat model violated): SAT attack %s after "
              "%.0f DIPs; recovered key functionally correct: %s\n",
              sat.sequential.counters.at("finished") > 0 ? "finished"
                                                         : "budget-limited",
              sat.sequential.counters.at("dips_used"),
              sat.sequential.functionally_correct ? "YES" : "no");

  PrintHeader("C. Future work (Sec. V): key via I/O pads + trusted package");
  const PackageRow& pkg = RunPackageCached();
  std::printf("key pads on boundary: %zu\n", pkg.key_pads);
  std::printf("proximity attack, key physical CCR: %.1f %% (pads carry no "
              "on-die value)\n",
              pkg.ccr.key_physical_ccr_percent);
  std::printf("random pad-value guessing, OER: %.2f %%\n", pkg.ideal_oer);
  std::printf("claim: security equals the BEOL variant — the bit "
              "assignment is simply hidden one level higher.\n");
}

}  // namespace
}  // namespace splitlock::bench

int main(int argc, char** argv) {
  using namespace splitlock::bench;
  // Strip our flags before google-benchmark sees (and rejects) them.
  std::string json_path;
  if (const char* env = std::getenv("BENCH_ADVANCED_JSON")) json_path = env;
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  argc = out_argc;

  for (int split : {4, 6}) {
    benchmark::RegisterBenchmark(
        ("MlAttack/M" + std::to_string(split)).c_str(),
        [split](benchmark::State& st) {
          for (auto _ : st) {
            const MlRow& row = RunMlCached(split);
            st.counters["ml_key_logical"] =
                row.ml.key_logical_ccr_percent;
            st.counters["ml_regular"] = row.ml.regular_ccr_percent;
          }
        })
        ->Iterations(1)
        ->Unit(benchmark::kSecond);
  }
  benchmark::RegisterBenchmark("SatContrast", [](benchmark::State& st) {
    for (auto _ : st) {
      const SatRow& row = RunSatCached();
      st.counters["dips"] = row.sequential.counters.at("dips_used");
      st.counters["distinct_behaviours"] =
          row.oracle_less.counters.at("distinct_functions");
    }
  })->Iterations(1)->Unit(benchmark::kSecond);
  benchmark::RegisterBenchmark("PackageMode", [](benchmark::State& st) {
    for (auto _ : st) {
      const PackageRow& row = RunPackageCached();
      st.counters["key_physical_ccr"] = row.ccr.key_physical_ccr_percent;
      st.counters["ideal_oer"] = row.ideal_oer;
    }
  })->Iterations(1)->Unit(benchmark::kSecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  PrintTables();
  const std::string json = splitlock::bench::ToJson();
  std::printf("%s\n", json.c_str());
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json << "\n";
    std::printf("perf record written to %s\n", json_path.c_str());
  }
  return 0;
}
