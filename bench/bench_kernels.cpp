// Cold-vs-warm flow benchmark, with a JSON perf record.
//
// Times a full RunSecureFlow against the warm path a store-backed campaign
// takes instead — artifact decode (store/artifact_io) plus the replayed
// analysis tail (core::ReplayFlowFromArtifacts) — across the ISCAS-85 and
// ITC'99 suites. Every circuit is also cross-checked: the replayed flow
// must be indistinguishable from the computed one (re-encoded artifact
// bytes, net arrivals, cost figures, layout fingerprint, sink stubs), and
// mismatch counts land in the record and fail the run. The JSON record
// goes to stdout (and to $BENCH_KERNELS_JSON when set) so CI and future
// changes can track the perf trajectory.
//
// Unlike the table harnesses this binary does not use google-benchmark, so
// it builds everywhere; `--smoke` (or BENCH_KERNELS_SMOKE=1) shrinks the
// workload to a compile-and-run sanity check for CI.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "circuits/suites.hpp"
#include "core/flow.hpp"
#include "obs/metrics.hpp"
#include "store/artifact_io.hpp"
#include "store/result_store.hpp"
#include "util/env.hpp"
#include "util/stopwatch.hpp"

namespace splitlock::bench {
namespace {

// Monotonic seconds since first call; every consumer takes differences.
double Now() {
  static const Stopwatch epoch;
  return epoch.Seconds();
}

struct KernelRecord {
  std::string name;
  size_t gates = 0;
  bool flow_ran = false;
  double flow_cold_s = 0;        // full RunSecureFlow
  double flow_warm_s = 0;        // artifact decode + replayed analysis
  size_t artifact_bytes = 0;     // EncodeFlowArtifact payload size
  size_t flow_mismatches = 0;    // round-trip / replay equivalence failures

  double FlowWarmSpeedup() const {
    return flow_warm_s > 0 ? flow_cold_s / flow_warm_s : 0;
  }
};

struct BenchConfig {
  bool smoke = false;
  // The secure flow is costly on the largest ISCAS members; they are
  // skipped above this size.
  size_t flow_max_gates = 4000;
  size_t flow_key_bits = 32;
};

KernelRecord RunCircuit(const std::string& name, const Netlist& nl,
                        const BenchConfig& cfg) {
  KernelRecord rec;
  rec.name = name;
  rec.gates = nl.NumLogicGates();
  if (nl.NumLogicGates() > cfg.flow_max_gates) {
    std::printf("%s: flow skipped (%zu gates > cap %zu)\n", name.c_str(),
                nl.NumLogicGates(), cfg.flow_max_gates);
    return rec;
  }
  try {
    core::FlowOptions fopt;
    // Small ISCAS members cannot pay for 32 restore comparators; scale
    // the key down and relax the gates that exist to reject tiny runs.
    fopt.key_bits = std::max<size_t>(
        4, std::min(cfg.flow_key_bits, nl.NumLogicGates() / 8));
    fopt.seed = 2019;
    fopt.lock.verify_lec = false;
    fopt.lock.require_area_gain = false;

    double start = Now();
    const core::FlowResult cold = core::RunSecureFlow(nl, fopt);
    rec.flow_cold_s = Now() - start;
    rec.flow_ran = true;

    const std::string payload = store::EncodeFlowArtifact(
        cold.lock, *cold.physical.netlist, *cold.physical.layout,
        cold.physical.lift);
    rec.artifact_bytes = payload.size();

    // Warm path: deserialize + replay the analysis tail.
    start = Now();
    std::optional<store::FlowArtifact> art =
        store::DecodeFlowArtifact(payload);
    core::FlowResult warm;
    if (art) {
      warm = core::ReplayFlowFromArtifacts(
          std::move(art->lock), std::move(art->netlist),
          std::move(art->layout), art->lift, fopt);
    }
    rec.flow_warm_s = Now() - start;

    // Equivalence cross-checks, outside the timed regions: the replayed
    // flow must be indistinguishable from the computed one.
    if (!art) {
      ++rec.flow_mismatches;
      return rec;
    }
    const std::string reencoded = store::EncodeFlowArtifact(
        warm.lock, *warm.physical.netlist, *warm.physical.layout,
        warm.physical.lift);
    if (reencoded != payload) ++rec.flow_mismatches;
    if (warm.physical.timing.net_arrival_ps !=
        cold.physical.timing.net_arrival_ps) {
      ++rec.flow_mismatches;
    }
    if (warm.physical.cost.die_area_um2 != cold.physical.cost.die_area_um2 ||
        warm.physical.cost.power_uw != cold.physical.cost.power_uw ||
        warm.physical.cost.critical_path_ps !=
            cold.physical.cost.critical_path_ps) {
      ++rec.flow_mismatches;
    }
    if (phys::LayoutFingerprint(*warm.physical.layout) !=
        phys::LayoutFingerprint(*cold.physical.layout)) {
      ++rec.flow_mismatches;
    }
    if (warm.feol.sink_stubs.size() != cold.feol.sink_stubs.size()) {
      ++rec.flow_mismatches;
    }
  } catch (const std::exception& e) {
    std::printf("%s: flow skipped (%s)\n", name.c_str(), e.what());
  }
  return rec;
}

std::string ToJson(const std::vector<KernelRecord>& records, bool smoke) {
  char buf[512];
  std::string json = "{\"bench\":\"bench_kernels\",\"schema_version\":" +
                     std::to_string(store::kResultSchemaVersion) + ",";
  std::snprintf(buf, sizeof(buf), "\"smoke\":%s,\"repro_scale\":%.3f,",
                smoke ? "true" : "false", ReproScale());
  json += buf;
  json += "\"circuits\":[";
  for (size_t i = 0; i < records.size(); ++i) {
    const KernelRecord& r = records[i];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"name\":\"%s\",\"gates\":%zu,"
        "\"flow_ran\":%s,\"flow_cold_s\":%.6f,\"flow_warm_s\":%.6f,"
        "\"flow_warm_speedup\":%.2f,\"artifact_bytes\":%zu,"
        "\"flow_mismatches\":%zu}",
        i == 0 ? "" : ",", r.name.c_str(), r.gates,
        r.flow_ran ? "true" : "false", r.flow_cold_s, r.flow_warm_s,
        r.FlowWarmSpeedup(), r.artifact_bytes, r.flow_mismatches);
    json += buf;
  }
  json += "],\"metrics\":";
  // Process-wide metrics snapshot (counts + histograms only: times are
  // wall-clock and would churn the record diff run to run).
  json += obs::Registry::Instance().Snapshot().CountsJson();
  json += '}';
  return json;
}

int Main(int argc, char** argv) {
  BenchConfig cfg;
  std::string json_path;
  if (const char* env = std::getenv("BENCH_KERNELS_SMOKE")) {
    cfg.smoke = std::strcmp(env, "0") != 0;
  }
  if (const char* env = std::getenv("BENCH_KERNELS_JSON")) json_path = env;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) cfg.smoke = true;
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }
  if (cfg.smoke) cfg.flow_key_bits = 8;

  const double itc_scale = cfg.smoke ? 0.05 : ReproScale();
  std::vector<std::pair<std::string, Netlist>> circuits;
  for (const auto& info : circuits::IscasSuite()) {
    if (cfg.smoke && info.name != "c432" && info.name != "c880") continue;
    circuits.emplace_back(info.name, circuits::MakeIscas(info.name));
  }
  for (const auto& info : circuits::Itc99Suite()) {
    if (cfg.smoke && info.name != "b14") continue;
    circuits.emplace_back(info.name, circuits::MakeItc99(info.name, itc_scale));
  }

  std::vector<KernelRecord> records;
  std::printf("%-6s | %8s | %10s | %10s | %8s | %10s\n", "name", "gates",
              "cold flow", "warm flow", "speedup", "blob (KB)");
  for (const auto& [name, nl] : circuits) {
    KernelRecord rec = RunCircuit(name, nl, cfg);
    if (rec.flow_ran) {
      std::printf("%-6s | %8zu | %9.3fs | %9.3fs | %7.1fx | %10.1f\n",
                  rec.name.c_str(), rec.gates, rec.flow_cold_s,
                  rec.flow_warm_s, rec.FlowWarmSpeedup(),
                  rec.artifact_bytes / 1024.0);
    }
    records.push_back(std::move(rec));
  }

  size_t mismatches = 0;
  for (const KernelRecord& r : records) mismatches += r.flow_mismatches;
  std::printf("cross-check: %zu mismatches %s\n", mismatches,
              mismatches == 0 ? "(warm replay bit-identical to cold flow)"
                              : "(BUG: warm replay diverges!)");

  const std::string json = ToJson(records, cfg.smoke);
  std::printf("%s\n", json.c_str());
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json << "\n";
    std::printf("perf record written to %s\n", json_path.c_str());
  }
  return mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace splitlock::bench

int main(int argc, char** argv) { return splitlock::bench::Main(argc, argv); }
