// Physical-design benchmark: place and route+lift times per circuit, with
// a JSON perf record.
//
// For every ISCAS'85 and ITC'99 circuit under a seeded ATPG lock with the
// key realized as TIE cells, this harness times PlaceDesign and
// RouteDesign + LiftKeyNets, and records the placement's HPWL and the
// routed layout's fingerprint, so two builds' records can be diffed for
// layout changes. In ctest, the PhysGolden tests in
// tests/test_phys_parallel.cpp pin the layout bits.
//
// Like bench_kernels this binary avoids google-benchmark so it builds
// everywhere; `--smoke` (or BENCH_PHYS_SMOKE=1) shrinks the workload for
// CI, and the JSON record goes to stdout (and --json=PATH / $BENCH_PHYS_JSON).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "circuits/suites.hpp"
#include "lock/atpg_lock.hpp"
#include "lock/key.hpp"
#include "obs/metrics.hpp"
#include "phys/placer.hpp"
#include "phys/router.hpp"
#include "store/result_store.hpp"
#include "util/env.hpp"
#include "util/stopwatch.hpp"

namespace splitlock::bench {
namespace {

struct PhysRecord {
  std::string name;
  size_t gates = 0;
  size_t nets = 0;
  size_t key_bits = 0;
  double place_s = 0;
  double route_lift_s = 0;
  double hpwl_um = 0;
  uint64_t fingerprint = 0;  // LayoutFingerprint after route + lift
};

struct BenchConfig {
  bool smoke = false;
  int moves_per_cell = 30;
  size_t key_bits = 32;
};

PhysRecord RunCircuit(const std::string& name, const Netlist& original,
                      const BenchConfig& cfg) {
  PhysRecord rec;
  rec.name = name;

  lock::AtpgLockOptions lopts;
  lopts.key_bits = cfg.key_bits;
  lopts.seed = 2026;
  lopts.verify_lec = false;
  const lock::AtpgLockResult locked = lock::LockWithAtpg(original, lopts);
  // The lift pass writes upsized drives back into the netlist.
  Netlist nl = lock::RealizeKeyAsTies(locked.locked, locked.key);
  rec.gates = nl.NumLogicGates();
  rec.nets = nl.NumNets();
  rec.key_bits = locked.key.size();

  phys::PlacerOptions popts;
  popts.seed = 2026;
  popts.moves_per_cell = cfg.moves_per_cell;
  const Stopwatch place;
  phys::Layout layout =
      phys::PlaceDesign(nl, phys::Tech::Nangate45Like(), popts);
  rec.place_s = place.Seconds();
  rec.hpwl_um = layout.TotalHpwl();

  phys::RouterOptions ropts;
  ropts.seed = 2026;
  const Stopwatch route;
  phys::RouteDesign(layout, ropts);
  phys::LiftKeyNets(layout, nl, 5, 2026);
  rec.route_lift_s = route.Seconds();
  rec.fingerprint = phys::LayoutFingerprint(layout);
  return rec;
}

std::string ToJson(const std::vector<PhysRecord>& records, bool smoke) {
  char buf[512];
  std::string json = "{\"bench\":\"bench_phys\",\"schema_version\":" +
                     std::to_string(store::kResultSchemaVersion) + ",";
  std::snprintf(buf, sizeof(buf),
                "\"smoke\":%s,\"repro_scale\":%.3f,",
                smoke ? "true" : "false", ReproScale());
  json += buf;
  json += "\"circuits\":[";
  for (size_t i = 0; i < records.size(); ++i) {
    const PhysRecord& r = records[i];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"name\":\"%s\",\"gates\":%zu,\"nets\":%zu,\"key_bits\":%zu,"
        "\"place_s\":%.6f,\"route_lift_s\":%.6f,\"hpwl_um\":%.1f,"
        "\"fingerprint\":\"%016llx\"}",
        i == 0 ? "" : ",", r.name.c_str(), r.gates, r.nets, r.key_bits,
        r.place_s, r.route_lift_s, r.hpwl_um,
        static_cast<unsigned long long>(r.fingerprint));
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
  if (const char* env = std::getenv("BENCH_PHYS_SMOKE")) {
    cfg.smoke = std::strcmp(env, "0") != 0;
  }
  if (const char* env = std::getenv("BENCH_PHYS_JSON")) json_path = env;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) cfg.smoke = true;
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }
  if (cfg.smoke) {
    cfg.moves_per_cell = 6;
    cfg.key_bits = 16;
  }

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

  std::printf("%-6s | %8s | %10s | %12s | %12s | %16s\n", "name", "gates",
              "place", "route+lift", "hpwl um", "fingerprint");
  std::vector<PhysRecord> records;
  for (const auto& [name, nl] : circuits) {
    PhysRecord rec = RunCircuit(name, nl, cfg);
    std::printf("%-6s | %8zu | %9.4fs | %11.4fs | %12.1f | %016llx\n",
                rec.name.c_str(), rec.gates, rec.place_s, rec.route_lift_s,
                rec.hpwl_um, static_cast<unsigned long long>(rec.fingerprint));
    records.push_back(std::move(rec));
  }

  const std::string json = ToJson(records, cfg.smoke);
  std::printf("%s\n", json.c_str());
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json << "\n";
    std::printf("perf record written to %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace splitlock::bench

int main(int argc, char** argv) { return splitlock::bench::Main(argc, argv); }
