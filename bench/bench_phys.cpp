// Physical-design kernel benchmark: sequential vs parallel place & route,
// with a JSON perf record.
//
// bench_runtime showed the annealing placer and the router as the dominant
// *sequential* cost of a campaign job once simulation, SAT and campaign
// orchestration went parallel (PRs 1-3). This harness times the phys layer
// both ways across the suites:
//
//  * PlaceDesign — sequential reference annealer vs speculative batched
//    moves on the exec pool (PlacerOptions.parallel_moves).
//  * RouteDesign + LiftKeyNets — the per-net-stream router at one thread
//    vs the full pool width.
//
// Every timed pair is cross-checked: the speculative placer must produce a
// layout bit-identical to the sequential reference, and the routed layouts
// must be bit-identical across widths. Mismatch counts land in the record
// and fail the run.
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
#include "exec/thread_pool.hpp"
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

// Monotonic seconds since first call; every consumer takes differences.
double Now() {
  static const Stopwatch epoch;
  return epoch.Seconds();
}

struct PhysRecord {
  std::string name;
  size_t gates = 0;
  size_t nets = 0;
  size_t key_bits = 0;
  double place_seq_s = 0;
  double place_par_s = 0;
  double route_1t_s = 0;
  double route_nt_s = 0;
  double hpwl_um = 0;
  size_t place_mismatches = 0;  // parallel layout != sequential reference
  size_t route_mismatches = 0;  // routed layout diverged across widths

  double PlaceSpeedup() const {
    return place_par_s > 0 ? place_seq_s / place_par_s : 0;
  }
  double RouteSpeedup() const {
    return route_nt_s > 0 ? route_1t_s / route_nt_s : 0;
  }
  // The acceptance metric: place+route wall-clock, sequential vs parallel.
  double PlaceRouteSpeedup() const {
    const double par = place_par_s + route_nt_s;
    return par > 0 ? (place_seq_s + route_1t_s) / par : 0;
  }
};

struct BenchConfig {
  bool smoke = false;
  int moves_per_cell = 30;
  size_t key_bits = 32;
};

// One routed flow at the current pool width on a fresh netlist copy (the
// lift pass writes upsized drives back into the netlist).
double TimedRouteAndLift(const phys::Layout& placed, const Netlist& nl,
                         uint64_t seed, phys::Layout* out, Netlist* scratch) {
  *scratch = nl;
  *out = placed;
  out->netlist = scratch;
  phys::RouterOptions ropts;
  ropts.seed = seed;
  const double start = Now();
  phys::RouteDesign(*out, ropts);
  phys::LiftKeyNets(*out, *scratch, 5, seed);
  return Now() - start;
}

PhysRecord RunCircuit(const std::string& name, const Netlist& original,
                      const BenchConfig& cfg) {
  PhysRecord rec;
  rec.name = name;

  lock::AtpgLockOptions lopts;
  lopts.key_bits = cfg.key_bits;
  lopts.seed = 2026;
  lopts.verify_lec = false;
  const lock::AtpgLockResult locked = lock::LockWithAtpg(original, lopts);
  const Netlist nl = lock::RealizeKeyAsTies(locked.locked, locked.key);
  rec.gates = nl.NumLogicGates();
  rec.nets = nl.NumNets();
  rec.key_bits = locked.key.size();

  phys::PlacerOptions popts;
  popts.seed = 2026;
  popts.moves_per_cell = cfg.moves_per_cell;

  // --- Placement: sequential reference vs speculative parallel ---
  popts.parallel_moves = false;
  double start = Now();
  const phys::Layout seq_layout =
      phys::PlaceDesign(nl, phys::Tech::Nangate45Like(), popts);
  rec.place_seq_s = Now() - start;

  popts.parallel_moves = true;
  start = Now();
  const phys::Layout par_layout =
      phys::PlaceDesign(nl, phys::Tech::Nangate45Like(), popts);
  rec.place_par_s = Now() - start;

  if (phys::LayoutFingerprint(seq_layout) !=
      phys::LayoutFingerprint(par_layout)) {
    ++rec.place_mismatches;
  }
  rec.hpwl_um = par_layout.TotalHpwl();

  // --- Routing + lift: one thread vs pool width ---
  const size_t width = exec::ThreadPool::DefaultThreadCount();
  phys::Layout routed_1t, routed_nt;
  Netlist scratch_1t, scratch_nt;
  exec::ThreadPool::SetDefaultThreadCount(1);
  rec.route_1t_s =
      TimedRouteAndLift(par_layout, nl, 2026, &routed_1t, &scratch_1t);
  exec::ThreadPool::SetDefaultThreadCount(width);
  rec.route_nt_s =
      TimedRouteAndLift(par_layout, nl, 2026, &routed_nt, &scratch_nt);
  exec::ThreadPool::SetDefaultThreadCount(0);
  if (phys::LayoutFingerprint(routed_1t) !=
      phys::LayoutFingerprint(routed_nt)) {
    ++rec.route_mismatches;
  }
  return rec;
}

std::string ToJson(const std::vector<PhysRecord>& records, bool smoke,
                   size_t threads) {
  char buf[512];
  std::string json = "{\"bench\":\"bench_phys\",\"schema_version\":" +
                     std::to_string(store::kResultSchemaVersion) + ",";
  std::snprintf(buf, sizeof(buf),
                "\"smoke\":%s,\"threads\":%zu,\"repro_scale\":%.3f,",
                smoke ? "true" : "false", threads, ReproScale());
  json += buf;
  json += "\"circuits\":[";
  for (size_t i = 0; i < records.size(); ++i) {
    const PhysRecord& r = records[i];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"name\":\"%s\",\"gates\":%zu,\"nets\":%zu,\"key_bits\":%zu,"
        "\"place_seq_s\":%.6f,\"place_par_s\":%.6f,\"place_speedup\":%.2f,"
        "\"route_1t_s\":%.6f,\"route_nt_s\":%.6f,\"route_speedup\":%.2f,"
        "\"place_route_speedup\":%.2f,\"hpwl_um\":%.1f,"
        "\"place_mismatches\":%zu,\"route_mismatches\":%zu}",
        i == 0 ? "" : ",", r.name.c_str(), r.gates, r.nets, r.key_bits,
        r.place_seq_s, r.place_par_s, r.PlaceSpeedup(), r.route_1t_s,
        r.route_nt_s, r.RouteSpeedup(), r.PlaceRouteSpeedup(), r.hpwl_um,
        r.place_mismatches, r.route_mismatches);
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

  const size_t width = exec::ThreadPool::DefaultThreadCount();
  std::printf("pool width: %zu threads\n", width);
  std::printf("%-6s | %8s | %11s | %11s | %8s | %11s | %11s | %8s | %8s\n",
              "name", "gates", "place seq", "place par", "speedup",
              "route 1t", "route Nt", "speedup", "p+r");
  std::vector<PhysRecord> records;
  for (const auto& [name, nl] : circuits) {
    PhysRecord rec = RunCircuit(name, nl, cfg);
    std::printf(
        "%-6s | %8zu | %9.4fs | %9.4fs | %7.2fx | %9.4fs | %9.4fs | "
        "%7.2fx | %7.2fx\n",
        rec.name.c_str(), rec.gates, rec.place_seq_s, rec.place_par_s,
        rec.PlaceSpeedup(), rec.route_1t_s, rec.route_nt_s,
        rec.RouteSpeedup(), rec.PlaceRouteSpeedup());
    records.push_back(std::move(rec));
  }

  size_t mismatches = 0;
  for (const PhysRecord& r : records) {
    mismatches += r.place_mismatches + r.route_mismatches;
  }
  std::printf("cross-check: %zu mismatches %s\n", mismatches,
              mismatches == 0
                  ? "(speculative placer and router bit-identical)"
                  : "(BUG: parallel phys diverges!)");

  const std::string json = ToJson(records, cfg.smoke, width);
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
