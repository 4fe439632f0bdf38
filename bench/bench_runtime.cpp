// Sec. IV runtime discussion: per-stage flow runtimes across the suite.
//
// The paper reports 5-18h per ITC'99 benchmark dominated by the DC
// re-synthesis runs (their flow is parallel over partitions but bounded by
// license count). This harness reports the equivalent breakdown for this
// library's flow: lock (synthesis stage) vs physical design (layout stage),
// at the configured REPRO_SCALE.
#include "bench_common.hpp"

namespace splitlock::bench {
namespace {

void PrintTable() {
  PrintHeader("Flow runtime per benchmark (seconds)");
  std::printf("%-6s | %10s | %9s | %9s | %9s | %9s | %9s | %9s | %9s\n", "",
              "gates", "lock (s)", "place (s)", "route (s)", "lift (s)",
              "sta (s)", "pwr (s)", "total (s)");
  PrintRule(104);
  double total = 0.0;
  for (const auto& info : circuits::Itc99Suite()) {
    // Records only: a warm persistent store (SPLITLOCK_STORE) serves the
    // recorded stage times of the run that produced the entry.
    const store::CampaignRecord r = RunItcRecordCached(info.name, 4);
    const core::StageTimes& t = r.times;
    const double row =
        t.lock_s + t.place_s + t.route_s + t.lift_s + t.sta_s + t.analyze_s;
    std::printf("%-6s | %10llu | %9.2f | %9.2f | %9.2f | %9.2f | %9.2f | "
                "%9.2f | %9.2f\n",
                info.name.c_str(),
                static_cast<unsigned long long>(r.logic_gates), t.lock_s,
                t.place_s, t.route_s, t.lift_s, t.sta_s, t.analyze_s, row);
    total += row;
  }
  PrintRule(104);
  std::printf("suite total: %.1f s (paper: 5-18 h per benchmark on a\n"
              "128-core Xeon, dominated by Design Compiler re-synthesis)\n",
              total);
}

void RunRow(benchmark::State& state, const std::string& name) {
  for (auto _ : state) {
    const store::CampaignRecord r = RunItcRecordCached(name, 4);
    state.counters["lock_s"] = r.times.lock_s;
    state.counters["place_s"] = r.times.place_s;
    state.counters["route_s"] = r.times.route_s;
    state.counters["lift_s"] = r.times.lift_s;
    state.counters["sta_s"] = r.times.sta_s;
    state.counters["analyze_s"] = r.times.analyze_s;
  }
}

}  // namespace
}  // namespace splitlock::bench

int main(int argc, char** argv) {
  using namespace splitlock::bench;
  // NO concurrent suite warm-up here, deliberately: this harness reports
  // per-benchmark wall-clock stage times, which running the flows
  // side-by-side would inflate with scheduler contention. Rows fill the
  // cache sequentially via RunItcRecordCached (store-served when warm).
  for (const auto& info : splitlock::circuits::Itc99Suite()) {
    benchmark::RegisterBenchmark(
        ("Runtime/" + info.name).c_str(),
        [name = info.name](benchmark::State& st) { RunRow(st, name); })
        ->Iterations(1)
        ->Unit(benchmark::kSecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  PrintTable();
  return 0;
}
