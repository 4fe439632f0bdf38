// Table I: CCR (%) for ITC'99 benchmarks when split at M4 and M6.
//
// Paper reference (Sengupta et al., DATE'19, Table I): key-net logical CCR
// ~50% (random guessing), key-net physical CCR ~0%, regular-net CCR rising
// with the split layer (15% at M4 -> 32% at M6 on average). The attack is
// the customized proximity attack with key-gate post-processing.
#include "bench_common.hpp"

namespace splitlock::bench {
namespace {

struct PaperRow {
  double key_logical;
  double key_physical;
  double regular;
};

// Published Table I values, [benchmark][split] with split 0 = M4, 1 = M6.
// -1 marks the b17/M4 attack time-out ("NA").
const std::map<std::string, std::array<PaperRow, 2>> kPaper = {
    {"b14", {{{52, 1, 17}, {54, 2, 47}}}},
    {"b15", {{{49, 0, 15}, {49, 0, 25}}}},
    {"b17", {{{-1, -1, -1}, {51, 1, 21}}}},
    {"b20", {{{54, 0, 17}, {60, 0, 36}}}},
    {"b21", {{{50, 0, 14}, {54, 0, 36}}}},
    {"b22", {{{52, 0, 14}, {55, 0, 25}}}},
};

void RunRow(benchmark::State& state, const std::string& name,
            int split_layer) {
  for (auto _ : state) {
    const store::CampaignRecord r = RunItcRecordCached(name, split_layer);
    state.counters["key_logical_ccr"] = r.score.key_logical_ccr_percent;
    state.counters["key_physical_ccr"] = r.score.key_physical_ccr_percent;
    state.counters["regular_ccr"] = r.score.regular_ccr_percent;
    state.counters["broken_conns"] = static_cast<double>(r.broken_connections);
  }
}

void PrintTable() {
  PrintHeader(
      "Table I - CCR (%) for ITC'99 when split at M4 and M6; measured "
      "(paper)");
  std::printf("%-6s | %-42s | %-42s\n", "", "M4: key logical / key physical "
              "/ regular", "M6: key logical / key physical / regular");
  PrintRule(98);
  double sums[6] = {0, 0, 0, 0, 0, 0};
  int count = 0;
  for (const auto& info : circuits::Itc99Suite()) {
    const auto& paper = kPaper.at(info.name);
    std::string cells[2][3];
    double measured[6];
    for (int s = 0; s < 2; ++s) {
      const store::CampaignRecord r =
          RunItcRecordCached(info.name, s == 0 ? 4 : 6);
      measured[s * 3 + 0] = r.score.key_logical_ccr_percent;
      measured[s * 3 + 1] = r.score.key_physical_ccr_percent;
      measured[s * 3 + 2] = r.score.regular_ccr_percent;
      cells[s][0] = Cell(measured[s * 3 + 0], paper[s].key_logical);
      cells[s][1] = Cell(measured[s * 3 + 1], paper[s].key_physical);
      cells[s][2] = Cell(measured[s * 3 + 2], paper[s].regular);
    }
    std::printf("%-6s | %s %s %s | %s %s %s\n", info.name.c_str(),
                cells[0][0].c_str(), cells[0][1].c_str(), cells[0][2].c_str(),
                cells[1][0].c_str(), cells[1][1].c_str(),
                cells[1][2].c_str());
    for (int i = 0; i < 6; ++i) sums[i] += measured[i];
    ++count;
  }
  PrintRule(98);
  std::printf("%-6s | %s %s %s | %s %s %s\n", "avg",
              Cell(sums[0] / count, 51).c_str(),
              Cell(sums[1] / count, 0).c_str(),
              Cell(sums[2] / count, 15).c_str(),
              Cell(sums[3] / count, 54).c_str(),
              Cell(sums[4] / count, 1).c_str(),
              Cell(sums[5] / count, 32).c_str());
  std::printf(
      "\nexpected shape: key logical CCR ~50%% (random guessing), key\n"
      "physical CCR ~0%%, regular CCR higher at M6 than at M4.\n");
}

}  // namespace
}  // namespace splitlock::bench

int main(int argc, char** argv) {
  using namespace splitlock::bench;
  // Every row of both split layers is needed: warm the cache as two
  // concurrent suite campaigns.
  WarmItcSuiteCache(4);
  WarmItcSuiteCache(6);
  for (const auto& info : splitlock::circuits::Itc99Suite()) {
    for (int split : {4, 6}) {
      benchmark::RegisterBenchmark(
          ("Table1/" + info.name + "/M" + std::to_string(split)).c_str(),
          [name = info.name, split](benchmark::State& st) {
            RunRow(st, name, split);
          })
          ->Iterations(1)
          ->Unit(benchmark::kSecond);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  PrintTable();
  return 0;
}
