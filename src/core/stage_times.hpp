// Per-stage wall clocks of one flow or campaign job, and the one table that
// names each stage everywhere it shows up: its obs span (opened by
// core::StageTimer in core/flow.hpp), its key in the record JSON's "times"
// object and its obs time metric. A leaf header, so store/ can serialize
// StageTimes without depending on the flow.
#pragma once

#include <array>
#include <cstddef>

namespace splitlock::core {

// Wall-clock of each flow phase, from the run that produced the result
// (non-canonical: two runs of the same key agree on everything but this).
// place/route/lift are measured inside BuildPhysical around exactly the
// PlaceDesign / RouteDesign / LiftKeyNets calls, so campaign records expose
// where a job's physical-design time goes (see bench_runtime, bench_phys).
// lint:result-schema(v6) persisted as the store records' "times" object —
// a layout change here needs a kResultSchemaVersion bump.
struct StageTimes {
  double lock_s = 0.0;
  double place_s = 0.0;
  double route_s = 0.0;
  double lift_s = 0.0;
  double sta_s = 0.0;      // RunSta alone
  double analyze_s = 0.0;  // toggle-rate + power estimation

  // Artifact-tier I/O (store/artifact_io): zero on a computed flow without
  // a store; a warm flow has artifact_load_s > 0 and place/route/lift == 0.
  // Measures lookup + decode only — the replayed analysis stages report
  // under sta_s/analyze_s, never here, so the stage fields are pairwise
  // non-overlapping intervals.
  double artifact_load_s = 0.0;
  double artifact_save_s = 0.0;

  // End-to-end wall clock of the call that produced this result (flow,
  // replay, or whole campaign job); records serialize it as "elapsed_s".
  // Because every stage field above is a non-overlapping sub-interval of
  // it, StageSumS() <= total_s (up to clock resolution) — tests assert
  // this on both cold and warm runs.
  double total_s = 0.0;

  // Sum of all stage intervals, for the total_s consistency check.
  double StageSumS() const;
  // Adds `other`'s stage intervals to this one's (total_s untouched): how
  // a flow folds in the stages a sub-step timed.
  void AddStages(const StageTimes& other);
};

enum class Stage : size_t {
  kLock, kPlace, kRoute, kLift, kSta, kAnalyze, kArtifactLoad, kArtifactSave
};
inline constexpr size_t kNumStages =
    static_cast<size_t>(Stage::kArtifactSave) + 1;

struct StageInfo {
  const char* span;    // obs span opened around the stage
  const char* key;     // key in the record JSON's "times" object
  const char* metric;  // obs time metric summed over campaign jobs
  double StageTimes::*field;
};

// Indexed by Stage; the record JSON writes "times" in this order.
inline constexpr std::array<StageInfo, kNumStages> kStages = {{
    {"flow.lock", "lock_s", "flow.stage.lock_s", &StageTimes::lock_s},
    {"flow.place", "place_s", "flow.stage.place_s", &StageTimes::place_s},
    {"flow.route", "route_s", "flow.stage.route_s", &StageTimes::route_s},
    {"flow.lift", "lift_s", "flow.stage.lift_s", &StageTimes::lift_s},
    {"flow.sta", "sta_s", "flow.stage.sta_s", &StageTimes::sta_s},
    {"flow.analyze", "analyze_s", "flow.stage.analyze_s",
     &StageTimes::analyze_s},
    {"flow.artifact_load", "artifact_load_s", "flow.stage.artifact_load_s",
     &StageTimes::artifact_load_s},
    {"flow.artifact_save", "artifact_save_s", "flow.stage.artifact_save_s",
     &StageTimes::artifact_save_s},
}};

inline double StageTimes::StageSumS() const {
  double sum = 0.0;
  for (const StageInfo& stage : kStages) sum += this->*stage.field;
  return sum;
}

inline void StageTimes::AddStages(const StageTimes& other) {
  for (const StageInfo& stage : kStages) {
    this->*stage.field += other.*stage.field;
  }
}

}  // namespace splitlock::core
