// SecureSplitFlow: the paper's end-to-end physical design flow (Fig. 3).
//
// Synthesis stage: ATPG-based locking embeds exactly k key bits (fault
// injection + restore circuitry, LEC-verified), then the key is realized as
// TIEHI/TIELO cells. Layout stage: TIE cells are randomized and fixed
// (detached from the cost function), the design is placed and routed, and
// the key-nets are lifted to the BEOL through stacked vias with ECO
// re-route. Finally the layout is split: metals <= split_layer go to the
// untrusted FEOL foundry, the key-net connectivity above is the BEOL
// secret.
//
// The same machinery also produces the evaluation baselines: the
// unprotected layout (Fig. 5 baseline) and the "prelift" locked layout
// (regular PD flow with dont-touch TIE cells, no lifting).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/stage_times.hpp"
#include "lock/atpg_lock.hpp"
#include "netlist/netlist.hpp"
#include "obs/trace.hpp"
#include "phys/layout.hpp"
#include "phys/power.hpp"
#include "phys/router.hpp"
#include "phys/timing.hpp"
#include "split/split.hpp"
#include "util/stopwatch.hpp"

namespace splitlock::core {

struct LayoutCost {
  double die_area_um2 = 0.0;
  double power_uw = 0.0;
  double critical_path_ps = 0.0;
};

// Percent deltas of `ours` relative to `base` (the Fig. 5 quantities).
struct CostDelta {
  double area_percent = 0.0;
  double power_percent = 0.0;
  double timing_percent = 0.0;
};
CostDelta CompareCost(const LayoutCost& base, const LayoutCost& ours);

// Times one stage: opens the stage's span and, when it goes out of scope,
// stores the elapsed seconds in that stage's field of `times`. Keyed by
// Stage, so a span name cannot drift from the field it times.
class StageTimer {
 public:
  StageTimer(Stage stage, StageTimes& times)
      : field_(&(times.*kStages[static_cast<size_t>(stage)].field)),
        span_(kStages[static_cast<size_t>(stage)].span) {}
  ~StageTimer() { *field_ = watch_.Seconds(); }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  double* field_;
  obs::Span span_;
  Stopwatch watch_;  // started after the span opens, read before it closes
};

struct FlowOptions {
  size_t key_bits = 128;
  int split_layer = 4;   // FEOL keeps metals <= split_layer
  // Lift layer defaults to split_layer + 1 (paper: M5 for M4, M7 for M6).
  int lift_layer = 0;    // 0 = split_layer + 1
  double utilization = 0.70;
  int placer_moves_per_cell = 60;
  uint64_t seed = 1;
  uint64_t power_patterns = 2048;

  // Security knobs (the ablations flip these):
  bool randomize_tie_placement = true;  // Fig. 2(b): randomize + fix TIEs
  bool lift_key_nets = true;            // Fig. 2(c): key-nets to the BEOL

  // Future-work mode (paper Sec. V): instead of on-die TIE cells completed
  // by a trusted BEOL fab, the key-nets run to I/O pads and are tied to
  // fixed logic in the (trusted) package routing. Key inputs stay in the
  // physical netlist as boundary pads and the key-nets are routed on the
  // top metal pair regardless of the split layer.
  bool package_mode = false;

  lock::AtpgLockOptions lock;  // key_bits/seed are synced by the flow

  int EffectiveLiftLayer() const {
    return lift_layer > 0 ? lift_layer : split_layer + 1;
  }
};

// Physical view of one netlist: the flow owns the (mutable) netlist and the
// layout; both live behind stable pointers so the bundle can be moved.
struct PhysicalBundle {
  std::unique_ptr<Netlist> netlist;
  std::unique_ptr<phys::Layout> layout;
  phys::TimingReport timing;
  phys::PowerReport power;
  phys::LiftStats lift;
  LayoutCost cost;
  StageTimes times;  // place_s..analyze_s of this build (lock_s unused)
};

struct FlowResult {
  lock::AtpgLockResult lock;   // locked netlist (kKeyIn form) + correct key
  PhysicalBundle physical;     // TIE-realized netlist + secure layout
  split::FeolView feol;        // references physical.{netlist,layout}
  StageTimes times;
};

// Canonical key=value string over every FlowOptions field that affects the
// flow's result, with the same lock-option sync RunSecureFlow applies
// (lock.key_bits/lock.seed are overridden by the top-level values, so they
// do not participate independently). Versioned ("v1;..."): extend the
// string when FlowOptions grows a field, never reorder it.
std::string FlowOptionsCanonical(const FlowOptions& options);

// FNV-1a of FlowOptionsCanonical: the flow-options component of a
// store::StoreKey. Stable across processes; a golden test pins it so store
// keys cannot silently change across refactors.
uint64_t FlowOptionsHash(const FlowOptions& options);

// The full secure flow on `original`.
FlowResult RunSecureFlow(const Netlist& original,
                         const FlowOptions& options = {});

// Place-and-route of an arbitrary physical netlist (no kKeyIn sources) —
// used for the unprotected baseline and the prelift reference. When
// `options.lift_key_nets` is set and the netlist contains flagged key-nets,
// they are lifted exactly as in the secure flow.
PhysicalBundle BuildPhysical(const Netlist& physical_netlist,
                             const FlowOptions& options);

// Warm-start path: rebuilds a FlowResult from deserialized flow artifacts
// (store/artifact_io) without running place/route/lift. The analysis stages
// (STA, toggle rates, power) and the split are *replayed* — they are cheap,
// deterministic functions of the layout, so the result is bit-identical to
// the computed flow that produced the artifacts. `layout` must reference
// `physical_netlist` (DecodeFlowArtifact guarantees this); lock_s, place_s,
// route_s and lift_s stay zero, which is how callers observe the skip.
FlowResult ReplayFlowFromArtifacts(lock::AtpgLockResult lock_result,
                                   std::unique_ptr<Netlist> physical_netlist,
                                   std::unique_ptr<phys::Layout> layout,
                                   const phys::LiftStats& lift,
                                   const FlowOptions& options);

}  // namespace splitlock::core
