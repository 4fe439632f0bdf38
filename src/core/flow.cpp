#include "core/flow.hpp"

#include <cstdio>
#include <string>

#include "lock/key.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phys/placer.hpp"
#include "sim/simulator.hpp"
#include "util/hash.hpp"
#include "util/stopwatch.hpp"

namespace splitlock::core {
namespace {

// Flow-level run counts (deterministic: one per top-level call). The
// per-stage seconds live in StageTimes, which campaign.cpp adds to the
// obs time metrics once per job.
obs::Counter* FlowRunCounter() {
  static obs::Counter* c =
      obs::Registry::Instance().RegisterCounter("core.flow.runs");
  return c;
}

obs::Counter* FlowReplayCounter() {
  static obs::Counter* c =
      obs::Registry::Instance().RegisterCounter("core.flow.replays");
  return c;
}

LayoutCost MeasureCost(const PhysicalBundle& bundle) {
  LayoutCost cost;
  cost.die_area_um2 = bundle.layout->DieAreaUm2();
  cost.power_uw = bundle.power.TotalUw();
  cost.critical_path_ps = bundle.timing.critical_path_ps;
  return cost;
}

// The analysis tail shared by the computed flow and the artifact replay:
// STA (timed as sta_s), then toggle-rate + power estimation (analyze_s),
// then the cost rollup. Pure function of (layout, netlist, options), which
// is what makes replaying it on deserialized artifacts bit-identical to
// the flow that produced them.
void AnalyzePhysicalBundle(PhysicalBundle& bundle,
                           const FlowOptions& options) {
  {
    const StageTimer timer(Stage::kSta, bundle.times);
    bundle.timing = phys::RunSta(*bundle.layout);
  }

  {
    const StageTimer timer(Stage::kAnalyze, bundle.times);
    const std::vector<double> toggles = EstimateToggleRates(
        *bundle.netlist, options.power_patterns, options.seed ^ 0x777);
    bundle.power = phys::EstimatePower(*bundle.layout, toggles);
  }
  bundle.cost = MeasureCost(bundle);
}

}  // namespace

std::string FlowOptionsCanonical(const FlowOptions& options) {
  const auto num = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  const auto u64 = [](uint64_t v) { return std::to_string(v); };
  // lock.key_bits/lock.seed are synced from the top-level fields by
  // RunSecureFlow, so they are intentionally absent here.
  std::string s = "v1";
  s += ";key_bits=" + u64(options.key_bits);
  s += ";split_layer=" + std::to_string(options.split_layer);
  s += ";lift_layer=" + std::to_string(options.lift_layer);
  s += ";utilization=" + num(options.utilization);
  s += ";placer_moves_per_cell=" + std::to_string(options.placer_moves_per_cell);
  s += ";seed=" + u64(options.seed);
  s += ";power_patterns=" + u64(options.power_patterns);
  s += ";randomize_tie_placement=" + u64(options.randomize_tie_placement);
  s += ";lift_key_nets=" + u64(options.lift_key_nets);
  s += ";package_mode=" + u64(options.package_mode);
  s += ";lock.max_cut_leaves=" + u64(options.lock.max_cut_leaves);
  s += ";lock.max_minterms=" + u64(options.lock.max_minterms);
  s += ";lock.max_cubes=" + u64(options.lock.max_cubes);
  s += ";lock.partitions=" + u64(options.lock.partitions);
  s += ";lock.min_bias=" + num(options.lock.min_bias);
  s += ";lock.bias_patterns=" + u64(options.lock.bias_patterns);
  s += ";lock.check_patterns=" + u64(options.lock.check_patterns);
  s += ";lock.verify_lec=" + u64(options.lock.verify_lec);
  s += ";lock.require_area_gain=" + u64(options.lock.require_area_gain);
  return s;
}

uint64_t FlowOptionsHash(const FlowOptions& options) {
  return util::Fnv1a(FlowOptionsCanonical(options));
}

CostDelta CompareCost(const LayoutCost& base, const LayoutCost& ours) {
  auto pct = [](double b, double o) {
    return b == 0.0 ? 0.0 : 100.0 * (o - b) / b;
  };
  CostDelta d;
  d.area_percent = pct(base.die_area_um2, ours.die_area_um2);
  d.power_percent = pct(base.power_uw, ours.power_uw);
  d.timing_percent = pct(base.critical_path_ps, ours.critical_path_ps);
  return d;
}

PhysicalBundle BuildPhysical(const Netlist& physical_netlist,
                             const FlowOptions& options) {
  const Stopwatch t_total;
  PhysicalBundle bundle;
  bundle.netlist = std::make_unique<Netlist>(physical_netlist.Compacted());

  phys::PlacerOptions placer;
  placer.utilization = options.utilization;
  placer.seed = options.seed ^ 0x9e3779b9;
  placer.moves_per_cell = options.placer_moves_per_cell;
  placer.randomize_tie_cells = options.randomize_tie_placement;
  placer.key_inputs_as_pads = options.package_mode;
  {
    const StageTimer timer(Stage::kPlace, bundle.times);
    bundle.layout = std::make_unique<phys::Layout>(phys::PlaceDesign(
        *bundle.netlist, phys::Tech::Nangate45Like(), placer));
  }

  phys::RouterOptions router;
  router.seed = options.seed ^ 0x51ed2701;
  router.route_key_nets_as_regular = !options.lift_key_nets;
  {
    const StageTimer timer(Stage::kRoute, bundle.times);
    phys::RouteDesign(*bundle.layout, router);
  }

  if (options.lift_key_nets) {
    // Package mode routes the key-nets on the top metal pair out to the
    // pads, independent of the split layer.
    const int lift_layer =
        options.package_mode
            ? bundle.layout->tech.NumLayers() - 1
            : options.EffectiveLiftLayer();
    const StageTimer timer(Stage::kLift, bundle.times);
    bundle.lift = phys::LiftKeyNets(*bundle.layout, *bundle.netlist,
                                    lift_layer, options.seed ^ 0x1f2e3d4c);
  }

  AnalyzePhysicalBundle(bundle, options);
  bundle.times.total_s = t_total.Seconds();
  return bundle;
}

FlowResult RunSecureFlow(const Netlist& original, const FlowOptions& options) {
  FlowRunCounter()->Add(1);
  const Stopwatch t_total;
  FlowResult result;

  {
    const StageTimer timer(Stage::kLock, result.times);
    lock::AtpgLockOptions lock_opts = options.lock;
    lock_opts.key_bits = options.key_bits;
    lock_opts.seed = options.seed;
    result.lock = lock::LockWithAtpg(original, lock_opts);
  }

  // Package mode keeps the kKeyIn sources as pads; otherwise the key is
  // realized as on-die TIE cells.
  const Netlist realized =
      options.package_mode
          ? result.lock.locked
          : lock::RealizeKeyAsTies(result.lock.locked, result.lock.key);

  result.physical = BuildPhysical(realized, options);
  result.times.AddStages(result.physical.times);

  result.feol =
      split::SplitLayout(*result.physical.layout, options.split_layer);
  result.times.total_s = t_total.Seconds();
  return result;
}

FlowResult ReplayFlowFromArtifacts(lock::AtpgLockResult lock_result,
                                   std::unique_ptr<Netlist> physical_netlist,
                                   std::unique_ptr<phys::Layout> layout,
                                   const phys::LiftStats& lift,
                                   const FlowOptions& options) {
  FlowReplayCounter()->Add(1);
  obs::Span span("flow.replay");
  const Stopwatch t_total;
  FlowResult result;
  result.lock = std::move(lock_result);
  result.physical.netlist = std::move(physical_netlist);
  result.physical.layout = std::move(layout);
  result.physical.layout->netlist = result.physical.netlist.get();
  result.physical.lift = lift;

  AnalyzePhysicalBundle(result.physical, options);
  result.times.AddStages(result.physical.times);

  result.feol =
      split::SplitLayout(*result.physical.layout, options.split_layer);
  result.times.total_s = t_total.Seconds();
  return result;
}

}  // namespace splitlock::core
