// Physical design determinism: golden digests of place, route and lift,
// pool-width invariance, and that placement and routing submit nothing to
// the pool, plus regressions for the phys-layer bugs (STA OOB accesses, ECO
// detour on the wrong segment) and STA's golden digest and pool-width
// invariance. (The file name predates the serial placer and router.)
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "circuits/random_circuit.hpp"
#include "circuits/suites.hpp"
#include "exec/thread_pool.hpp"
#include "lock/atpg_lock.hpp"
#include "lock/key.hpp"
#include "obs/metrics.hpp"
#include "phys/placer.hpp"
#include "phys/router.hpp"
#include "phys/timing.hpp"
#include "util/hash.hpp"

namespace splitlock::phys {
namespace {

// Restores the configured default pool width when a test exits.
struct PoolWidthGuard {
  ~PoolWidthGuard() { exec::ThreadPool::SetDefaultThreadCount(0); }
};

Netlist TestCircuit(uint64_t seed, size_t gates = 400) {
  circuits::CircuitSpec spec;
  spec.num_inputs = 20;
  spec.num_outputs = 10;
  spec.num_gates = gates;
  spec.seed = seed;
  return circuits::GenerateCircuit(spec);
}

// A locked+realized netlist with TIE cells and key-gates.
Netlist LockedRealized(uint64_t seed) {
  const Netlist original = TestCircuit(seed, 500);
  lock::AtpgLockOptions opts;
  opts.key_bits = 24;
  opts.seed = seed;
  opts.verify_lec = false;
  const lock::AtpgLockResult r = lock::LockWithAtpg(original, opts);
  return lock::RealizeKeyAsTies(r.locked, r.key);
}

// b14 at scale 0.1 under a 32-bit ATPG lock, compacted as the flow does.
// `realize` turns the key inputs into TIE cells; package mode keeps them
// as kKeyIn pads.
Netlist LockedB14(bool realize) {
  lock::AtpgLockOptions opts;
  opts.key_bits = 32;
  opts.seed = 14;
  opts.verify_lec = false;
  const lock::AtpgLockResult r =
      lock::LockWithAtpg(circuits::MakeItc99("b14", 0.1), opts);
  return realize ? lock::RealizeKeyAsTies(r.locked, r.key).Compacted()
                 : r.locked.Compacted();
}

// What each physical-design stage leaves behind: the layout fingerprint
// after place, route, LiftKeyNets and LiftNetsAbove, the lift statistics,
// and an FNV-1a digest of every gate's drive after driver upsizing.
struct StageDigests {
  uint64_t placed = 0;
  uint64_t routed = 0;
  uint64_t lifted = 0;
  uint64_t above = 0;
  LiftStats lift;
  uint64_t drives = 0;
};

StageDigests RunStages(Netlist nl, const PlacerOptions& popts,
                       bool route_key_nets_as_regular, int lift_layer) {
  StageDigests d;
  Layout layout = PlaceDesign(nl, Tech::Nangate45Like(), popts);
  d.placed = LayoutFingerprint(layout);
  RouterOptions ropts;
  ropts.seed = popts.seed + 1;
  ropts.route_key_nets_as_regular = route_key_nets_as_regular;
  RouteDesign(layout, ropts);
  d.routed = LayoutFingerprint(layout);
  d.lift = LiftKeyNets(layout, nl, lift_layer, popts.seed + 2);
  d.lifted = LayoutFingerprint(layout);
  // Wire-lift every seventh driven regular net, as the lifting defenses do.
  std::vector<uint8_t> is_key_net(nl.NumNets(), 0);
  for (NetId n : KeyNetsOf(nl)) is_key_net[n] = 1;
  std::vector<NetId> nets;
  for (NetId n = 0; n < nl.NumNets(); n += 7) {
    const Net& net = nl.net(n);
    if (net.driver != kNullId && !net.sinks.empty() && !is_key_net[n]) {
      nets.push_back(n);
    }
  }
  LiftNetsAbove(layout, nets, 6, popts.seed + 3);
  d.above = LayoutFingerprint(layout);
  std::string drives;
  for (GateId g = 0; g < nl.NumGates(); ++g) {
    drives.push_back(static_cast<char>(nl.gate(g).drive));
  }
  d.drives = util::Fnv1a(drives);
  return d;
}

void ExpectDigests(const StageDigests& d, uint64_t placed, uint64_t routed,
                   uint64_t lifted, uint64_t above, const LiftStats& lift,
                   uint64_t wirelength_bits, uint64_t drives) {
  EXPECT_EQ(d.placed, placed);
  EXPECT_EQ(d.routed, routed);
  EXPECT_EQ(d.lifted, lifted);
  EXPECT_EQ(d.above, above);
  EXPECT_EQ(d.lift.key_nets_lifted, lift.key_nets_lifted);
  EXPECT_EQ(d.lift.stacked_vias, lift.stacked_vias);
  EXPECT_EQ(std::bit_cast<uint64_t>(d.lift.lifted_wirelength_um),
            wirelength_bits);
  EXPECT_EQ(d.lift.regular_nets_detoured, lift.regular_nets_detoured);
  EXPECT_EQ(d.lift.drivers_upsized, lift.drivers_upsized);
  EXPECT_EQ(d.drives, drives);
}

LiftStats Stats(size_t lifted, size_t vias, size_t detoured, size_t upsized) {
  LiftStats s;
  s.key_nets_lifted = lifted;
  s.stacked_vias = vias;
  s.regular_nets_detoured = detoured;
  s.drivers_upsized = upsized;
  return s;
}

// The golden digests pin every bit placement, routing and lifting produce
// for a locked ITC'99 circuit, at whatever pool width the suite runs.
TEST(PhysGolden, SecureModeLayoutDigests) {
  PlacerOptions popts;
  popts.seed = 101;
  popts.moves_per_cell = 10;
  ExpectDigests(RunStages(LockedB14(true), popts, false, 5),
                0xaa3c92c29422ad3cULL, 0x7cab3a7ff0ceec66ULL,
                0xe29031d8c76f062aULL, 0x9ec23133ab2d1823ULL,
                Stats(32, 64, 1067, 9), 0x408a447e45d92dc3ULL,
                0x258b08dbd1f012d5ULL);
}

TEST(PhysGolden, NaiveModeLayoutDigests) {
  // TIE cells anneal with the regular cells and key-nets route as regular
  // nets before LiftKeyNets re-routes them.
  PlacerOptions popts;
  popts.seed = 202;
  popts.moves_per_cell = 10;
  popts.randomize_tie_cells = false;
  ExpectDigests(RunStages(LockedB14(true), popts, true, 5),
                0xaecc91ab8706efc4ULL, 0x8e7f1583d6998215ULL,
                0x7d28e6adc9f99cd5ULL, 0x6b98cd1387534fc7ULL,
                Stats(32, 64, 1070, 11), 0x4075c44dd6b86b0dULL,
                0xd1ba941e5c38fe55ULL);
}

TEST(PhysGolden, KeyInputsAsPadsLayoutDigests) {
  PlacerOptions popts;
  popts.seed = 303;
  popts.moves_per_cell = 10;
  popts.key_inputs_as_pads = true;
  const int top_pair = Tech::Nangate45Like().NumLayers() - 1;
  ExpectDigests(RunStages(LockedB14(false), popts, false, top_pair),
                0x34ae2adc9c09ad13ULL, 0x4d3355fbab7bb162ULL,
                0x798e695c61042230ULL, 0xf169d932a40a20d0ULL,
                Stats(32, 64, 0, 7), 0x4088f953fc36ba5cULL,
                0x0e42457088246cdfULL);
}

TEST(PhysGolden, RandomPlacementLayoutDigests) {
  // moves_per_cell = 0: the TIE prefix and the initial shuffle only.
  PlacerOptions popts;
  popts.seed = 404;
  popts.moves_per_cell = 0;
  ExpectDigests(RunStages(LockedB14(true), popts, false, 5),
                0x6c3ee9ef64731fbaULL, 0x77f543528bcc835cULL,
                0x11a0d93beec87999ULL, 0x05abe3dc2b330281ULL,
                Stats(32, 64, 1602, 9), 0x40876de1e1e1e1d9ULL,
                0x3a42567ddeafa8c3ULL);
}

TEST(PhysPool, PlaceRouteAndLiftSubmitNoPoolTasks) {
  // Campaign jobs are the pool's tasks; the physical-design stages inside
  // a job run on the job's own thread, so a waiting worker never picks up
  // a foreign job inside flow.place.
  PoolWidthGuard guard;
  exec::ThreadPool::SetDefaultThreadCount(4);
  Netlist nl = LockedB14(true);
  PlacerOptions popts;
  popts.seed = 505;
  popts.moves_per_cell = 10;
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  RunStages(std::move(nl), popts, false, 5);
  const obs::MetricsSnapshot delta = obs::MetricsSnapshot::Delta(
      before, obs::Registry::Instance().Snapshot());
  const auto it = delta.counts.find("exec.pool.tasks_run");
  EXPECT_EQ(it == delta.counts.end() ? 0 : it->second, 0u);
}

TEST(ParallelPlacer, ThreadCountInvariant) {
  PoolWidthGuard guard;
  const Netlist nl = LockedRealized(2);
  PlacerOptions opts;
  opts.seed = 22;
  opts.moves_per_cell = 20;
  uint64_t reference = 0;
  for (size_t threads : {1u, 2u, 8u}) {
    exec::ThreadPool::SetDefaultThreadCount(threads);
    const Layout layout = PlaceDesign(nl, Tech::Nangate45Like(), opts);
    const uint64_t fp = LayoutFingerprint(layout);
    if (threads == 1) {
      reference = fp;
    } else {
      EXPECT_EQ(fp, reference) << "placement diverged at " << threads
                               << " threads";
    }
  }
}

TEST(ParallelRouter, RouteAndLiftThreadCountInvariant) {
  PoolWidthGuard guard;
  Netlist nl = LockedRealized(4);
  PlacerOptions popts;
  popts.seed = 44;
  popts.moves_per_cell = 10;
  const Layout placed = PlaceDesign(nl, Tech::Nangate45Like(), popts);
  uint64_t reference = 0;
  LiftStats ref_stats;
  for (size_t threads : {1u, 2u, 8u}) {
    exec::ThreadPool::SetDefaultThreadCount(threads);
    // Fresh netlist copy per width: LiftKeyNets writes upsized drives back.
    Netlist nl_w = nl;
    Layout layout = placed;  // same placement into every width
    layout.netlist = &nl_w;
    RouterOptions ropts;
    ropts.seed = 44;
    RouteDesign(layout, ropts);
    const LiftStats stats = LiftKeyNets(layout, nl_w, 5, 44);
    const uint64_t fp = LayoutFingerprint(layout);
    if (threads == 1) {
      reference = fp;
      ref_stats = stats;
    } else {
      EXPECT_EQ(fp, reference) << "routing diverged at " << threads
                               << " threads";
      EXPECT_EQ(stats.key_nets_lifted, ref_stats.key_nets_lifted);
      EXPECT_EQ(stats.stacked_vias, ref_stats.stacked_vias);
      EXPECT_EQ(stats.regular_nets_detoured, ref_stats.regular_nets_detoured);
      EXPECT_EQ(stats.drivers_upsized, ref_stats.drivers_upsized);
      EXPECT_DOUBLE_EQ(stats.lifted_wirelength_um,
                       ref_stats.lifted_wirelength_um);
    }
  }
}

TEST(ParallelRouter, LiftNetsAboveThreadCountInvariant) {
  PoolWidthGuard guard;
  const Netlist nl = TestCircuit(5);
  PlacerOptions popts;
  popts.seed = 55;
  popts.moves_per_cell = 10;
  const Layout placed = PlaceDesign(nl, Tech::Nangate45Like(), popts);
  std::vector<NetId> nets;
  for (NetId n = 0; n < nl.NumNets() && nets.size() < 32; ++n) {
    const Net& net = nl.net(n);
    if (net.driver != kNullId && !net.sinks.empty()) nets.push_back(n);
  }
  ASSERT_FALSE(nets.empty());
  uint64_t reference = 0;
  for (size_t threads : {1u, 2u, 8u}) {
    exec::ThreadPool::SetDefaultThreadCount(threads);
    Layout layout = placed;
    RouterOptions ropts;
    ropts.seed = 55;
    RouteDesign(layout, ropts);
    LiftNetsAbove(layout, nets, 6, 55);
    const uint64_t fp = LayoutFingerprint(layout);
    if (threads == 1) {
      reference = fp;
    } else {
      EXPECT_EQ(fp, reference);
    }
  }
}

TEST(Sta, SinkLessAndDriverLessCornersDoNotCrash) {
  // A logic gate whose output net was detached (out == kNullId) and a
  // primary output whose fanin list was emptied: both occur transiently
  // during netlist surgery, and RunSta used to index nets/arrays with
  // kNullId for them.
  Netlist nl("corner");
  const NetId a = nl.AddInput("a");
  const NetId b = nl.AddInput("b");
  const NetId y = nl.AddGate(GateOp::kAnd, {a, b}, "g1");
  const NetId z = nl.AddGate(GateOp::kInv, {y}, "g2");
  const GateId po = nl.AddOutput(z, "out");
  const NetId orphan_net = nl.AddGate(GateOp::kInv, {a}, "orphan");
  // Detach: the orphan gate keeps its fanin but loses its output net.
  nl.gate(nl.DriverOf(orphan_net)).out = kNullId;
  // Driver-less output pseudo-gate.
  const GateId dangling = nl.AddOutput(z, "dangling");
  nl.gate(dangling).fanins.clear();

  PlacerOptions popts;
  popts.moves_per_cell = 2;
  Layout layout = PlaceDesign(nl, Tech::Nangate45Like(), popts);
  RouterOptions ropts;
  RouteDesign(layout, ropts);
  const TimingReport report = RunSta(layout);
  EXPECT_GT(report.critical_path_ps, 0.0);  // the real path still times
  ASSERT_EQ(report.net_arrival_ps.size(), nl.NumNets());
  for (double t : report.net_arrival_ps) {
    EXPECT_TRUE(std::isfinite(t));
    EXPECT_GE(t, 0.0);
  }
  (void)po;
}

TEST(Sta, GoldenTimingDigest) {
  // A placed and routed suite member of more than 512 gates. Pins the
  // critical path's bits and an FNV-1a digest of every net arrival: any
  // change to the delay model or the arrival arithmetic shows here.
  const Netlist nl = circuits::MakeItc99("b14", 0.1);
  ASSERT_GT(nl.NumLogicGates(), 512u);
  PlacerOptions popts;
  popts.seed = 77;
  popts.moves_per_cell = 5;
  Layout layout = PlaceDesign(nl, Tech::Nangate45Like(), popts);
  RouterOptions ropts;
  ropts.seed = 77;
  RouteDesign(layout, ropts);

  const TimingReport report = RunSta(layout);
  ASSERT_EQ(report.net_arrival_ps.size(), nl.NumNets());
  const std::string_view arrival_bytes(
      reinterpret_cast<const char*>(report.net_arrival_ps.data()),
      report.net_arrival_ps.size() * sizeof(double));
  EXPECT_EQ(std::bit_cast<uint64_t>(report.critical_path_ps),
            0x409c072df071c3ebULL);
  EXPECT_EQ(util::Fnv1a(arrival_bytes), 0x125228f65c7b25ccULL);
}

TEST(ParallelSta, ThreadCountInvariant) {
  PoolWidthGuard guard;
  // STA runs inside pooled flow stages; its report must not depend on
  // the pool width it is called under.
  const Netlist nl = circuits::MakeItc99("b14", 0.1);
  PlacerOptions popts;
  popts.seed = 77;
  popts.moves_per_cell = 5;
  Layout layout = PlaceDesign(nl, Tech::Nangate45Like(), popts);
  RouterOptions ropts;
  ropts.seed = 77;
  RouteDesign(layout, ropts);

  TimingReport reference;
  for (size_t threads : {1u, 2u, 8u}) {
    exec::ThreadPool::SetDefaultThreadCount(threads);
    const TimingReport report = RunSta(layout);
    if (threads == 1) {
      reference = report;
      continue;
    }
    EXPECT_EQ(report.critical_path_ps, reference.critical_path_ps)
        << "critical path diverged at " << threads << " threads";
    EXPECT_EQ(report.net_arrival_ps, reference.net_arrival_ps)
        << "arrivals diverged at " << threads << " threads";
  }
}

TEST(EcoDetour, ShiftsTheSegmentOnTheLiftPair) {
  // Two-leg L route whose FIRST leg is below the lift pair and SECOND leg
  // is on it: the detour must shift the second leg (the one consuming
  // lift-pair tracks), not blindly segments.front().
  const Tech tech = Tech::Nangate45Like();
  const int h_layer = tech.IsHorizontal(5) ? 5 : 6;
  const int v_layer = tech.IsHorizontal(5) ? 6 : 5;
  ConnRoute conn;
  const Point src{10.0, 4.0};
  const Point corner{10.0, 20.0};
  const Point dst{30.0, 20.0};
  conn.segments.push_back(Segment{3, src, corner});        // below the pair
  conn.segments.push_back(Segment{h_layer, corner, dst});  // on the pair
  conn.vias.push_back(ViaStack{src, 1, 3});
  conn.vias.push_back(ViaStack{corner, 3, h_layer});
  conn.vias.push_back(ViaStack{dst, 1, h_layer});
  const size_t vias_before = conn.vias.size();

  ASSERT_TRUE(ApplyEcoDetour(conn, tech, h_layer, v_layer));

  // The below-pair leg is untouched.
  EXPECT_EQ(conn.segments[0].layer, 3);
  EXPECT_EQ(conn.segments[0].a, src);
  EXPECT_EQ(conn.segments[0].b, corner);
  // The lift-pair leg shifted sideways by six of ITS layer's pitches.
  const double jog = tech.Metal(h_layer).pitch_um * 6.0;
  EXPECT_EQ(conn.segments[1].layer, h_layer);
  EXPECT_EQ(conn.segments[1].a, (Point{corner.x, corner.y + jog}));
  EXPECT_EQ(conn.segments[1].b, (Point{dst.x, dst.y + jog}));
  // Two jogs on the pair's other (perpendicular) metal reconnect the
  // original endpoints to the shifted wire.
  ASSERT_EQ(conn.segments.size(), 4u);
  for (size_t i = 2; i < 4; ++i) {
    EXPECT_EQ(conn.segments[i].layer, v_layer);
    EXPECT_EQ(conn.segments[i].a.x, conn.segments[i].b.x);  // vertical jog
  }
  EXPECT_EQ(conn.segments[2].a, corner);
  EXPECT_EQ(conn.segments[2].b, (Point{corner.x, corner.y + jog}));
  EXPECT_EQ(conn.segments[3].a, (Point{dst.x, dst.y + jog}));
  EXPECT_EQ(conn.segments[3].b, dst);
  // One via at each original endpoint spanning exactly the lift pair.
  ASSERT_EQ(conn.vias.size(), vias_before + 2);
  for (size_t i = vias_before; i < conn.vias.size(); ++i) {
    EXPECT_EQ(conn.vias[i].from_layer, std::min(h_layer, v_layer));
    EXPECT_EQ(conn.vias[i].to_layer, std::max(h_layer, v_layer));
  }
  EXPECT_EQ(conn.vias[vias_before].at, corner);
  EXPECT_EQ(conn.vias[vias_before + 1].at, dst);
}

TEST(EcoDetour, VerticalLiftPairSegmentJogsHorizontally) {
  const Tech tech = Tech::Nangate45Like();
  const int h_layer = tech.IsHorizontal(5) ? 5 : 6;
  const int v_layer = tech.IsHorizontal(5) ? 6 : 5;
  ConnRoute conn;
  const Point a{8.0, 2.0};
  const Point b{8.0, 40.0};
  conn.segments.push_back(Segment{v_layer, a, b});
  ASSERT_TRUE(ApplyEcoDetour(conn, tech, h_layer, v_layer));
  const double jog = tech.Metal(v_layer).pitch_um * 6.0;
  EXPECT_EQ(conn.segments[0].layer, v_layer);
  EXPECT_EQ(conn.segments[0].a, (Point{a.x + jog, a.y}));
  EXPECT_EQ(conn.segments[0].b, (Point{b.x + jog, b.y}));
  ASSERT_EQ(conn.segments.size(), 3u);
  for (size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(conn.segments[i].layer, h_layer);
    EXPECT_EQ(conn.segments[i].a.y, conn.segments[i].b.y);  // horizontal jog
  }
}

TEST(EcoDetour, NoLiftPairSegmentLeavesConnUntouched) {
  const Tech tech = Tech::Nangate45Like();
  ConnRoute conn;
  conn.segments.push_back(Segment{2, Point{0, 0}, Point{5, 0}});
  conn.segments.push_back(Segment{3, Point{5, 0}, Point{5, 5}});
  const ConnRoute before = conn;
  EXPECT_FALSE(ApplyEcoDetour(conn, tech, 5, 6));
  ASSERT_EQ(conn.segments.size(), before.segments.size());
  for (size_t i = 0; i < conn.segments.size(); ++i) {
    EXPECT_EQ(conn.segments[i].a, before.segments[i].a);
    EXPECT_EQ(conn.segments[i].b, before.segments[i].b);
    EXPECT_EQ(conn.segments[i].layer, before.segments[i].layer);
  }
  EXPECT_EQ(conn.vias.size(), before.vias.size());
}

}  // namespace
}  // namespace splitlock::phys
