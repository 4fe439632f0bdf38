// Parallel physical design: the determinism contract for the speculative
// placer and the per-net-stream router, plus regressions for the phys-layer
// bugs fixed alongside (STA OOB accesses, ECO detour on the wrong segment)
// and STA's golden digest and pool-width invariance.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string_view>

#include "circuits/random_circuit.hpp"
#include "circuits/suites.hpp"
#include "exec/thread_pool.hpp"
#include "lock/atpg_lock.hpp"
#include "lock/key.hpp"
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

TEST(ParallelPlacer, BitIdenticalToSequentialReference) {
  const Netlist nl = LockedRealized(1);
  PlacerOptions seq;
  seq.seed = 11;
  seq.moves_per_cell = 30;
  seq.parallel_moves = false;
  PlacerOptions par = seq;
  par.parallel_moves = true;
  const Layout a = PlaceDesign(nl, Tech::Nangate45Like(), seq);
  const Layout b = PlaceDesign(nl, Tech::Nangate45Like(), par);
  ASSERT_EQ(a.position.size(), b.position.size());
  for (GateId g = 0; g < nl.NumGates(); ++g) {
    EXPECT_EQ(a.position[g], b.position[g]) << "gate " << g;
    EXPECT_EQ(a.placed[g], b.placed[g]);
    EXPECT_EQ(a.fixed[g], b.fixed[g]);
  }
  EXPECT_EQ(LayoutFingerprint(a), LayoutFingerprint(b));
}

TEST(ParallelPlacer, ThreadCountInvariant) {
  PoolWidthGuard guard;
  const Netlist nl = LockedRealized(2);
  PlacerOptions opts;
  opts.seed = 22;
  opts.moves_per_cell = 20;
  opts.parallel_moves = true;
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

TEST(ParallelPlacer, NaiveModeAlsoBitIdentical) {
  // The naive (TIE cells annealed, key-nets attached) ablation flow must
  // honor the same contract: it anneals a larger pool over more nets.
  const Netlist nl = LockedRealized(3);
  PlacerOptions seq;
  seq.seed = 33;
  seq.moves_per_cell = 15;
  seq.randomize_tie_cells = false;
  seq.parallel_moves = false;
  PlacerOptions par = seq;
  par.parallel_moves = true;
  EXPECT_EQ(LayoutFingerprint(PlaceDesign(nl, Tech::Nangate45Like(), seq)),
            LayoutFingerprint(PlaceDesign(nl, Tech::Nangate45Like(), par)));
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
