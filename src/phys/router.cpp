#include "phys/router.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "exec/stream_rng.hpp"
#include "netlist/libcell.hpp"

namespace splitlock::phys {
namespace {

bool IsTieLikeOp(const Gate& g) {
  if (g.HasFlag(kFlagTie)) return true;
  switch (g.op) {
    case GateOp::kTieHi:
    case GateOp::kTieLo:
    case GateOp::kKeyIn:
      return true;
    default:
      return false;
  }
}

// Builds an L-shaped connection from `src` to `dst` using the given
// horizontal/vertical metal pair, with via stacks from the pin layer (M1)
// at both endpoints and a corner via between the two metals. Segments are
// ordered driver -> sink.
ConnRoute MakeLRoute(Pin sink, Point src, Point dst, int h_layer, int v_layer,
                     bool corner_at_dst_x) {
  ConnRoute conn;
  conn.sink = sink;
  const int lo = std::min(h_layer, v_layer);
  const int hi = std::max(h_layer, v_layer);
  const bool needs_h = src.x != dst.x;
  const bool needs_v = src.y != dst.y;
  if (!needs_h && !needs_v) {
    // Coincident pins: just a via stack between them on the lower metal.
    conn.vias.push_back(ViaStack{src, 1, lo});
    conn.hop_points = {src, dst};
    conn.hop_layers = {lo};
    return conn;
  }

  if (needs_h && needs_v) {
    const Point corner =
        corner_at_dst_x ? Point{dst.x, src.y} : Point{src.x, dst.y};
    if (corner_at_dst_x) {
      conn.segments.push_back(Segment{h_layer, src, corner});
      conn.segments.push_back(Segment{v_layer, corner, dst});
      conn.vias.push_back(ViaStack{src, 1, h_layer});
      conn.vias.push_back(ViaStack{corner, lo, hi});
      conn.vias.push_back(ViaStack{dst, 1, v_layer});
      conn.hop_points = {src, corner, dst};
      conn.hop_layers = {h_layer, v_layer};
    } else {
      conn.segments.push_back(Segment{v_layer, src, corner});
      conn.segments.push_back(Segment{h_layer, corner, dst});
      conn.vias.push_back(ViaStack{src, 1, v_layer});
      conn.vias.push_back(ViaStack{corner, lo, hi});
      conn.vias.push_back(ViaStack{dst, 1, h_layer});
      conn.hop_points = {src, corner, dst};
      conn.hop_layers = {v_layer, h_layer};
    }
  } else if (needs_h) {
    conn.segments.push_back(Segment{h_layer, src, dst});
    conn.vias.push_back(ViaStack{src, 1, h_layer});
    conn.vias.push_back(ViaStack{dst, 1, h_layer});
    conn.hop_points = {src, dst};
    conn.hop_layers = {h_layer};
  } else {
    conn.segments.push_back(Segment{v_layer, src, dst});
    conn.vias.push_back(ViaStack{src, 1, v_layer});
    conn.vias.push_back(ViaStack{dst, 1, v_layer});
    conn.hop_points = {src, dst};
    conn.hop_layers = {v_layer};
  }
  return conn;
}

// Chooses the (horizontal, vertical) metal pair for a regular net by span,
// drawing the congestion jitter from the net's own stream.
void LayerPairForSpan(const Tech& tech, const RouterOptions& options,
                      double span, exec::StreamRng& rng, int* h_layer,
                      int* v_layer) {
  int pair = 0;
  while (pair < 4 && span >= options.span_thresholds[pair]) ++pair;
  if (pair < 4 && rng.NextBernoulli(options.promote_probability)) ++pair;
  // Pair i occupies metals (i+2, i+3).
  const int a = pair + 2;
  const int b = pair + 3;
  assert(b <= tech.NumLayers());
  if (tech.IsHorizontal(a)) {
    *h_layer = a;
    *v_layer = b;
  } else {
    *h_layer = b;
    *v_layer = a;
  }
}

// Index of the first segment of `conn` routed on the lift pair, or -1.
int LiftPairSegmentIndex(const ConnRoute& conn, int h_layer, int v_layer) {
  for (size_t i = 0; i < conn.segments.size(); ++i) {
    const int layer = conn.segments[i].layer;
    if (layer == h_layer || layer == v_layer) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

std::vector<NetId> KeyNetsOf(const Netlist& nl) {
  std::vector<NetId> nets;
  for (NetId n = 0; n < nl.NumNets(); ++n) {
    const GateId d = nl.DriverOf(n);
    if (d == kNullId || nl.net(n).sinks.empty()) continue;
    const Gate& g = nl.gate(d);
    if (!IsTieLikeOp(g) || !g.HasFlag(kFlagDontTouch)) continue;
    // A key-net's sinks are key-gates.
    bool all_key_gates = true;
    for (const Pin& p : nl.net(n).sinks) {
      if (!nl.gate(p.gate).HasFlag(kFlagKeyGate)) {
        all_key_gates = false;
        break;
      }
    }
    if (all_key_gates) nets.push_back(n);
  }
  return nets;
}

bool ApplyEcoDetour(ConnRoute& conn, const Tech& tech, int h_layer,
                    int v_layer) {
  const int idx = LiftPairSegmentIndex(conn, h_layer, v_layer);
  if (idx < 0) return false;

  // Detour: shift the lift-pair segment sideways by six routing pitches,
  // reconnecting its original endpoints with two jog segments on the
  // *other* lift-pair metal plus a via at each end. (Copy fields first: the
  // push_backs below invalidate references into the segment vector.)
  Segment& seg = conn.segments[idx];
  const int seg_layer = seg.layer;
  const double jog = tech.Metal(seg_layer).pitch_um * 6.0;
  const Point ja = seg.a;
  const Point jb = seg.b;
  if (ja == jb) return false;  // degenerate: nothing to shift
  // Layer direction, not geometry, decides the shift axis: a segment on the
  // pair's horizontal metal jogs vertically and vice versa, so the jogs land
  // on the correctly-oriented partner metal.
  const bool seg_horizontal = seg_layer == h_layer;
  const int jog_layer = seg_horizontal ? v_layer : h_layer;
  if (seg_horizontal) {
    seg.a.y += jog;
    seg.b.y += jog;
    conn.segments.push_back(Segment{jog_layer, ja, Point{ja.x, ja.y + jog}});
    conn.segments.push_back(Segment{jog_layer, Point{jb.x, jb.y + jog}, jb});
  } else {
    seg.a.x += jog;
    seg.b.x += jog;
    conn.segments.push_back(Segment{jog_layer, ja, Point{ja.x + jog, ja.y}});
    conn.segments.push_back(Segment{jog_layer, Point{jb.x + jog, jb.y}, jb});
  }
  conn.vias.push_back(ViaStack{ja, std::min(jog_layer, seg_layer),
                               std::max(jog_layer, seg_layer)});
  conn.vias.push_back(ViaStack{jb, std::min(jog_layer, seg_layer),
                               std::max(jog_layer, seg_layer)});
  return true;
}

void RouteDesign(Layout& layout, const RouterOptions& options) {
  const Netlist& nl = *layout.netlist;

  std::vector<uint8_t> is_key_net(nl.NumNets(), 0);
  if (!options.route_key_nets_as_regular) {
    for (NetId n : KeyNetsOf(nl)) is_key_net[n] = 1;
  }

  // Net n draws only from its own (seed, kRouteNet, n) stream.
  for (NetId n = 0; n < nl.NumNets(); ++n) {
    NetRoute& route = layout.routes[n];
    route = NetRoute{};
    const Net& net = nl.net(n);
    if (net.driver == kNullId || net.sinks.empty()) continue;
    if (!layout.placed[net.driver]) continue;
    if (is_key_net[n]) continue;  // lifted separately

    exec::StreamRng rng(options.seed, exec::StreamDomain::kRouteNet, n);
    const Point src = layout.PinOf(net.driver);
    int h_layer;
    int v_layer;
    LayerPairForSpan(layout.tech, options, layout.NetHpwl(n), rng, &h_layer,
                     &v_layer);
    for (const Pin& p : net.sinks) {
      if (!layout.placed[p.gate]) continue;
      route.conns.push_back(MakeLRoute(p, src, layout.PinOf(p.gate), h_layer,
                                       v_layer, rng.NextBool()));
    }
    route.routed = true;
  }
}

void LiftNetsAbove(Layout& layout, std::span<const NetId> nets,
                   int lift_layer, uint64_t seed) {
  const Netlist& nl = *layout.netlist;
  const Tech& tech = layout.tech;
  assert(lift_layer + 1 <= tech.NumLayers());
  const int h_layer =
      tech.IsHorizontal(lift_layer) ? lift_layer : lift_layer + 1;
  const int v_layer =
      tech.IsHorizontal(lift_layer) ? lift_layer + 1 : lift_layer;
  for (const NetId n : nets) {
    NetRoute& route = layout.routes[n];
    route = NetRoute{};
    const Net& net = nl.net(n);
    if (net.driver == kNullId || !layout.placed[net.driver]) continue;
    exec::StreamRng rng(seed, exec::StreamDomain::kLiftNet, n);
    const Point src = layout.PinOf(net.driver);
    for (const Pin& p : net.sinks) {
      if (!layout.placed[p.gate]) continue;
      route.conns.push_back(MakeLRoute(p, src, layout.PinOf(p.gate), h_layer,
                                       v_layer, rng.NextBool()));
    }
    route.routed = true;
  }
}

LiftStats LiftKeyNets(Layout& layout, Netlist& mutable_netlist,
                      int lift_layer, uint64_t seed) {
  assert(layout.netlist == &mutable_netlist);
  const Netlist& nl = mutable_netlist;
  const Tech& tech = layout.tech;
  assert(lift_layer + 1 <= tech.NumLayers());
  LiftStats stats;

  const int h_layer =
      tech.IsHorizontal(lift_layer) ? lift_layer : lift_layer + 1;
  const int v_layer =
      tech.IsHorizontal(lift_layer) ? lift_layer + 1 : lift_layer;

  const std::vector<NetId> key_nets = KeyNetsOf(nl);
  std::vector<uint8_t> is_key_net(nl.NumNets(), 0);
  for (NetId n : key_nets) is_key_net[n] = 1;

  // Whole key-nets on the lift pair. The endpoint via stacks of every
  // connection (M1 -> lift pair) are exactly the paper's stacked vias on
  // the TIE output pin and the key-gate input pin. Key-net order fixes the
  // order of the floating-point wirelength sum.
  LiftNetsAbove(layout, key_nets, lift_layer, seed);
  for (const NetId n : key_nets) {
    stats.stacked_vias += 2 * layout.routes[n].conns.size();
    stats.lifted_wirelength_um += layout.routes[n].TotalLength();
  }
  stats.key_nets_lifted = key_nets.size();

  // --- ECO re-route ---------------------------------------------------
  // Key-net corridors consume tracks on the lift pair; regular nets routed
  // there detour with a probability proportional to the consumed fraction
  // of routing capacity on those layers.
  const double track_capacity_um =
      (layout.die.Width() / tech.Metal(h_layer).pitch_um) *
          layout.die.Height() +
      (layout.die.Height() / tech.Metal(v_layer).pitch_um) *
          layout.die.Width();
  const double demand_fraction =
      track_capacity_um <= 0.0
          ? 0.0
          : std::min(1.0, stats.lifted_wirelength_um * 48.0 /
                              track_capacity_um);

  // Net n draws one Bernoulli per connection touching the lift pair from
  // its own (seed, kEcoDetour, n) stream; every marked connection counts,
  // whether or not ApplyEcoDetour finds a segment to shift.
  for (NetId n = 0; n < nl.NumNets(); ++n) {
    NetRoute& route = layout.routes[n];
    if (!route.routed || is_key_net[n]) continue;
    exec::StreamRng rng(seed, exec::StreamDomain::kEcoDetour, n);
    for (ConnRoute& conn : route.conns) {
      if (LiftPairSegmentIndex(conn, h_layer, v_layer) < 0) continue;
      if (!rng.NextBernoulli(demand_fraction)) continue;
      ApplyEcoDetour(conn, tech, h_layer, v_layer);
      ++stats.regular_nets_detoured;
    }
  }

  // Driver upsizing: after the detours, any regular driver whose wire +
  // pin load exceeds its max drivable load is bumped one drive step
  // (X1 -> X2 -> X4) — the paper's "upscaling of drivers ... to meet
  // timing (applies only to regular nets, not key-nets)". Upsizing a gate
  // raises its input capacitance, which adds load to the nets feeding it,
  // so the mark/apply rounds iterate to a fixpoint; marks are computed
  // against the state at the start of the round, which makes each round —
  // unlike a single in-order sweep — independent of net order.
  std::vector<uint8_t> bump(nl.NumNets(), 0);
  for (;;) {
    for (NetId n = 0; n < nl.NumNets(); ++n) {
      bump[n] = 0;
      if (!layout.routes[n].routed || is_key_net[n]) continue;
      const Net& net = nl.net(n);
      if (net.driver == kNullId) continue;
      const Gate& driver = nl.gate(net.driver);
      if (!IsPhysicalOp(driver.op) || IsTieLikeOp(driver)) continue;
      if (driver.drive >= 4) continue;
      double load_ff = layout.NetWireCapFf(n);
      for (const Pin& p : net.sinks) {
        const Gate& sink = nl.gate(p.gate);
        if (IsPhysicalOp(sink.op)) load_ff += CellFor(sink).input_cap_ff;
      }
      if (load_ff > CellFor(driver).max_load_ff) bump[n] = 1;
    }
    size_t bumped = 0;
    for (NetId n = 0; n < nl.NumNets(); ++n) {
      if (!bump[n]) continue;
      Gate& driver = mutable_netlist.gate(nl.net(n).driver);
      driver.drive = driver.drive == 1 ? 2 : 4;
      ++bumped;
    }
    stats.drivers_upsized += bumped;
    if (bumped == 0) break;
  }
  return stats;
}

}  // namespace splitlock::phys
