// Layer-aware pattern routing, key-net lifting, and ECO re-route.
//
// Regular nets are routed as per-sink L-shapes on a layer pair chosen by
// net span — short nets on low metals, long nets on high metals — which is
// the commercial-router behaviour that determines how many regular nets
// break at a given split layer (Table I's regular-net CCR trend).
//
// Key-nets get the paper's treatment (Sec. III-B): the whole net is routed
// strictly above the split layer, entering and leaving through *stacked
// vias* placed directly on the TIE cell's output pin and the key-gate's
// input pin, so the FEOL contains no key-net wiring at all.
//
// After lifting, ECO re-route models the cost the paper measures: regular
// nets that share the lift layers detour around the key-net corridors
// (added wirelength and vias -> power), and drivers that then miss their
// load limit are upsized (area/power).
//
// Every pass runs on the calling thread as one loop in net order (key-net
// order for the lift). Each net draws from its own counter-based stream
// keyed by net id (exec/stream_rng.hpp) and writes only its own NetRoute,
// so a net's route does not depend on which other nets a pass visits.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "phys/layout.hpp"

namespace splitlock::phys {

struct RouterOptions {
  uint64_t seed = 1;
  // Net-span thresholds (um) promoting a net to the next layer pair.
  // Pair i covers metals (i+2, i+3) with i in [0, 4]:
  // (M2,M3), (M3,M4), (M4,M5), (M5,M6), (M6,M7).
  double span_thresholds[4] = {10.0, 25.0, 60.0, 140.0};
  double promote_probability = 0.08;  // congestion-style jitter
  bool route_key_nets_as_regular = false;  // naive (unlifted) flow
};

// Nets driven by a TIE-like source feeding key-gates (the key-nets).
std::vector<NetId> KeyNetsOf(const Netlist& nl);

// Routes every placed net; key-nets are left unrouted unless
// route_key_nets_as_regular is set (they are lifted separately).
void RouteDesign(Layout& layout, const RouterOptions& options);

// lint:result-schema(v6) encoded by store/artifact_io (flow artifact) — a
// result-affecting change here needs a kResultSchemaVersion bump.
struct LiftStats {
  size_t key_nets_lifted = 0;
  size_t stacked_vias = 0;
  double lifted_wirelength_um = 0.0;
  size_t regular_nets_detoured = 0;
  size_t drivers_upsized = 0;
};

// Lifts all key-nets so they are routed entirely on metals >= `lift_layer`
// (H/V pair (lift_layer, lift_layer+1)), with stacked vias at both pins,
// then applies ECO re-route to regular nets sharing those layers. Upsized
// drivers are written back through `mutable_netlist`, which must be the
// same object the layout references.
LiftStats LiftKeyNets(Layout& layout, Netlist& mutable_netlist,
                      int lift_layer, uint64_t seed);

// Detours the first segment of `conn` routed on the (h_layer, v_layer) lift
// pair: the segment shifts sideways by six routing pitches and its original
// endpoints are reconnected through two jogs on the pair's other metal plus
// a via at each end. Returns false — leaving `conn` untouched — when no
// segment of the connection is on the pair. Exposed for tests; LiftKeyNets
// applies it to the connections its congestion model marks.
bool ApplyEcoDetour(ConnRoute& conn, const Tech& tech, int h_layer,
                    int v_layer);

// Re-routes the given nets entirely on the (lift_layer, lift_layer+1) pair
// with stacked vias on their pins — the mechanism behind concerted wire
// lifting of *regular* nets ([12]/[13] baselines).
void LiftNetsAbove(Layout& layout, std::span<const NetId> nets,
                   int lift_layer, uint64_t seed);

}  // namespace splitlock::phys
