// Layout data model: placed cells, routed nets, die geometry.
//
// The layout references (does not own) the netlist it was generated for;
// callers keep the netlist alive for the layout's lifetime (the core flow
// bundles both). Placement is slot-based: cells occupy uniform slots on
// standard-cell rows (slot pitch = average cell width), which keeps
// annealing and legalization simple while preserving everything the
// security analysis consumes — relative proximity, row structure, die
// outline, and wirelength. I/O pads sit on the die boundary.
//
// Routes are stored per sink connection (driver pin -> sink pin), because
// splitting must reason about each broken connection individually: where
// the driver-side FEOL fragment ascends above the split layer and where the
// sink-side fragment ends.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "phys/tech.hpp"
#include "util/geom.hpp"

namespace splitlock::phys {

// One axis-aligned wire piece on a metal layer.
// lint:result-schema(v6) encoded by store/artifact_io EncodeLayout — a
// result-affecting change here needs a kResultSchemaVersion bump.
struct Segment {
  int layer = 1;  // 1-based metal index
  Point a;
  Point b;

  double Length() const { return ManhattanDistance(a, b); }
};

// A vertical stack of vias at one point, spanning [from_layer, to_layer].
// lint:result-schema(v6) encoded by store/artifact_io EncodeLayout — a
// result-affecting change here needs a kResultSchemaVersion bump.
struct ViaStack {
  Point at;
  int from_layer = 1;
  int to_layer = 1;

  int Count() const { return to_layer - from_layer; }
};

// Route of a single driver-to-sink connection. Segments are ordered from
// the driver pin toward the sink pin.
// lint:result-schema(v6) encoded by store/artifact_io EncodeNetRoute — a
// result-affecting change here needs a kResultSchemaVersion bump.
struct ConnRoute {
  Pin sink;
  std::vector<Segment> segments;
  std::vector<ViaStack> vias;

  // Topological hop list used by splitting: hop k runs from hop_points[k]
  // to hop_points[k+1] on metal hop_layers[k] (hop_points has one more
  // entry than hop_layers; the first point is the driver pin, the last the
  // sink pin). Parasitic-only detail (ECO jogs) lives in `segments` alone.
  std::vector<Point> hop_points;
  std::vector<int> hop_layers;

  int MaxLayer() const;
};

// lint:result-schema(v6) encoded by store/artifact_io EncodeNetRoute — a
// result-affecting change here needs a kResultSchemaVersion bump.
struct NetRoute {
  std::vector<ConnRoute> conns;
  bool routed = false;

  int MaxLayer() const;
  double TotalLength() const;
};

// lint:result-schema(v6) encoded by store/artifact_io EncodeLayout (die,
// rows, positions, flags, routes; tech/netlist pointers are rebound on
// decode) — a result-affecting change here needs a kResultSchemaVersion
// bump.
struct Layout {
  const Netlist* netlist = nullptr;
  Tech tech;

  Rect die;
  double row_height_um = 0.0;
  double slot_width_um = 0.0;
  int num_rows = 0;
  int slots_per_row = 0;

  // Placement, indexed by GateId. placed[g] is false for pseudo/deleted
  // gates that occupy no silicon (I/O pads are "placed" on the boundary).
  std::vector<Point> position;   // cell center
  std::vector<uint8_t> placed;
  std::vector<uint8_t> fixed;    // excluded from annealing moves

  // Routing, indexed by NetId.
  std::vector<NetRoute> routes;

  // Cell center; all pins are modeled at the cell center point.
  Point PinOf(GateId g) const { return position[g]; }

  // Half-perimeter wirelength of a net's pin bounding box.
  double NetHpwl(NetId n) const;
  double TotalHpwl() const;

  // Total routed wirelength on a given metal layer, in um.
  double WirelengthOnLayer(int layer) const;

  // Lumped wire capacitance / resistance of a routed net (segments + vias).
  double NetWireCapFf(NetId n) const;
  double NetWireResKohm(NetId n) const;

  // Die outline area in um^2 (the paper's Fig. 5 area metric).
  double DieAreaUm2() const { return die.Area(); }
};

// Order-sensitive 64-bit digest of everything placement and routing
// produced: positions, placed/fixed flags, and the full route geometry
// (segments, vias, hop lists). Two layouts with equal fingerprints are
// bit-identical for every consumer in the library; the golden and
// pool-width tests in test_phys_parallel pin it, and bench_phys records it.
uint64_t LayoutFingerprint(const Layout& layout);

}  // namespace splitlock::phys
