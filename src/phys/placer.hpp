// Slot-based simulated-annealing placement.
//
// Implements the layout-stage placement of Fig. 3:
//   * "Randomize and fix TIE cells" — in secure mode, TIE cells get uniform
//     random slots and are frozen (set_dont_touch), and key-nets are
//     *detached* for placement: they contribute nothing to the cost
//     function, so neither TIE cells nor key-gates drift toward each other
//     and no proximity hint is created.
//   * Regular cells are annealed on the slot grid minimizing total HPWL,
//     reproducing the deterministic to-be-connected-cells-end-up-close
//     behaviour of commercial placers that proximity attacks exploit.
// Naive mode (the Fig. 2(a) strawman) treats TIE cells and key-nets like
// any other cell/net, which is what the ablation bench attacks.
//
// Placement runs on the calling thread. Every random draw comes from a
// counter-based stream keyed by TIE index, slot, sample or move index
// (exec/stream_rng.hpp), so a layout is a pure function of the netlist and
// the options.
#pragma once

#include <cstdint>

#include "netlist/netlist.hpp"
#include "phys/layout.hpp"
#include "phys/tech.hpp"

namespace splitlock::phys {

struct PlacerOptions {
  double utilization = 0.70;
  uint64_t seed = 1;
  int moves_per_cell = 60;
  int temperature_steps = 40;
  bool randomize_tie_cells = true;  // secure flow; false = naive layout
  // Future-work mode (paper Sec. V): key inputs become I/O pads on the die
  // boundary instead of on-die TIE cells; the key is tied to fixed logic
  // in the (trusted) package routing.
  bool key_inputs_as_pads = false;
};

// Places all physical cells of `nl`; returns a layout with positions filled
// and routes empty. The netlist must outlive the layout.
Layout PlaceDesign(const Netlist& nl, const Tech& tech,
                   const PlacerOptions& options);

}  // namespace splitlock::phys
