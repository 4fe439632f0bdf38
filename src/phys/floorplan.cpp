#include "phys/floorplan.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "netlist/libcell.hpp"

namespace splitlock::phys {

namespace {

// The cell census sums widths in groups of kCensusGroup gates and then adds
// the group sums in order. The grouping fixes the rounding of the slot
// width, and with it every slot coordinate, so it must not be flattened
// into one sum.
constexpr size_t kCensusGroup = 256;

}  // namespace

void BuildFloorplan(Layout& layout, const FloorplanOptions& options) {
  const Netlist& nl = *layout.netlist;

  size_t num_cells = 0;
  double total_width_um = 0.0;
  for (size_t group = 0; group < nl.NumGates(); group += kCensusGroup) {
    const size_t end = std::min(group + kCensusGroup, nl.NumGates());
    double group_width_um = 0.0;
    for (GateId g = static_cast<GateId>(group); g < end; ++g) {
      const Gate& gate = nl.gate(g);
      if (!IsPhysicalOp(gate.op)) continue;
      ++num_cells;
      group_width_um += CellFor(gate).WidthUm();
    }
    total_width_um += group_width_um;
  }
  assert(num_cells > 0);

  layout.row_height_um = kRowHeightUm;
  layout.slot_width_um = total_width_um / static_cast<double>(num_cells);

  // Capacity at the target utilization, shaped to the aspect ratio:
  //   rows * slots >= num_cells / utilization
  //   rows * row_h ~= aspect * slots * slot_w
  const double capacity =
      static_cast<double>(num_cells) / std::max(0.05, options.utilization);
  const double rows_f = std::sqrt(capacity * options.aspect_ratio *
                                  layout.slot_width_um / layout.row_height_um);
  layout.num_rows = std::max(1, static_cast<int>(std::ceil(rows_f)));
  layout.slots_per_row = std::max(
      1, static_cast<int>(std::ceil(capacity / layout.num_rows)));

  const double width = layout.slots_per_row * layout.slot_width_um;
  const double height = layout.num_rows * layout.row_height_um;
  layout.die = Rect{{0.0, 0.0}, {width, height}};

  layout.position.assign(nl.NumGates(), Point{});
  layout.placed.assign(nl.NumGates(), 0);
  layout.fixed.assign(nl.NumGates(), 0);
  layout.routes.assign(nl.NumNets(), NetRoute{});

  // I/O pads: inputs along the left then top edge, outputs along the right
  // then bottom edge, evenly spaced.
  auto spread = [&](const std::vector<GateId>& pads, bool input_side) {
    const size_t n = pads.size();
    for (size_t i = 0; i < n; ++i) {
      const double t = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
      Point p;
      if (t < 0.5) {
        const double along = t * 2.0;
        p = input_side ? Point{0.0, along * height}
                       : Point{width, along * height};
      } else {
        const double along = (t - 0.5) * 2.0;
        p = input_side ? Point{along * width, height}
                       : Point{along * width, 0.0};
      }
      layout.position[pads[i]] = p;
      layout.placed[pads[i]] = 1;
      layout.fixed[pads[i]] = 1;
    }
  };
  spread(nl.inputs(), true);
  spread(nl.outputs(), false);
}

}  // namespace splitlock::phys
