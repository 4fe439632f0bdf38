#include "phys/timing.hpp"

#include <algorithm>

#include "netlist/libcell.hpp"

namespace splitlock::phys {

namespace {

// Times one gate: reads finalized fanin arrivals, writes the arrival of the
// gate's own output net.
void TimeGate(const Layout& layout, const Netlist& nl, GateId g,
              std::vector<double>& arrival) {
  const Gate& gate = nl.gate(g);
  if (gate.op == GateOp::kOutput || gate.op == GateOp::kDeleted) return;
  if (IsSourceOp(gate.op)) {
    // Primary inputs and constant sources launch at t = 0.
    return;
  }
  // A gate can lose its output net through netlist surgery (morphing,
  // partially-detached editing state); with no net to annotate there is
  // nothing to time — and nl.net(kNullId) / arrival[kNullId] would both be
  // out-of-bounds accesses.
  const NetId out = gate.out;
  if (out == kNullId) return;
  double input_arrival = 0.0;
  for (NetId n : gate.fanins) {
    input_arrival = std::max(input_arrival, arrival[n]);
  }
  const LibCell& cell = CellFor(gate);
  double wire_cap = 0.0;
  double wire_res = 0.0;
  if (out < layout.routes.size() && layout.routes[out].routed) {
    wire_cap = layout.NetWireCapFf(out);
    wire_res = layout.NetWireResKohm(out);
  }
  double pin_cap = 0.0;
  for (const Pin& p : nl.net(out).sinks) {
    const Gate& sink = nl.gate(p.gate);
    if (IsPhysicalOp(sink.op)) pin_cap += CellFor(sink).input_cap_ff;
  }
  const double delay = cell.intrinsic_delay_ps +
                       cell.drive_res_kohm * (wire_cap + pin_cap) +
                       0.5 * wire_res * wire_cap;
  arrival[out] = input_arrival + delay;
}

}  // namespace

TimingReport RunSta(const Layout& layout) {
  const Netlist& nl = *layout.netlist;
  TimingReport report;
  report.net_arrival_ps.assign(nl.NumNets(), 0.0);
  for (GateId g : nl.TopoOrder()) {
    TimeGate(layout, nl, g, report.net_arrival_ps);
  }
  for (GateId g : nl.outputs()) {
    // Driver-less outputs (fanin detached by editing) observe nothing.
    const Gate& po = nl.gate(g);
    if (po.fanins.empty() || po.fanins[0] == kNullId) continue;
    report.critical_path_ps = std::max(report.critical_path_ps,
                                       report.net_arrival_ps[po.fanins[0]]);
  }
  return report;
}

}  // namespace splitlock::phys
