// Static timing analysis over a placed-and-routed layout.
//
// Delay model: gate delay = intrinsic + R_drive * (C_wire + C_sink_pins),
// wire delay = 0.5 * R_wire * C_wire (lumped Elmore), arrival times
// propagated in topological order. TIE cells define static-only paths
// (Sec. II-C item 5) and start at arrival 0; the XOR/XNOR key-gates they
// feed still add their gate delay on the data path, which is where the
// locked designs' timing cost comes from.
#pragma once

#include <vector>

#include "phys/layout.hpp"

namespace splitlock::phys {

struct TimingReport {
  double critical_path_ps = 0.0;
  std::vector<double> net_arrival_ps;  // indexed by NetId
};

// One topological walk on the calling thread; critical_path_ps is the
// maximum arrival over primary outputs.
TimingReport RunSta(const Layout& layout);

}  // namespace splitlock::phys
