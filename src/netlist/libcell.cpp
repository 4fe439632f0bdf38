#include "netlist/libcell.hpp"

#include <array>
#include <cassert>

namespace splitlock {
namespace {

// Index layout: [op-group][arity-variant][drive-index].
// Drive variants scale a base cell: X2 halves drive resistance and adds
// ~50% width; X4 quarters resistance at ~2.5x width.
struct BaseCell {
  const char* name;
  int width_sites;
  double cap;
  double delay;
  double res;
  double leak;
};

LibCell MakeVariant(const BaseCell& b, uint8_t drive) {
  LibCell c;
  c.input_cap_ff = b.cap;
  c.intrinsic_delay_ps = b.delay;
  c.leakage_nw = b.leak;
  switch (drive) {
    case 2:
      c.name = std::string(b.name) + "_X2";
      c.width_sites = b.width_sites + (b.width_sites + 1) / 2;
      c.drive_res_kohm = b.res / 2.0;
      c.leakage_nw = b.leak * 1.6;
      c.input_cap_ff = b.cap * 1.6;  // bigger transistors, bigger gates
      break;
    case 4:
      c.name = std::string(b.name) + "_X4";
      c.width_sites = b.width_sites * 5 / 2 + 1;
      c.drive_res_kohm = b.res / 4.0;
      c.leakage_nw = b.leak * 2.8;
      c.input_cap_ff = b.cap * 2.6;
      break;
    default:
      c.name = std::string(b.name) + "_X1";
      c.width_sites = b.width_sites;
      c.drive_res_kohm = b.res;
      break;
  }
  c.max_load_ff = 60.0 / c.drive_res_kohm * 1.0;  // ~60 ps max output ramp
  return c;
}

constexpr BaseCell kBuf{"BUF", 3, 1.0, 25.0, 1.0, 15.0};
constexpr BaseCell kInv{"INV", 2, 1.4, 10.0, 0.8, 10.0};
constexpr std::array<BaseCell, 3> kAnd{{{"AND2", 4, 1.2, 30.0, 1.2, 20.0},
                                        {"AND3", 5, 1.2, 34.0, 1.3, 24.0},
                                        {"AND4", 6, 1.2, 38.0, 1.4, 28.0}}};
constexpr std::array<BaseCell, 3> kNandC{{{"NAND2", 3, 1.5, 15.0, 1.0, 16.0},
                                          {"NAND3", 4, 1.6, 18.0, 1.1, 20.0},
                                          {"NAND4", 5, 1.7, 21.0, 1.2, 24.0}}};
constexpr std::array<BaseCell, 3> kOrC{{{"OR2", 4, 1.2, 32.0, 1.2, 20.0},
                                        {"OR3", 5, 1.2, 36.0, 1.3, 24.0},
                                        {"OR4", 6, 1.2, 40.0, 1.4, 28.0}}};
constexpr std::array<BaseCell, 3> kNorC{{{"NOR2", 3, 1.5, 18.0, 1.1, 14.0},
                                         {"NOR3", 4, 1.6, 22.0, 1.2, 18.0},
                                         {"NOR4", 5, 1.7, 26.0, 1.3, 22.0}}};
constexpr BaseCell kXorC{"XOR2", 6, 2.2, 40.0, 1.4, 35.0};
constexpr BaseCell kXnorC{"XNOR2", 6, 2.2, 40.0, 1.4, 35.0};
constexpr BaseCell kMuxC{"MUX2", 7, 1.8, 45.0, 1.4, 40.0};
// TIE cells: tiny, weak drivers with no input pins. Their weak drive is
// irrelevant for timing (they define static-only paths, Sec. II-C item 5),
// but max_load matters for how many key-gates one TIE could legally feed.
constexpr BaseCell kTieHiC{"TIEHI", 2, 0.0, 0.0, 8.0, 3.0};
constexpr BaseCell kTieLoC{"TIELO", 2, 0.0, 0.0, 8.0, 3.0};

// Every base cell the library hands out, and the drive strengths it
// sizes each one at.
constexpr std::array<const BaseCell*, 19> kBases = {
    &kBuf,      &kInv,      &kAnd[0],  &kAnd[1],  &kAnd[2],  &kNandC[0],
    &kNandC[1], &kNandC[2], &kOrC[0],  &kOrC[1],  &kOrC[2],  &kNorC[0],
    &kNorC[1],  &kNorC[2],  &kXorC,    &kXnorC,   &kMuxC,    &kTieHiC,
    &kTieLoC};
constexpr std::array<uint8_t, 3> kDrives = {1, 2, 4};

const LibCell& Lookup(const BaseCell& base, uint8_t drive) {
  // Every (base, drive) variant, built once by a function-local static
  // initializer — thread-safe, so concurrent campaign jobs only ever read
  // the finished, immutable table.
  using Table = std::array<std::array<LibCell, kDrives.size()>, kBases.size()>;
  static const Table table = [] {
    Table t;
    for (size_t b = 0; b < kBases.size(); ++b) {
      for (size_t d = 0; d < kDrives.size(); ++d) {
        t[b][d] = MakeVariant(*kBases[b], kDrives[d]);
      }
    }
    return t;
  }();
  size_t slot = 0;
  while (kBases[slot] != &base) ++slot;
  const size_t di = drive == 4 ? 2 : (drive == 2 ? 1 : 0);
  return table[slot][di];
}

}  // namespace

bool IsPhysicalOp(GateOp op) {
  switch (op) {
    case GateOp::kInput:
    case GateOp::kOutput:
    case GateOp::kDeleted:
      return false;
    default:
      return true;
  }
}

const LibCell& CellFor(const Gate& gate) {
  const size_t arity = gate.fanins.size();
  switch (gate.op) {
    case GateOp::kBuf: return Lookup(kBuf, gate.drive);
    case GateOp::kInv: return Lookup(kInv, gate.drive);
    case GateOp::kAnd: return Lookup(kAnd[arity - 2], gate.drive);
    case GateOp::kNand: return Lookup(kNandC[arity - 2], gate.drive);
    case GateOp::kOr: return Lookup(kOrC[arity - 2], gate.drive);
    case GateOp::kNor: return Lookup(kNorC[arity - 2], gate.drive);
    case GateOp::kXor: return Lookup(kXorC, gate.drive);
    case GateOp::kXnor: return Lookup(kXnorC, gate.drive);
    case GateOp::kMux: return Lookup(kMuxC, gate.drive);
    case GateOp::kTieHi:
    case GateOp::kConst1:
      return Lookup(kTieHiC, 1);
    case GateOp::kTieLo:
    case GateOp::kConst0:
      return Lookup(kTieLoC, 1);
    case GateOp::kKeyIn:
      // A key input is realized as a TIE cell; use the (identical) TIEHI
      // footprint for sizing before the key value is bound.
      return Lookup(kTieHiC, 1);
    case GateOp::kInput:
    case GateOp::kOutput:
    case GateOp::kDeleted:
      break;
  }
  assert(false && "no library cell for op");
  return Lookup(kBuf, 1);
}

double TotalCellArea(const Netlist& nl) {
  double area = 0.0;
  for (GateId g = 0; g < nl.NumGates(); ++g) {
    const Gate& gate = nl.gate(g);
    if (IsPhysicalOp(gate.op)) area += CellFor(gate).AreaUm2();
  }
  return area;
}

double TotalLeakage(const Netlist& nl) {
  double leak = 0.0;
  for (GateId g = 0; g < nl.NumGates(); ++g) {
    const Gate& gate = nl.gate(g);
    if (IsPhysicalOp(gate.op)) leak += CellFor(gate).leakage_nw;
  }
  return leak;
}

}  // namespace splitlock
