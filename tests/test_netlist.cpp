#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/libcell.hpp"
#include "netlist/netlist.hpp"

namespace splitlock {
namespace {

// a, b -> AND -> INV -> out
Netlist MakeTiny() {
  Netlist nl("tiny");
  const NetId a = nl.AddInput("a");
  const NetId b = nl.AddInput("b");
  const NetId n1 = nl.AddGate(GateOp::kAnd, {a, b}, "n1");
  const NetId n2 = nl.AddGate(GateOp::kInv, {n1}, "n2");
  nl.AddOutput(n2, "out");
  return nl;
}

TEST(Netlist, BuildAndValidate) {
  const Netlist nl = MakeTiny();
  EXPECT_EQ(nl.Validate(), "");
  EXPECT_EQ(nl.inputs().size(), 2u);
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.NumLogicGates(), 2u);
}

TEST(Netlist, DriverAndSinksConsistent) {
  const Netlist nl = MakeTiny();
  const NetId a = nl.gate(nl.inputs()[0]).out;
  ASSERT_EQ(nl.net(a).sinks.size(), 1u);
  const Pin p = nl.net(a).sinks[0];
  EXPECT_EQ(nl.gate(p.gate).op, GateOp::kAnd);
  EXPECT_EQ(nl.gate(p.gate).fanins[p.index], a);
}

TEST(Netlist, TopoOrderRespectsDependencies) {
  const Netlist nl = MakeTiny();
  const std::vector<GateId> order = nl.TopoOrder();
  std::vector<size_t> pos(nl.NumGates());
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (GateId g = 0; g < nl.NumGates(); ++g) {
    for (NetId n : nl.gate(g).fanins) {
      EXPECT_LT(pos[nl.DriverOf(n)], pos[g]);
    }
  }
}

TEST(Netlist, ReplaceFaninRewires) {
  Netlist nl = MakeTiny();
  const NetId a = nl.gate(nl.inputs()[0]).out;
  const NetId b = nl.gate(nl.inputs()[1]).out;
  const GateId and_gate = nl.net(a).sinks[0].gate;
  nl.ReplaceFanin(and_gate, 0, b);
  EXPECT_EQ(nl.gate(and_gate).fanins[0], b);
  EXPECT_TRUE(nl.net(a).sinks.empty());
  EXPECT_EQ(nl.net(b).sinks.size(), 2u);
  EXPECT_EQ(nl.Validate(), "");
}

TEST(Netlist, ReplaceAllUsesMovesOutputs) {
  Netlist nl = MakeTiny();
  const NetId a = nl.gate(nl.inputs()[0]).out;
  const GateId and_gate = nl.net(a).sinks[0].gate;
  const NetId and_out = nl.gate(and_gate).out;
  nl.ReplaceAllUses(and_out, a);
  EXPECT_TRUE(nl.net(and_out).sinks.empty());
  EXPECT_EQ(nl.Validate(), "");
  // The INV now consumes `a` directly.
  const GateId inv = nl.outputs()[0];
  const NetId inv_in = nl.gate(nl.DriverOf(nl.gate(inv).fanins[0])).fanins[0];
  EXPECT_EQ(inv_in, a);
}

TEST(Netlist, DeleteGateDetaches) {
  Netlist nl = MakeTiny();
  const NetId a = nl.gate(nl.inputs()[0]).out;
  const GateId and_gate = nl.net(a).sinks[0].gate;
  const NetId and_out = nl.gate(and_gate).out;
  // Detach the AND's consumer first.
  nl.ReplaceAllUses(and_out, a);
  nl.DeleteGate(and_gate);
  EXPECT_EQ(nl.gate(and_gate).op, GateOp::kDeleted);
  EXPECT_EQ(nl.Validate(), "");
  EXPECT_EQ(nl.NumLogicGates(), 1u);
}

TEST(Netlist, MorphGateChangesArity) {
  Netlist nl("m");
  const NetId a = nl.AddInput("a");
  const NetId b = nl.AddInput("b");
  const NetId c = nl.AddInput("c");
  const NetId o = nl.AddGate(GateOp::kAnd, {a, b, c});
  nl.AddOutput(o, "o");
  const GateId g = nl.DriverOf(o);
  nl.MorphGate(g, GateOp::kAnd, std::array<NetId, 2>{a, b});
  EXPECT_EQ(nl.gate(g).fanins.size(), 2u);
  EXPECT_TRUE(nl.net(c).sinks.empty());
  EXPECT_EQ(nl.Validate(), "");
}

TEST(Netlist, CompactedDropsDeleted) {
  Netlist nl = MakeTiny();
  const NetId a = nl.gate(nl.inputs()[0]).out;
  const GateId and_gate = nl.net(a).sinks[0].gate;
  const NetId and_out = nl.gate(and_gate).out;
  nl.ReplaceAllUses(and_out, a);
  nl.DeleteGate(and_gate);
  const Netlist compact = nl.Compacted();
  EXPECT_EQ(compact.Validate(), "");
  EXPECT_EQ(compact.NumLogicGates(), 1u);
  EXPECT_EQ(compact.inputs().size(), 2u);
  EXPECT_EQ(compact.outputs().size(), 1u);
}

TEST(Netlist, CompactedPreservesKeyInputOrder) {
  Netlist nl("keys");
  const NetId a = nl.AddInput("a");
  NetId acc = a;
  std::vector<std::string> names;
  for (int i = 0; i < 5; ++i) {
    const NetId k = nl.AddGate(GateOp::kKeyIn, {}, "key_" + std::to_string(i));
    nl.gate(nl.DriverOf(k)).name = "key_" + std::to_string(i);
    names.push_back("key_" + std::to_string(i));
    acc = nl.AddGate(GateOp::kXor, {acc, k});
  }
  nl.AddOutput(acc, "o");
  const Netlist compact = nl.Compacted();
  const std::vector<GateId> keys = compact.KeyInputs();
  ASSERT_EQ(keys.size(), 5u);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(compact.gate(keys[i]).name, names[i]);
  }
}

TEST(EventDetect, OversizedGateFailsLoudly) {
  // Kernels size fixed stack buffers by kMaxFanin; a wider gate must be
  // rejected at construction instead of overrunning one later.
  Netlist nl("overfanin");
  std::vector<NetId> ins;
  for (int i = 0; i < 5; ++i) {
    ins.push_back(nl.AddInput("i" + std::to_string(i)));
  }
  EXPECT_THROW(nl.AddGate(GateOp::kAnd, std::span<const NetId>(ins)),
               std::invalid_argument);
}

TEST(Netlist, EvalGateWordTruthTables) {
  const uint64_t a = 0b1100;
  const uint64_t b = 0b1010;
  EXPECT_EQ(EvalGateWord(GateOp::kAnd, std::array<uint64_t, 2>{a, b}) & 0xF,
            0b1000u);
  EXPECT_EQ(EvalGateWord(GateOp::kOr, std::array<uint64_t, 2>{a, b}) & 0xF,
            0b1110u);
  EXPECT_EQ(EvalGateWord(GateOp::kNand, std::array<uint64_t, 2>{a, b}) & 0xF,
            0b0111u);
  EXPECT_EQ(EvalGateWord(GateOp::kNor, std::array<uint64_t, 2>{a, b}) & 0xF,
            0b0001u);
  EXPECT_EQ(EvalGateWord(GateOp::kXor, std::array<uint64_t, 2>{a, b}) & 0xF,
            0b0110u);
  EXPECT_EQ(EvalGateWord(GateOp::kXnor, std::array<uint64_t, 2>{a, b}) & 0xF,
            0b1001u);
  EXPECT_EQ(EvalGateWord(GateOp::kInv, std::array<uint64_t, 1>{a}) & 0xF,
            0b0011u);
  // MUX: {sel, a, b} -> sel ? b : a
  const uint64_t sel = 0b1010;
  EXPECT_EQ(
      EvalGateWord(GateOp::kMux, std::array<uint64_t, 3>{sel, a, b}) & 0xF,
      ((sel & b) | (~sel & a)) & 0xF);
}

TEST(LibCell, AreasAndDrives) {
  Gate inv{GateOp::kInv, {0}, 1, "g", 0, 1};
  const LibCell& x1 = CellFor(inv);
  inv.drive = 2;
  const LibCell& x2 = CellFor(inv);
  inv.drive = 4;
  const LibCell& x4 = CellFor(inv);
  EXPECT_LT(x1.AreaUm2(), x2.AreaUm2());
  EXPECT_LT(x2.AreaUm2(), x4.AreaUm2());
  EXPECT_GT(x1.drive_res_kohm, x2.drive_res_kohm);
  EXPECT_GT(x2.drive_res_kohm, x4.drive_res_kohm);
  EXPECT_LT(x1.max_load_ff, x4.max_load_ff);
}

TEST(LibCell, ArityVariantsDiffer) {
  Gate nand2{GateOp::kNand, {0, 1}, 2, "g", 0, 1};
  Gate nand4{GateOp::kNand, {0, 1, 2, 3}, 4, "g", 0, 1};
  EXPECT_LT(CellFor(nand2).AreaUm2(), CellFor(nand4).AreaUm2());
  EXPECT_EQ(CellFor(nand2).name, "NAND2_X1");
  EXPECT_EQ(CellFor(nand4).name, "NAND4_X1");
}

TEST(LibCell, TotalAreaCountsPhysicalOnly) {
  const Netlist nl = MakeTiny();
  const double area = TotalCellArea(nl);
  Gate and2{GateOp::kAnd, {0, 1}, 2, "g", 0, 1};
  Gate inv{GateOp::kInv, {0}, 1, "g", 0, 1};
  EXPECT_DOUBLE_EQ(area, CellFor(and2).AreaUm2() + CellFor(inv).AreaUm2());
}

}  // namespace
}  // namespace splitlock
