// Gate-level combinational netlist IR.
//
// The IR models single-output gates connected by nets. Primary inputs and
// outputs are represented as pseudo-gates (kInput / kOutput) so that every
// net has exactly one driver and traversals are uniform. Sequential designs
// (ITC'99) enter the library as FF-cut combinational cores: flip-flop
// outputs become primary inputs, flip-flop inputs become primary outputs,
// which is the standard reduction used by the split-manufacturing security
// literature this library reproduces.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace splitlock {

using GateId = uint32_t;
using NetId = uint32_t;
inline constexpr uint32_t kNullId = std::numeric_limits<uint32_t>::max();

// Hard upper bound on gate fanin count. Hot simulation loops (sim/simulator,
// sat/tseitin, atpg/cube) size fixed stack buffers `uint64_t[kMaxFanin]`
// from this; Netlist::AddGate / MorphGate enforce it unconditionally (even in
// Release builds, where asserts vanish) so an oversized gate fails loudly at
// construction instead of corrupting those stacks.
inline constexpr size_t kMaxFanin = 4;

// Boolean function of a gate. AND/NAND/OR/NOR accept 2..4 fanins; the rest
// have fixed arity. kKeyIn is a key-bit source: it behaves like an input
// during analysis (its value comes from a key assignment) and is implemented
// as a TIEHI/TIELO cell during layout. kDeleted marks dead gates awaiting
// compaction.
enum class GateOp : uint8_t {
  kInput,
  kOutput,
  kConst0,
  kConst1,
  kTieHi,
  kTieLo,
  kKeyIn,
  kBuf,
  kInv,
  kAnd,
  kNand,
  kOr,
  kNor,
  kXor,
  kXnor,
  kMux,  // fanins = {sel, a, b}; out = sel ? b : a
  kDeleted,
};

const char* GateOpName(GateOp op);

// True for ops that take no fanins (value sources).
bool IsSourceOp(GateOp op);

// Evaluate a gate function over 64 parallel patterns.
uint64_t EvalGateWord(GateOp op, std::span<const uint64_t> fanins);

// Gate flags used by the secure flow.
inline constexpr uint16_t kFlagDontTouch = 1u << 0;  // set_dont_touch
inline constexpr uint16_t kFlagKeyGate = 1u << 1;    // consumes a key bit
inline constexpr uint16_t kFlagRestore = 1u << 2;    // part of restore logic
inline constexpr uint16_t kFlagTie = 1u << 3;        // TIE cell instance

// lint:result-schema(v6) encoded by store/artifact_io EncodeNetlist — a
// result-affecting change here needs a kResultSchemaVersion bump.
struct Gate {
  GateOp op = GateOp::kDeleted;
  std::vector<NetId> fanins;
  NetId out = kNullId;  // kNullId for kOutput gates
  std::string name;
  uint16_t flags = 0;
  uint8_t drive = 1;  // drive strength: 1, 2, or 4 (X1/X2/X4)

  bool HasFlag(uint16_t f) const { return (flags & f) != 0; }
};

// A (gate, fanin-index) pair identifying one input pin connection.
// lint:result-schema(v6) encoded by store/artifact_io (net sinks, route
// sink pins) — a result-affecting change here needs a version bump.
struct Pin {
  GateId gate = kNullId;
  uint32_t index = 0;

  friend bool operator==(const Pin& a, const Pin& b) {
    return a.gate == b.gate && a.index == b.index;
  }
};

// lint:result-schema(v6) encoded by store/artifact_io EncodeNetlist — a
// result-affecting change here needs a kResultSchemaVersion bump.
struct Net {
  std::string name;
  GateId driver = kNullId;
  std::vector<Pin> sinks;
};

// Mutable gate-level netlist. Gates and nets are referenced by dense ids;
// deleting a gate marks it kDeleted (ids stay stable) and Compacted() builds
// a renumbered copy.
// lint:result-schema(v6) encoded by store/artifact_io EncodeNetlist /
// rebuilt by FromRawParts — a result-affecting change (ids, ordering,
// serialized fields) needs a kResultSchemaVersion bump.
class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  // --- Construction -------------------------------------------------------

  // Adds a primary input; returns the net it drives.
  NetId AddInput(std::string name);

  // Adds a primary output observing `net`.
  GateId AddOutput(NetId net, std::string name);

  // Adds a logic gate; returns the net it drives. `fanins` arity must match
  // the op (2..4 for AND/NAND/OR/NOR, 2 for XOR/XNOR, 3 for MUX, 1 for
  // BUF/INV, 0 for sources).
  NetId AddGate(GateOp op, std::span<const NetId> fanins,
                std::string name = {});
  NetId AddGate(GateOp op, std::initializer_list<NetId> fanins,
                std::string name = {});

  // Returns the id of the gate driving `net`.
  GateId DriverOf(NetId net) const { return nets_[net].driver; }

  // Rewires fanin pin `index` of `gate` to `new_net`, updating sink lists.
  void ReplaceFanin(GateId gate, uint32_t index, NetId new_net);

  // Redirects every sink of `old_net` (including primary outputs) to
  // `new_net`. `old_net`'s sink list becomes empty.
  void ReplaceAllUses(NetId old_net, NetId new_net);

  // Marks a gate deleted and detaches its pins. The gate must have no
  // remaining sinks on its output net.
  void DeleteGate(GateId gate);

  // Rewrites a gate in place to a new op/fanin list (keeping its output
  // net), e.g. AND(a, 1, b) -> AND(a, b) during constant propagation.
  void MorphGate(GateId gate, GateOp op, std::span<const NetId> fanins);

  // --- Access -------------------------------------------------------------

  size_t NumGates() const { return gates_.size(); }
  size_t NumNets() const { return nets_.size(); }
  const Gate& gate(GateId id) const { return gates_[id]; }
  Gate& gate(GateId id) { return gates_[id]; }
  const Net& net(NetId id) const { return nets_[id]; }
  Net& net(NetId id) { return nets_[id]; }

  const std::vector<GateId>& inputs() const { return pis_; }
  const std::vector<GateId>& outputs() const { return pos_; }

  // Ids of all kKeyIn gates, in insertion order (key-bit order).
  std::vector<GateId> KeyInputs() const;

  // Number of live gates excluding kInput/kOutput pseudo-gates.
  size_t NumLogicGates() const;

  // --- Analysis -----------------------------------------------------------

  // Topological order over live gates (sources first, outputs last).
  // Asserts on combinational cycles.
  std::vector<GateId> TopoOrder() const;

  // Structural sanity check; returns an empty string when consistent, else
  // a description of the first violation found.
  std::string Validate() const;

  // Renumbered copy without kDeleted gates and unused nets. `gate_map` /
  // `net_map` (optional) receive old-id -> new-id mappings (kNullId if
  // dropped).
  Netlist Compacted(std::vector<GateId>* gate_map = nullptr,
                    std::vector<NetId>* net_map = nullptr) const;

  // Reassembles a netlist from raw component vectors — the deserialization
  // path of store/artifact_io, which reads the components back through the
  // public accessors above. The parts must already be mutually consistent
  // (sink lists matching fanins, drivers matching outs); callers gate
  // acceptance on Validate(), which checks exactly that.
  static Netlist FromRawParts(std::string name, std::vector<Gate> gates,
                              std::vector<Net> nets, std::vector<GateId> pis,
                              std::vector<GateId> pos);

 private:
  NetId NewNet(std::string name, GateId driver);
  void DetachPin(GateId gate, uint32_t index);

  std::string name_;
  std::vector<Gate> gates_;
  std::vector<Net> nets_;
  std::vector<GateId> pis_;
  std::vector<GateId> pos_;
};

}  // namespace splitlock
