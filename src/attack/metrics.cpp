#include "attack/metrics.hpp"

#include <cassert>
#include <vector>

#include "attack/proximity.hpp"
#include "obs/trace.hpp"

namespace splitlock::attack {
namespace {

// Logic value of a TIE-like source net, if it has one.
bool TieValueOf(const Netlist& nl, NetId n, bool* value) {
  const GateId d = nl.DriverOf(n);
  if (d == kNullId) return false;
  switch (nl.gate(d).op) {
    case GateOp::kTieHi:
    case GateOp::kConst1:
      *value = true;
      return true;
    case GateOp::kTieLo:
    case GateOp::kConst0:
      *value = false;
      return true;
    default:
      return false;
  }
}

}  // namespace

CcrReport ComputeCcr(const split::FeolView& feol,
                     const split::Assignment& assignment) {
  const Netlist& nl = *feol.netlist;
  assert(assignment.size() == feol.sink_stubs.size());
  CcrReport report;
  size_t regular_correct = 0;
  size_t key_physical = 0;
  size_t key_logical = 0;

  for (size_t i = 0; i < feol.sink_stubs.size(); ++i) {
    const split::SinkStub& stub = feol.sink_stubs[i];
    const NetId proposed = assignment[i];
    if (IsKeyGateSink(feol, stub)) {
      ++report.key_connections;
      if (proposed == stub.true_net) ++key_physical;
      bool true_value = false;
      bool guess_value = false;
      if (proposed != kNullId && TieValueOf(nl, stub.true_net, &true_value) &&
          TieValueOf(nl, proposed, &guess_value) &&
          true_value == guess_value) {
        ++key_logical;
      }
    } else {
      ++report.regular_connections;
      if (proposed == stub.true_net) ++regular_correct;
    }
  }
  if (report.regular_connections > 0) {
    report.regular_ccr_percent =
        100.0 * regular_correct / report.regular_connections;
  }
  if (report.key_connections > 0) {
    report.key_physical_ccr_percent =
        100.0 * key_physical / report.key_connections;
    report.key_logical_ccr_percent =
        100.0 * key_logical / report.key_connections;
  }
  return report;
}

double ComputePnrPercent(const split::FeolView& feol,
                         const split::Assignment& assignment) {
  const Netlist& nl = *feol.netlist;
  // Direct correctness: every broken pin of the gate got its true net.
  std::vector<uint8_t> direct_ok(nl.NumGates(), 1);
  for (size_t i = 0; i < feol.sink_stubs.size(); ++i) {
    const split::SinkStub& stub = feol.sink_stubs[i];
    if (assignment[i] != stub.true_net) direct_ok[stub.sink.gate] = 0;
  }
  // Transitive correctness over the fanin cone.
  std::vector<uint8_t> recovered(nl.NumGates(), 0);
  size_t logic_gates = 0;
  size_t recovered_gates = 0;
  for (GateId g : nl.TopoOrder()) {
    const Gate& gate = nl.gate(g);
    if (gate.op == GateOp::kDeleted) continue;
    bool ok = direct_ok[g] != 0;
    for (NetId n : gate.fanins) {
      const GateId d = nl.DriverOf(n);
      if (d != kNullId && recovered[d] == 0) {
        ok = false;
        break;
      }
    }
    recovered[g] = ok ? 1 : 0;
    if (gate.op != GateOp::kInput && gate.op != GateOp::kOutput) {
      ++logic_gates;
      if (ok) ++recovered_gates;
    }
  }
  return logic_gates == 0 ? 0.0 : 100.0 * recovered_gates / logic_gates;
}

AttackScore ScoreAttack(const split::FeolView& feol,
                        const split::Assignment& assignment,
                        uint64_t patterns, uint64_t seed) {
  obs::Span span("attack.score");
  AttackScore score;
  score.ccr = ComputeCcr(feol, assignment);
  score.pnr_percent = ComputePnrPercent(feol, assignment);
  const Netlist recovered = split::BuildRecoveredNetlist(feol, assignment);
  score.functional =
      CompareFunctional(*feol.netlist, recovered, patterns, seed);
  return score;
}

}  // namespace splitlock::attack
