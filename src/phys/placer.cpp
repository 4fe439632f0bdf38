#include "phys/placer.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <vector>

#include "exec/stream_rng.hpp"
#include "netlist/libcell.hpp"
#include "phys/floorplan.hpp"

namespace splitlock::phys {
namespace {

// A move touches at most the active nets of two gates.
constexpr size_t kMaxTouchedNets = 2 * (kMaxFanin + 1);

// Random swaps sampled for the initial-temperature estimate, summed in
// groups of kTempGroup whose sums are then added in order. The grouping
// fixes the rounding of the estimate, which every acceptance test reads,
// so it must not be flattened into one sum.
constexpr size_t kTempSamples = 64;
constexpr size_t kTempGroup = 8;

bool IsTieLike(const Gate& g) {
  if (g.HasFlag(kFlagTie)) return true;
  switch (g.op) {
    case GateOp::kTieHi:
    case GateOp::kTieLo:
    case GateOp::kKeyIn:
    case GateOp::kConst0:
    case GateOp::kConst1:
      return true;
    default:
      return false;
  }
}

Point SlotCenter(const Layout& layout, int slot) {
  const int row = slot / layout.slots_per_row;
  const int col = slot % layout.slots_per_row;
  return Point{(col + 0.5) * layout.slot_width_um,
               (row + 0.5) * layout.row_height_um};
}

// One annealing move: swap `g` from slot `src` with whatever occupies
// `target` (`other`, possibly empty).
struct Move {
  GateId g = kNullId;
  GateId other = kNullId;
  int src = -1;
  int target = -1;
  double delta = 0.0;
  bool viable = false;  // false: self-swap or fixed occupant
};

// The annealing state PlaceDesign threads through the temperature
// estimate and the move loop.
struct AnnealState {
  Layout& layout;
  const Netlist& nl;
  const std::vector<GateId>& anneal_pool;
  const std::vector<uint8_t>& net_active;
  std::vector<GateId>& gate_at;
  std::vector<int>& slot_of;
  int num_slots;

  // Active nets incident to `g` appended (unsorted) to out; returns count.
  size_t ActiveNetsOf(GateId g, NetId* out) const {
    size_t cnt = 0;
    const Gate& gate = nl.gate(g);
    for (NetId n : gate.fanins) {
      if (net_active[n]) out[cnt++] = n;
    }
    if (gate.out != kNullId && net_active[gate.out]) out[cnt++] = gate.out;
    return cnt;
  }

  // Net HPWL with the move's two positions overridden (read-only: the same
  // bounding-box arithmetic as Layout::NetHpwl).
  double HpwlWith(NetId n, GateId a, Point pa, GateId b, Point pb) const {
    const Net& net = nl.net(n);
    if (net.driver == kNullId || !layout.placed[net.driver]) return 0.0;
    const auto pos = [&](GateId g) {
      return g == a ? pa : g == b ? pb : layout.position[g];
    };
    Rect box = Rect::Around(pos(net.driver));
    for (const Pin& p : net.sinks) {
      if (layout.placed[p.gate]) box.Expand(pos(p.gate));
    }
    return box.HalfPerimeter();
  }

  // HPWL change of the nets the move touches, each net counted once.
  double Delta(const Move& mv) const {
    std::array<NetId, kMaxTouchedNets> nets;
    size_t cnt = ActiveNetsOf(mv.g, nets.data());
    if (mv.other != kNullId) cnt += ActiveNetsOf(mv.other, nets.data() + cnt);
    std::sort(nets.begin(), nets.begin() + cnt);
    cnt = static_cast<size_t>(std::unique(nets.begin(), nets.begin() + cnt) -
                              nets.begin());
    const Point src_center = layout.position[mv.g];
    const Point dst_center = SlotCenter(layout, mv.target);
    double before = 0.0;
    double after = 0.0;
    for (size_t i = 0; i < cnt; ++i) {
      before += layout.NetHpwl(nets[i]);
      after += HpwlWith(nets[i], mv.g, dst_center, mv.other, src_center);
    }
    return after - before;
  }

  // Draws a move's gate and target slot from `rng` and evaluates it
  // against the current state when it is viable.
  Move Draw(exec::StreamRng& rng) const {
    Move mv;
    mv.g = anneal_pool[rng.NextUint(anneal_pool.size())];
    mv.target = static_cast<int>(rng.NextUint(num_slots));
    mv.src = slot_of[mv.g];
    mv.other = gate_at[mv.target];
    mv.viable = !(mv.other == mv.g ||
                  (mv.other != kNullId && layout.fixed[mv.other]));
    if (mv.viable) mv.delta = Delta(mv);
    return mv;
  }

  static bool Accept(double delta, double u, double temperature) {
    return delta <= 0.0 ||
           (temperature > 0.0 && u < std::exp(-delta / temperature));
  }

  void Apply(const Move& mv) {
    const Point src_center = layout.position[mv.g];
    layout.position[mv.g] = SlotCenter(layout, mv.target);
    if (mv.other != kNullId) layout.position[mv.other] = src_center;
    gate_at[mv.src] = mv.other;  // kNullId empties the slot
    gate_at[mv.target] = mv.g;
    slot_of[mv.g] = mv.target;
    if (mv.other != kNullId) slot_of[mv.other] = mv.src;
  }
};

}  // namespace

Layout PlaceDesign(const Netlist& nl, const Tech& tech,
                   const PlacerOptions& options) {
  Layout layout;
  layout.netlist = &nl;
  layout.tech = tech;
  FloorplanOptions fp;
  fp.utilization = options.utilization;
  BuildFloorplan(layout, fp);

  // Partition physical gates into TIE-like cells and regular movable cells.
  std::vector<GateId> tie_cells;
  std::vector<GateId> movable;
  std::vector<GateId> key_pads;
  for (GateId g = 0; g < nl.NumGates(); ++g) {
    const Gate& gate = nl.gate(g);
    if (!IsPhysicalOp(gate.op)) continue;
    if (options.key_inputs_as_pads && gate.op == GateOp::kKeyIn) {
      key_pads.push_back(g);
    } else if (IsTieLike(gate)) {
      tie_cells.push_back(g);
    } else {
      movable.push_back(g);
    }
  }

  // Package mode: key inputs are pads spread along the top edge; their tie
  // value lives off-die in the package routing.
  for (size_t i = 0; i < key_pads.size(); ++i) {
    const double t = (static_cast<double>(i) + 0.5) /
                     static_cast<double>(key_pads.size());
    layout.position[key_pads[i]] =
        Point{layout.die.lo.x + t * layout.die.Width(), layout.die.hi.y};
    layout.placed[key_pads[i]] = 1;
    layout.fixed[key_pads[i]] = 1;
  }

  const int num_slots = layout.num_rows * layout.slots_per_row;
  assert(static_cast<size_t>(num_slots) >= tie_cells.size() + movable.size());
  std::vector<GateId> gate_at(num_slots, kNullId);
  std::vector<int> slot_of(nl.NumGates(), -1);

  auto occupy = [&](GateId g, int slot) {
    gate_at[slot] = g;
    slot_of[g] = slot;
    layout.position[g] = SlotCenter(layout, slot);
    layout.placed[g] = 1;
  };

  // Secure flow: TIE cells take uniformly random slots and are frozen.
  // Naive flow: TIE cells join the annealing pool like regular cells.
  std::vector<GateId> anneal_pool = movable;
  if (!options.randomize_tie_cells) {
    anneal_pool.insert(anneal_pool.end(), tie_cells.begin(), tie_cells.end());
  } else {
    // TIE cell i draws from stream (seed, kPlacerTie, i) until it hits a
    // free slot.
    for (size_t i = 0; i < tie_cells.size(); ++i) {
      exec::StreamRng trng(options.seed, exec::StreamDomain::kPlacerTie, i);
      int slot;
      do {
        slot = static_cast<int>(trng.NextUint(num_slots));
      } while (gate_at[slot] != kNullId);
      occupy(tie_cells[i], slot);
      layout.fixed[tie_cells[i]] = 1;
    }
  }

  // Random initial placement of the annealing pool: every free slot is
  // keyed by its own (seed, kPlacerInit, slot) stream and the slots are
  // sorted by key — unique slot ids break key ties, so the permutation is a
  // pure function of (seed, free-slot set).
  {
    std::vector<std::pair<uint64_t, int>> keyed;
    keyed.reserve(num_slots);
    for (int s = 0; s < num_slots; ++s) {
      if (gate_at[s] != kNullId) continue;
      keyed.emplace_back(
          exec::StreamRng(options.seed, exec::StreamDomain::kPlacerInit,
                          static_cast<uint64_t>(s))
              .NextWord(),
          s);
    }
    assert(keyed.size() >= anneal_pool.size());
    std::sort(keyed.begin(), keyed.end());
    for (size_t i = 0; i < anneal_pool.size(); ++i) {
      occupy(anneal_pool[i], keyed[i].second);
    }
  }

  // Nets considered by the cost function. In secure mode, nets driven by
  // TIE-like cells are detached (Fig. 3 "Detach TIE cells").
  std::vector<uint8_t> net_active(nl.NumNets(), 0);
  for (NetId n = 0; n < nl.NumNets(); ++n) {
    const GateId d = nl.DriverOf(n);
    if (d == kNullId || nl.net(n).sinks.empty()) continue;
    if (options.randomize_tie_cells && IsTieLike(nl.gate(d))) continue;
    net_active[n] = 1;
  }

  if (anneal_pool.empty()) return layout;

  AnnealState state{layout,  nl,      anneal_pool, net_active,
                    gate_at, slot_of, num_slots};

  // Estimate the initial temperature from the cost spread of random swaps
  // (read-only trial evaluations). Sample i owns stream
  // (seed, kPlacerTemp, i).
  double delta_sum = 0.0;
  int samples = 0;
  for (size_t group = 0; group < kTempSamples; group += kTempGroup) {
    double group_sum = 0.0;
    for (size_t i = group; i < group + kTempGroup; ++i) {
      exec::StreamRng srng(options.seed, exec::StreamDomain::kPlacerTemp, i);
      const Move mv = state.Draw(srng);
      if (!mv.viable) continue;
      group_sum += std::abs(mv.delta);
      ++samples;
    }
    delta_sum += group_sum;
  }
  double temperature = samples == 0 ? 1.0 : 4.0 * delta_sum / samples;
  if (temperature <= 0.0) temperature = 1.0;

  const int64_t total_moves =
      static_cast<int64_t>(options.moves_per_cell) *
      static_cast<int64_t>(anneal_pool.size());
  if (total_moves <= 0) return layout;  // random placement requested
  const int steps = std::max(1, options.temperature_steps);
  const int64_t moves_per_step = std::max<int64_t>(1, total_moves / steps);
  const double cooling =
      std::pow(1e-4, 1.0 / static_cast<double>(steps));  // T -> T * 1e-4

  // One move at a time in move-index order; move k owns stream
  // (seed, kPlacerMove, k), drawing gate, target slot and acceptance.
  uint64_t move_index = 0;
  for (int step = 0; step < steps; ++step) {
    for (int64_t m = 0; m < moves_per_step; ++m) {
      exec::StreamRng rng(options.seed, exec::StreamDomain::kPlacerMove,
                          move_index++);
      const Move mv = state.Draw(rng);
      const double u = rng.NextDouble();  // drawn for every move
      if (mv.viable && AnnealState::Accept(mv.delta, u, temperature)) {
        state.Apply(mv);
      }
    }
    temperature *= cooling;
  }
  return layout;
}

}  // namespace splitlock::phys
