// Fig. 4 walkthrough on the exact ISCAS-85 c17 netlist.
//
// The paper illustrates its fault-injection locking on c17: inject a
// stuck-at fault, enumerate the failing patterns with ATPG, re-synthesize
// the faulty circuit (removing logic), and add key-configured restore
// circuitry. This example performs each step explicitly with the library's
// low-level APIs and prints what happens, ending with the formal LEC check
// the flow uses to accept or reject a fault (Fig. 3).
#include <cstdio>

#include "atpg/cube.hpp"
#include "atpg/cut.hpp"
#include "circuits/c17.hpp"
#include "lec/lec.hpp"
#include "lock/atpg_lock.hpp"
#include "netlist/bench_io.hpp"

int main() {
  using namespace splitlock;

  const Netlist c17 = circuits::MakeC17();
  std::printf("=== c17 (exact ISCAS-85 netlist) ===\n%s\n",
              WriteBench(c17).c_str());

  // --- Step 1: failing patterns of one fault over its cut -----------------
  // Pick G16 (the paper faults an internal NAND output).
  NetId g16 = kNullId;
  for (NetId n = 0; n < c17.NumNets(); ++n) {
    if (c17.net(n).name == "G16") g16 = n;
  }
  const atpg::Cut cut = atpg::ExtractCut(c17, g16, 8);
  std::printf("fault site G16, cut leaves:");
  for (NetId leaf : cut.leaves) std::printf(" %s", c17.net(leaf).name.c_str());
  std::printf("\n");
  const auto failing = atpg::EnumerateConeMinterms(c17, cut, false, 64);
  // G16 stuck-at-1: failing patterns are where the cone computes 0.
  std::printf("failing patterns (G16/sa1), as cut minterms:");
  for (uint64_t m : *failing) std::printf(" %llu", (unsigned long long)m);
  const auto cubes = atpg::MintermsToCubes(*failing, cut.leaves.size());
  std::printf("\ncompacted to %zu comparator cube(s):\n", cubes.size());
  for (const atpg::Cube& c : cubes) {
    std::printf("  ");
    for (size_t i = 0; i < cut.leaves.size(); ++i) {
      if ((c.care >> i) & 1) {
        std::printf("%s=%d ", c17.net(cut.leaves[i]).name.c_str(),
                    (int)((c.value >> i) & 1));
      }
    }
    std::printf("(%d key bits)\n", c.CareCount());
  }

  // --- Step 2: the full locking flow on c17 -------------------------------
  lock::AtpgLockOptions options;
  options.key_bits = 8;  // tiny design, tiny key
  options.seed = 17;
  options.min_bias = 0.6;
  // c17 is an illustration: no 6-gate circuit can pay for a comparator.
  options.require_area_gain = false;
  const lock::AtpgLockResult locked = lock::LockWithAtpg(c17, options);
  std::printf("\n=== locked c17 ===\n%s\n",
              WriteBench(locked.locked).c_str());
  std::printf("key bits: %zu (%zu from failing patterns, %zu padded)\n",
              locked.key.size(), locked.pattern_bits, locked.padding_bits);
  std::printf("correct key: ");
  for (uint8_t b : locked.key) std::printf("%d", b);
  std::printf("\nfaults injected: %zu\n", locked.faults.size());
  for (const auto& f : locked.faults) {
    std::printf("  net %s stuck-at-%d, %zu cubes, %zu key bits, "
                "%.2f um^2 cone removed\n",
                f.net_name.c_str(), f.stuck_value ? 1 : 0, f.cubes,
                f.key_bits, f.cone_area_removed);
  }

  // --- Step 3: the LEC accept/reject gate ----------------------------------
  const LecResult lec =
      CheckEquivalence(c17, locked.locked, {}, locked.key);
  std::printf("\nLEC (correct key): %s\n",
              lec.equivalent ? "EQUIVALENT — accept" : "DIFFERS — reject");
  std::vector<uint8_t> wrong = locked.key;
  wrong[0] ^= 1;
  const LecResult bad = CheckEquivalence(c17, locked.locked, {}, wrong);
  std::printf("LEC (one key bit flipped): %s\n",
              bad.equivalent ? "EQUIVALENT (!!)" : "DIFFERS — locked");
  return lec.equivalent && !bad.equivalent ? 0 : 1;
}
