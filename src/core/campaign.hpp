// CampaignRunner: concurrent lock -> place/route -> split -> attack
// campaigns over whole circuit suites.
//
// One campaign job is the full per-benchmark evaluation pipeline the bench
// harnesses and the CLI run: build the circuit, run the secure split
// manufacturing flow, split the layout, run a *portfolio of attack engines*
// against the result, score it (CCR / PNR / HD / OER). Jobs are
// independent, so the runner executes them as tasks on the exec thread
// pool; the parallel sweeps inside each job (HD/OER, probes, proximity
// candidate scoring) run as nested parallel regions on the same pool, so a
// single large job still saturates the machine once the queue of whole
// jobs drains. Lock, placement, routing and STA run on the job's own
// thread. Per-job failures are captured in the outcome instead
// of aborting the campaign. Outcomes keep job order; all per-job randomness
// is seeded from the job's own options, so a campaign's results do not
// depend on thread count or completion order.
//
// Attacks are described by attack::AttackConfig values and dispatched
// through the attack-engine registry (attack/engine.hpp): any registered
// engine — proximity, ml, ideal, sat, oracle-less — can run per job, not
// just the proximity attack.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "attack/engine.hpp"
#include "attack/metrics.hpp"
#include "core/flow.hpp"
#include "store/result_store.hpp"

namespace splitlock::core {

struct CampaignJob {
  std::string name;
  // Deferred circuit construction: runs inside the worker task, so
  // suite-scale campaigns also build their (synthetic) benchmarks
  // concurrently.
  std::function<Netlist()> make_netlist;
  FlowOptions flow;
  // Attack portfolio for this job, run in order through the engine
  // registry. Engines see the job's FEOL view, locked netlist, the
  // original as oracle, and the designer key; the scorecard is computed
  // from the first report that carries a complete assignment.
  std::vector<attack::AttackConfig> attacks = {
      attack::AttackConfig{.engine = "proximity"}};

  // Persistent-store identity of the benchmark this job evaluates
  // (e.g. "itc/b14") and the canonical scale string; empty cache_id means
  // the job is not store-addressable (ad-hoc netlists). The flow-level
  // store::StoreKey additionally hashes the flow options
  // (CampaignRunner::KeyFor); each attack in the portfolio is addressed
  // separately under that key (CampaignRunner::AttackKeyFor).
  std::string cache_id;
  std::string cache_scale;
  // Skip the store lookup (still inserts after computing). Consumers that
  // need the in-memory FlowResult — not just the record — set this: a
  // store hit cannot reconstruct netlists or layouts.
  bool force_compute = false;
};

struct CampaignOutcome {
  std::string name;
  bool ok = false;
  std::string error;  // exception text when !ok
  FlowResult flow;
  // One report per attack this run actually executed, in job order. A
  // failed engine run (unknown name, missing context) yields a !ok
  // report; it does not fail the job. On a partial store hit, attacks the
  // store already held do NOT reappear here — only in `record.attacks`.
  std::vector<attack::AttackReport> attacks;
  attack::AttackScore score;  // the record's campaign-level scorecard
  double elapsed_s = 0.0;

  // Serializable summary of this outcome — always filled, assembled by
  // store::ComposeCampaignRecord from the flow summary and the per-attack
  // records (cached or fresh) in canonical portfolio order, so it is
  // byte-identical however the pieces were obtained. On a full store hit
  // it IS the result (from_store=true) and `flow`/`attacks` stay empty;
  // consumers that only read numbers (the CLI suite table, shard tables,
  // the table benches) use the record and never notice the difference.
  store::CampaignRecord record;
  bool from_store = false;

  // The first report with a complete assignment (nullptr when none).
  const attack::AttackReport* AssignmentReport() const;
};

struct CampaignOptions {
  // Random patterns for the attack scorecard's HD/OER estimate.
  uint64_t score_patterns = 4096;
  // Skip the attack portfolio + scorecard (flow-only campaigns).
  bool run_attack = true;
  // Persistent result store (not owned; may be null). Jobs with a
  // cache_id consult it before computing and insert after computing.
  store::ResultStore* store = nullptr;
};

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignOptions options = {}) : options_(options) {}

  // Runs every job, concurrently, and returns outcomes in job order.
  std::vector<CampaignOutcome> Run(const std::vector<CampaignJob>& jobs) const;

  // Runs a single job on the calling thread. Store-addressable jobs
  // resolve in three temperatures: a *full hit* assembles the record from
  // the flow + every per-attack record without computing anything; a
  // *partial hit* (flow record present, some attacks missing) replays the
  // flow from the artifact tier (or recomputes it when the blob was
  // evicted), runs only the missing engines, and publishes only their
  // records; a *cold* job computes and publishes everything.
  CampaignOutcome RunOne(const CampaignJob& job) const;

  // The flow-level persistent-store address of `job`:
  // (cache_id, cache_scale, FlowOptionsHash(job.flow)). Shared by every
  // attack portfolio over the same flow.
  store::StoreKey KeyFor(const CampaignJob& job) const;

  // The per-attack record address under KeyFor(job):
  // store::AttackKeyHash over the config's canonical string and this
  // runner's score-pattern count.
  uint64_t AttackKeyFor(const attack::AttackConfig& config) const;

  // Store-only assembly: the RunOne full-hit path without the compute
  // fallback. nullopt unless the flow record is present and ok and every
  // attack record exists. Record-only consumers (bench table harnesses)
  // use this instead of reimplementing two-level lookups.
  std::optional<store::CampaignRecord> LookupAssembled(
      const CampaignJob& job) const;

 private:
  CampaignOptions options_;
};

// The runner's flow-summary rule, exposed for tests and for consumers
// that assemble outcomes themselves; the job-level record is then
// store::ComposeCampaignRecord(MakeFlowRecord(outcome), attack records).
// The record's timings are outcome.flow.times, whose total_s RunOne sets
// to the job's elapsed_s.
store::FlowRecord MakeFlowRecord(const CampaignOutcome& outcome);

// Suite helpers: one job per benchmark, named after it. `scale` follows
// circuits::MakeItc99's REPRO_SCALE semantics.
std::vector<CampaignJob> IscasCampaignJobs(const FlowOptions& flow);
std::vector<CampaignJob> Itc99CampaignJobs(const FlowOptions& flow,
                                           double scale);

}  // namespace splitlock::core
