// The unified attack-engine API.
//
// The paper's central claim (Sec. II-C, Sec. V) is comparative: the secure
// split flow must hold up against *every* attacker model — proximity, ML,
// oracle-guided SAT, the ideal attacker, oracle-less probing. Each of those
// used to be a bespoke free function with its own options/result structs,
// so only the proximity attack could be driven by the campaign runner and
// the CLI. This header makes the attacker model a first-class value:
//
//  * AttackContext — everything an attack may see: the FEOL view, the
//    locked netlist, optionally the functional oracle (which the
//    split-manufacturing threat model denies — engines that consume it are
//    deliberately violating the model to quantify what the missing oracle
//    is worth), the correct key (for scoring-only engines), a seed for
//    deterministic StreamRng streams and a conflict budget.
//  * AttackConfig — a serializable (engine name + key=value params)
//    description of one attack run. Hashable, so campaign-level caches can
//    key on it; parseable, so the CLI can accept --engine=name:k=v,k=v.
//  * AttackReport — the uniform result: a layout-level assignment and/or a
//    recovered key, correctness flags, a counter bag and per-phase wall
//    timings. Serializes to JSON for the CLI and bench records.
//  * Engine + EngineRegistry — a polymorphic engine interface with a
//    static self-registering registry; the campaign runner, the CLI and
//    the benches all dispatch through it.
//
// Built-in engines (see engines.cpp): "proximity", "ml", "ideal", "sat",
// "oracle-less".
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/netlist.hpp"
#include "split/split.hpp"

namespace splitlock::attack {

// What the attacker gets to see. Engines declare their needs via
// Engine::CheckContext; unneeded fields may stay null.
struct AttackContext {
  // Layout-level view (proximity-family engines).
  const split::FeolView* feol = nullptr;
  // Netlist-level views (SAT-family engines). `oracle` is the original
  // function — providing it deliberately violates the split-manufacturing
  // threat model (Sec. II-C); engines that consume it exist to demonstrate
  // what an attacker could do IF an oracle existed.
  const Netlist* locked = nullptr;
  const Netlist* oracle = nullptr;
  // The designer's key (scoring-only engines, e.g. the ideal attack).
  std::span<const uint8_t> correct_key;

  // Seed for the engine's deterministic StreamRng streams. An engine's
  // result is a pure function of (context views, seed, config) at any
  // thread count.
  uint64_t seed = 1;
  // Bounds the sat engine's search deterministically: a cumulative
  // ceiling on its solver's conflicts.
  uint64_t conflict_budget = 2000000;
};

// A serializable attack description: engine name + string params. The
// ordered map gives a canonical ToString(), so configs can key the store
// (store::AttackKeyHash) and be round-tripped through the CLI.
struct AttackConfig {
  std::string engine;
  std::map<std::string, std::string> params;

  // "name" or "name:key=value,key=value". Throws std::invalid_argument on
  // malformed specs.
  static AttackConfig Parse(std::string_view spec);
  // Canonical form; Parse(ToString()) == *this.
  std::string ToString() const;

  uint64_t GetUint(const std::string& key, uint64_t def) const;
  double GetDouble(const std::string& key, double def) const;
  bool GetBool(const std::string& key, bool def) const;

  bool operator==(const AttackConfig&) const = default;
};

// One named phase of an engine run (timings are measurements; counters are
// deterministic).
struct PhaseStat {
  std::string name;
  double wall_ms = 0.0;
  uint64_t count = 0;
};

// Per-iteration telemetry for round-based engines (the sat engine's DIP
// rounds). Conflict counts are deterministic; the wall-clock splits are
// measurements.
struct RoundStat {
  uint64_t conflicts = 0;
  double solve_ms = 0.0;
  double encode_ms = 0.0;
  double oracle_ms = 0.0;
};

// The uniform attack result. Engines fill the sections that apply to their
// attacker model and leave the rest empty.
struct AttackReport {
  std::string engine;       // registry name
  std::string config;       // AttackConfig::ToString() of the run
  bool ok = false;          // engine ran to completion
  std::string error;        // failure reason when !ok

  // Layout-level outcome: a proposed driver net per sink stub (empty when
  // the engine does not produce an assignment).
  split::Assignment assignment;

  // Key-level outcome.
  bool key_found = false;
  std::vector<uint8_t> recovered_key;
  bool functionally_correct = false;

  // Named counters (deterministic) and per-phase timings (measured).
  std::map<std::string, double> counters;
  std::vector<PhaseStat> phases;
  // Per-round telemetry for round-based engines (empty otherwise).
  std::vector<RoundStat> rounds;
  double elapsed_s = 0.0;

  // Whether this report gets a scorecard against `feol`: it ran ok and
  // assigns every sink stub of a split that broke something. The
  // empty-stub guard keeps key-only engines (whose assignment is
  // legitimately empty) from passing for a layout recovery.
  bool CompletesAssignment(const split::FeolView& feol) const;

  // One JSON object (single line, no trailing newline).
  std::string ToJson() const;
};

// `s` as a quoted, escaped JSON string literal — shared by ToJson and the
// CLI/bench JSON emitters (user-supplied strings like file paths must not
// break the record's syntax).
std::string JsonEscape(std::string_view s);

// An attacker model. Implementations must be stateless across Run calls
// (a registry Create() per run is cheap); all state lives in the context
// and config.
class Engine {
 public:
  virtual ~Engine() = default;
  virtual std::string name() const = 0;
  virtual std::string description() const = 0;
  // Empty string when `ctx` carries everything this engine needs;
  // otherwise the missing requirement (becomes AttackReport::error).
  virtual std::string CheckContext(const AttackContext& ctx) const = 0;
  // Every AttackConfig key Run reads. RunAttack rejects a config carrying
  // any other key before running, so a typo or a retired key cannot
  // silently fall back to its default under a config hash of its own.
  virtual std::vector<std::string> AcceptedKeys() const = 0;
  virtual AttackReport Run(const AttackContext& ctx,
                           const AttackConfig& config) const = 0;
};

using EngineFactory = std::function<std::unique_ptr<Engine>()>;

// Static engine registry. Built-in engines self-register on first use;
// external code may Register additional factories (thread-safe).
class EngineRegistry {
 public:
  static EngineRegistry& Instance();

  void Register(std::string name, EngineFactory factory);
  // nullptr when unknown.
  std::unique_ptr<Engine> Create(const std::string& name) const;
  std::vector<std::string> Names() const;  // sorted

 private:
  EngineRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

// Dispatches `config` through the registry on `ctx`, handling unknown
// engines, keys the engine does not accept, context-requirement failures
// and exceptions uniformly (they come back as !ok reports instead of
// throwing), and stamping engine/config/elapsed_s.
AttackReport RunAttack(const AttackContext& ctx, const AttackConfig& config);

// Convenience: parse + run.
AttackReport RunAttack(const AttackContext& ctx, std::string_view spec);

}  // namespace splitlock::attack
