// Built-in attack engines: thin adapters mapping the uniform
// AttackContext/AttackConfig/AttackReport API onto the five attacker
// models this repo implements. The legacy free functions
// (RunProximityAttack, RunMlAttack, ...) remain the implementation; these
// adapters own the config-string -> options and result -> report
// conversions so the campaign runner, the CLI and the benches all see one
// shape.
#include <string>
#include <vector>

#include "attack/engine.hpp"
#include "attack/ideal.hpp"
#include "attack/ml_attack.hpp"
#include "attack/proximity.hpp"
#include "attack/sat_attack.hpp"

namespace splitlock::attack {
namespace {

// Flattens the SAT attack's telemetry into the report.
void FillSatReport(const SatAttackResult& result, AttackReport* report) {
  report->key_found = result.key_found;
  report->recovered_key = result.recovered_key;
  report->functionally_correct = result.functionally_correct;
  report->counters["finished"] = result.finished ? 1.0 : 0.0;
  report->counters["dips_used"] = static_cast<double>(result.dips_used);
  report->counters["oracle_queries"] =
      static_cast<double>(result.telemetry.oracle_queries);
  report->counters["total_conflicts"] =
      static_cast<double>(result.telemetry.total_conflicts);
  report->counters["rounds"] =
      static_cast<double>(result.telemetry.rounds.size());
  double solve_ms = 0.0;
  double encode_ms = 0.0;
  double oracle_ms = 0.0;
  for (const RoundStat& round : result.telemetry.rounds) {
    solve_ms += round.solve_ms;
    encode_ms += round.encode_ms;
    oracle_ms += round.oracle_ms;
  }
  const uint64_t rounds = result.telemetry.rounds.size();
  report->phases.push_back({"dip_solve", solve_ms, rounds});
  report->phases.push_back({"dip_encode", encode_ms, result.dips_used});
  report->phases.push_back(
      {"oracle", oracle_ms, result.telemetry.oracle_queries});
  report->phases.push_back(
      {"final_solve", result.telemetry.final_solve_ms, 1});
  report->phases.push_back({"verify", result.telemetry.verify_ms, 1});
  report->rounds = result.telemetry.rounds;
}

class ProximityEngine : public Engine {
 public:
  std::string name() const override { return "proximity"; }
  std::string description() const override {
    return "greedy stub-proximity matcher with direction/load/loop/timing "
           "constraints (Wang et al., TVLSI'18 style)";
  }
  std::string CheckContext(const AttackContext& ctx) const override {
    return ctx.feol ? "" : "proximity engine needs an FEOL view";
  }
  std::vector<std::string> AcceptedKeys() const override {
    return {"seed",   "direction",   "load",  "loop",
            "timing", "postprocess", "slack", "direction_penalty",
            "max_candidates"};
  }
  AttackReport Run(const AttackContext& ctx,
                   const AttackConfig& config) const override {
    ProximityOptions options;
    options.seed = config.GetUint("seed", ctx.seed);
    options.use_direction_hint =
        config.GetBool("direction", options.use_direction_hint);
    options.use_load_constraint =
        config.GetBool("load", options.use_load_constraint);
    options.use_loop_constraint =
        config.GetBool("loop", options.use_loop_constraint);
    options.use_timing_constraint =
        config.GetBool("timing", options.use_timing_constraint);
    options.postprocess_key_gates =
        config.GetBool("postprocess", options.postprocess_key_gates);
    options.timing_slack_factor =
        config.GetDouble("slack", options.timing_slack_factor);
    options.direction_penalty =
        config.GetDouble("direction_penalty", options.direction_penalty);
    options.max_candidates_per_sink = config.GetUint(
        "max_candidates", options.max_candidates_per_sink);

    const ProximityResult result = RunProximityAttack(*ctx.feol, options);
    AttackReport report;
    report.assignment = result.assignment;
    report.counters["committed_by_proximity"] =
        static_cast<double>(result.committed_by_proximity);
    report.counters["fallback_random"] =
        static_cast<double>(result.fallback_random);
    report.counters["key_gates_reconnected"] =
        static_cast<double>(result.key_gates_reconnected);
    return report;
  }
};

class MlEngine : public Engine {
 public:
  std::string name() const override { return "ml"; }
  std::string description() const override {
    return "logistic-regression matcher trained on the attacker's own "
           "intact FEOL connections (Zhang et al., DAC'18 style)";
  }
  std::string CheckContext(const AttackContext& ctx) const override {
    return ctx.feol ? "" : "ml engine needs an FEOL view";
  }
  std::vector<std::string> AcceptedKeys() const override {
    return {"seed", "max_positives", "negatives", "epochs", "lr",
            "postprocess"};
  }
  AttackReport Run(const AttackContext& ctx,
                   const AttackConfig& config) const override {
    MlAttackOptions options;
    options.seed = config.GetUint("seed", ctx.seed);
    options.max_training_positives =
        config.GetUint("max_positives", options.max_training_positives);
    options.negatives_per_positive =
        config.GetUint("negatives", options.negatives_per_positive);
    options.training_epochs = config.GetUint("epochs", options.training_epochs);
    options.learning_rate = config.GetDouble("lr", options.learning_rate);
    options.postprocess_key_gates =
        config.GetBool("postprocess", options.postprocess_key_gates);

    const MlAttackResult result = RunMlAttack(*ctx.feol, options);
    AttackReport report;
    report.assignment = result.assignment;
    report.counters["training_positives"] =
        static_cast<double>(result.training_positives);
    report.counters["training_accuracy_percent"] =
        result.training_accuracy_percent;
    return report;
  }
};

class IdealEngine : public Engine {
 public:
  std::string name() const override { return "ideal"; }
  std::string description() const override {
    return "Sec. IV-A ideal attacker: every regular net granted, key sinks "
           "guessed uniformly; with locked+oracle+key also runs the "
           "random-guess OER sweep";
  }
  std::string CheckContext(const AttackContext& ctx) const override {
    if (ctx.feol) return "";
    if (ctx.locked && ctx.oracle && !ctx.correct_key.empty()) return "";
    return "ideal engine needs an FEOL view (assignment mode) or "
           "locked+oracle+correct_key (guess-sweep mode)";
  }
  std::vector<std::string> AcceptedKeys() const override {
    return {"seed", "guesses", "patterns_per_guess"};
  }
  AttackReport Run(const AttackContext& ctx,
                   const AttackConfig& config) const override {
    AttackReport report;
    const uint64_t seed = config.GetUint("seed", ctx.seed);
    if (ctx.feol) {
      report.assignment = IdealAssignment(*ctx.feol, seed);
    }
    if (ctx.locked && ctx.oracle && !ctx.correct_key.empty()) {
      const uint64_t guesses = config.GetUint("guesses", 4096);
      const uint64_t patterns = config.GetUint("patterns_per_guess", 64);
      const IdealAttackResult result = RunIdealAttack(
          *ctx.oracle, *ctx.locked, ctx.correct_key, guesses, patterns, seed);
      report.counters["guesses"] = static_cast<double>(result.guesses);
      report.counters["erroneous_guesses"] =
          static_cast<double>(result.erroneous_guesses);
      report.counters["exact_guesses"] =
          static_cast<double>(result.exact_guesses);
      report.counters["oer_percent"] = result.OerPercent();
    }
    return report;
  }
};

class SatEngine : public Engine {
 public:
  std::string name() const override { return "sat"; }
  std::string description() const override {
    return "oracle-guided DIP attack (Subramanyan et al., HOST'15); "
           "deliberately violates the split-manufacturing threat model";
  }
  std::string CheckContext(const AttackContext& ctx) const override {
    if (!ctx.locked) return "sat engine needs the locked netlist";
    if (!ctx.oracle) {
      return "sat engine needs a functional oracle (the threat model's "
             "whole point is that the attacker has none)";
    }
    return "";
  }
  std::vector<std::string> AcceptedKeys() const override {
    return {"seed", "max_dips", "conflicts", "verify_patterns"};
  }
  AttackReport Run(const AttackContext& ctx,
                   const AttackConfig& config) const override {
    SatAttackOptions options;
    options.seed = config.GetUint("seed", ctx.seed);
    options.max_dips = config.GetUint("max_dips", options.max_dips);
    options.conflict_budget = config.GetUint("conflicts", ctx.conflict_budget);
    options.verify_patterns =
        config.GetUint("verify_patterns", options.verify_patterns);

    const SatAttackResult result =
        RunSatAttack(*ctx.locked, *ctx.oracle, options);
    AttackReport report;
    FillSatReport(result, &report);
    return report;
  }
};

class OracleLessEngine : public Engine {
 public:
  std::string name() const override { return "oracle-less"; }
  std::string description() const override {
    return "FEOL-only key-space probe: samples random keys and counts "
           "observably distinct functions (nothing ranks them, Sec. II-C)";
  }
  std::string CheckContext(const AttackContext& ctx) const override {
    return ctx.locked ? "" : "oracle-less engine needs the locked netlist";
  }
  std::vector<std::string> AcceptedKeys() const override {
    return {"seed", "samples", "patterns"};
  }
  AttackReport Run(const AttackContext& ctx,
                   const AttackConfig& config) const override {
    const uint64_t seed = config.GetUint("seed", ctx.seed);
    const size_t samples =
        static_cast<size_t>(config.GetUint("samples", 256));
    const uint64_t patterns = config.GetUint("patterns", 2048);
    const OracleLessProbe probe =
        ProbeOracleLessKeySpace(*ctx.locked, samples, patterns, seed);
    AttackReport report;
    report.counters["sampled_keys"] = static_cast<double>(probe.sampled_keys);
    report.counters["distinct_functions"] =
        static_cast<double>(probe.distinct_functions);
    report.counters["distinct_fraction"] = probe.DistinctFraction();
    return report;
  }
};

template <typename E>
void RegisterOne(EngineRegistry& registry) {
  registry.Register(E().name(), [] { return std::make_unique<E>(); });
}

}  // namespace

namespace internal {

void RegisterBuiltinEngines(EngineRegistry& registry) {
  RegisterOne<ProximityEngine>(registry);
  RegisterOne<MlEngine>(registry);
  RegisterOne<IdealEngine>(registry);
  RegisterOne<SatEngine>(registry);
  RegisterOne<OracleLessEngine>(registry);
}

}  // namespace internal

}  // namespace splitlock::attack
