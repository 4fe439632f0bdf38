// Attack-engine API contract tests: config parsing/hashing, the registry
// and the config keys each engine accepts, the adapter engines against
// their legacy free functions, the campaign runner's attack portfolios and
// the report's JSON form.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "attack/engine.hpp"
#include "attack/proximity.hpp"
#include "attack/sat_attack.hpp"
#include "circuits/c17.hpp"
#include "circuits/random_circuit.hpp"
#include "core/campaign.hpp"
#include "core/flow.hpp"
#include "lock/atpg_lock.hpp"
#include "lock/epic.hpp"
#include "store/result_store.hpp"

namespace splitlock::attack {
namespace {

Netlist TestCircuit(uint64_t seed, size_t gates = 400, size_t inputs = 16,
                    size_t outputs = 8) {
  circuits::CircuitSpec spec;
  spec.num_inputs = inputs;
  spec.num_outputs = outputs;
  spec.num_gates = gates;
  spec.seed = seed;
  spec.bias_cone_fraction = 0.15;
  return circuits::GenerateCircuit(spec);
}

lock::AtpgLockResult LockedCircuit(uint64_t seed, size_t key_bits = 24) {
  const Netlist original = TestCircuit(seed);
  lock::AtpgLockOptions opts;
  opts.key_bits = key_bits;
  opts.seed = seed;
  opts.verify_lec = false;
  return lock::LockWithAtpg(original, opts);
}

core::FlowResult SecureFlow(uint64_t seed) {
  const Netlist original = TestCircuit(seed, 700, 24, 12);
  core::FlowOptions opts;
  opts.key_bits = 32;
  opts.seed = seed;
  opts.split_layer = 4;
  opts.placer_moves_per_cell = 25;
  return core::RunSecureFlow(original, opts);
}

// --- AttackConfig -----------------------------------------------------------

TEST(AttackConfig, ParseRoundtrip) {
  const AttackConfig plain = AttackConfig::Parse("proximity");
  EXPECT_EQ(plain.engine, "proximity");
  EXPECT_TRUE(plain.params.empty());
  EXPECT_EQ(plain.ToString(), "proximity");

  const AttackConfig full =
      AttackConfig::Parse("sat:max_dips=64,conflicts=5000");
  EXPECT_EQ(full.engine, "sat");
  EXPECT_EQ(full.GetUint("max_dips", 0), 64u);
  EXPECT_EQ(full.GetUint("conflicts", 0), 5000u);
  // Canonical form sorts params (ordered map) and round-trips.
  EXPECT_EQ(AttackConfig::Parse(full.ToString()), full);
}

TEST(AttackConfig, MalformedSpecsThrow) {
  EXPECT_THROW(AttackConfig::Parse(""), std::invalid_argument);
  EXPECT_THROW(AttackConfig::Parse("sat:no_equals"), std::invalid_argument);
  EXPECT_THROW(AttackConfig::Parse("sat:=value"), std::invalid_argument);
}

// The store keys an attack by store::AttackKeyHash over the config's
// canonical form.
TEST(AttackConfig, HashIsStableAndDiscriminates) {
  const auto hash = [](std::string_view spec) {
    return store::AttackKeyHash(AttackConfig::Parse(spec).ToString(), 4096);
  };
  EXPECT_EQ(hash("sat:max_dips=64"), hash("sat:max_dips=64"));
  EXPECT_NE(hash("sat:max_dips=64"), hash("sat:max_dips=65"));
  // Param order in the spec does not matter (canonicalized by the map).
  EXPECT_EQ(AttackConfig::Parse("sat:a=1,b=2").ToString(),
            AttackConfig::Parse("sat:b=2,a=1").ToString());
  EXPECT_EQ(hash("sat:a=1,b=2"), hash("sat:b=2,a=1"));
}

TEST(AttackConfig, TypedGetters) {
  const AttackConfig config = AttackConfig::Parse("x:n=42,f=0.5,b=true");
  EXPECT_EQ(config.GetUint("n", 0), 42u);
  EXPECT_DOUBLE_EQ(config.GetDouble("f", 0.0), 0.5);
  EXPECT_TRUE(config.GetBool("b", false));
  EXPECT_EQ(config.GetUint("missing", 7), 7u);
  EXPECT_THROW(config.GetBool("n", false), std::invalid_argument);
}

// --- Registry ---------------------------------------------------------------

TEST(EngineRegistry, ListsAllBuiltinEngines) {
  const std::vector<std::string> names = EngineRegistry::Instance().Names();
  for (const char* expected :
       {"proximity", "ml", "ideal", "sat", "oracle-less"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing engine " << expected;
  }
}

TEST(EngineRegistry, UnknownEngineYieldsErrorReport) {
  // "sat-portfolio" is a retired engine.
  for (const char* name : {"no-such-engine", "sat-portfolio"}) {
    EXPECT_EQ(EngineRegistry::Instance().Create(name), nullptr) << name;
    const AttackReport report =
        RunAttack(AttackContext{}, AttackConfig{.engine = name, .params = {}});
    EXPECT_FALSE(report.ok) << name;
    EXPECT_NE(report.error.find("unknown attack engine"), std::string::npos)
        << name;
  }
}

TEST(EngineRegistry, MissingContextYieldsErrorReportNotThrow) {
  // A SAT engine without an oracle must fail gracefully: the threat-model
  // check is an error report, not an exception or a crash.
  const Netlist original = circuits::MakeC17();
  AttackContext ctx;
  ctx.locked = &original;
  const AttackReport report = RunAttack(ctx, "sat");
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("oracle"), std::string::npos);
}

TEST(EngineRegistry, ExternalRegistration) {
  class FakeEngine : public Engine {
   public:
    std::string name() const override { return "fake"; }
    std::string description() const override { return "test double"; }
    std::string CheckContext(const AttackContext&) const override {
      return "";
    }
    std::vector<std::string> AcceptedKeys() const override { return {}; }
    AttackReport Run(const AttackContext&,
                     const AttackConfig&) const override {
      AttackReport report;
      report.counters["ran"] = 1.0;
      return report;
    }
  };
  EngineRegistry::Instance().Register(
      "fake", [] { return std::make_unique<FakeEngine>(); });
  const AttackReport report = RunAttack(AttackContext{}, "fake");
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.counters.at("ran"), 1.0);
}

TEST(EngineRegistry, RejectsKeysTheEngineDoesNotAccept) {
  // The keys each built-in engine's Run reads. The key check runs before
  // the context check, so an empty context separates the two verdicts
  // without running any attack.
  const std::map<std::string, std::vector<std::string>> reads = {
      {"proximity",
       {"seed", "direction", "load", "loop", "timing", "postprocess", "slack",
        "direction_penalty", "max_candidates"}},
      {"ml",
       {"seed", "max_positives", "negatives", "epochs", "lr", "postprocess"}},
      {"ideal", {"seed", "guesses", "patterns_per_guess"}},
      {"sat", {"seed", "max_dips", "conflicts", "verify_patterns"}},
      {"oracle-less", {"seed", "samples", "patterns"}},
  };
  for (const auto& [engine, keys] : reads) {
    std::vector<std::string> accepted =
        EngineRegistry::Instance().Create(engine)->AcceptedKeys();
    std::vector<std::string> expected = keys;
    std::sort(accepted.begin(), accepted.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(accepted, expected) << engine;

    AttackConfig config{.engine = engine, .params = {}};
    for (const std::string& key : keys) config.params[key] = "1";
    const AttackReport report = RunAttack(AttackContext{}, config);
    EXPECT_FALSE(report.ok) << engine;
    EXPECT_EQ(report.error.find("does not accept"), std::string::npos)
        << engine << ": " << report.error;
  }

  // The retired legacy-encoder switch and wall-clock budget, and a typo of
  // "conflicts".
  for (const char* spec :
       {"sat:incremental=0", "sat:wall_s=5", "sat:conflcts=100"}) {
    const AttackConfig config = AttackConfig::Parse(spec);
    const std::string& key = config.params.begin()->first;
    const AttackReport report = RunAttack(AttackContext{}, config);
    EXPECT_FALSE(report.ok) << spec;
    EXPECT_NE(report.error.find("does not accept key '" + key + "'"),
              std::string::npos)
        << spec << ": " << report.error;
  }
}

// --- Adapter equivalence ----------------------------------------------------

TEST(EngineAdapters, ProximityMatchesFreeFunction) {
  const core::FlowResult flow = SecureFlow(3);
  AttackContext ctx;
  ctx.feol = &flow.feol;
  const AttackReport report = RunAttack(ctx, "proximity");
  ASSERT_TRUE(report.ok) << report.error;
  const ProximityResult direct = RunProximityAttack(flow.feol);
  EXPECT_EQ(report.assignment, direct.assignment);
  EXPECT_EQ(report.counters.at("committed_by_proximity"),
            static_cast<double>(direct.committed_by_proximity));
}

TEST(EngineAdapters, ProximityParamsReachTheAttack) {
  const core::FlowResult flow = SecureFlow(4);
  AttackContext ctx;
  ctx.feol = &flow.feol;
  const AttackReport with_pp = RunAttack(ctx, "proximity");
  const AttackReport without_pp =
      RunAttack(ctx, "proximity:postprocess=false");
  ASSERT_TRUE(with_pp.ok);
  ASSERT_TRUE(without_pp.ok);
  EXPECT_EQ(without_pp.counters.at("key_gates_reconnected"), 0.0);
  EXPECT_NE(with_pp.assignment, without_pp.assignment);
}

TEST(EngineAdapters, SatEngineRecoversEpicKey) {
  const Netlist original = circuits::MakeC17();
  Rng rng(1);
  const lock::EpicResult locked = lock::LockWithEpic(original, 6, rng);
  AttackContext ctx;
  ctx.locked = &locked.locked;
  ctx.oracle = &original;
  const AttackReport report = RunAttack(ctx, "sat");
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_TRUE(report.key_found);
  EXPECT_TRUE(report.functionally_correct);
  EXPECT_GT(report.counters.at("dips_used"), 0.0);
  // Per-round telemetry: one entry per miter solve, conflicts summing to
  // at most the total.
  EXPECT_EQ(report.rounds.size(), report.counters.at("rounds"));
  EXPECT_FALSE(report.phases.empty());
}

TEST(EngineAdapters, OracleLessMatchesFreeFunction) {
  const lock::AtpgLockResult locked = LockedCircuit(5);
  AttackContext ctx;
  ctx.locked = &locked.locked;
  ctx.seed = 5;
  const AttackReport report =
      RunAttack(ctx, "oracle-less:samples=64,patterns=512");
  ASSERT_TRUE(report.ok) << report.error;
  const OracleLessProbe direct =
      ProbeOracleLessKeySpace(locked.locked, 64, 512, 5);
  EXPECT_EQ(report.counters.at("sampled_keys"),
            static_cast<double>(direct.sampled_keys));
  EXPECT_EQ(report.counters.at("distinct_functions"),
            static_cast<double>(direct.distinct_functions));
}

TEST(EngineAdapters, IdealEngineBothModes) {
  const core::FlowResult flow = SecureFlow(6);
  // Assignment mode: FEOL only.
  AttackContext layout_ctx;
  layout_ctx.feol = &flow.feol;
  layout_ctx.seed = 6;
  const AttackReport layout = RunAttack(layout_ctx, "ideal");
  ASSERT_TRUE(layout.ok) << layout.error;
  EXPECT_EQ(layout.assignment.size(), flow.feol.sink_stubs.size());

  // Guess-sweep mode: locked + oracle + key.
  const Netlist original = TestCircuit(7);
  lock::AtpgLockOptions opts;
  opts.key_bits = 24;
  opts.seed = 7;
  opts.verify_lec = false;
  const lock::AtpgLockResult locked = lock::LockWithAtpg(original, opts);
  AttackContext key_ctx;
  key_ctx.locked = &locked.locked;
  key_ctx.oracle = &original;
  key_ctx.correct_key = locked.key;
  key_ctx.seed = 7;
  const AttackReport sweep =
      RunAttack(key_ctx, "ideal:guesses=512,patterns_per_guess=64");
  ASSERT_TRUE(sweep.ok) << sweep.error;
  EXPECT_EQ(sweep.counters.at("guesses"), 512.0);
  EXPECT_GE(sweep.counters.at("oer_percent"), 95.0);
}

// --- Campaign portfolios ----------------------------------------------------

TEST(CampaignPortfolio, RunsMultipleEnginesPerJob) {
  core::CampaignJob job;
  job.name = "engine-portfolio";
  job.make_netlist = [] { return TestCircuit(10, 700, 24, 12); };
  job.flow.key_bits = 32;
  job.flow.seed = 10;
  job.flow.placer_moves_per_cell = 25;
  job.attacks = {AttackConfig::Parse("proximity"),
                 AttackConfig::Parse("ideal"),
                 AttackConfig::Parse("oracle-less:samples=32,patterns=256")};
  core::CampaignOptions options;
  options.score_patterns = 512;
  const core::CampaignOutcome outcome =
      core::CampaignRunner(options).RunOne(job);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  ASSERT_EQ(outcome.attacks.size(), 3u);
  for (const AttackReport& report : outcome.attacks) {
    EXPECT_TRUE(report.ok) << report.engine << ": " << report.error;
  }
  // The scorecard comes from the first assignment-carrying report
  // (proximity), and the oracle-less probe contributed counters.
  ASSERT_NE(outcome.AssignmentReport(), nullptr);
  EXPECT_EQ(outcome.AssignmentReport()->engine, "proximity");
  EXPECT_GT(outcome.attacks[2].counters.at("distinct_functions"), 1.0);
  EXPECT_GT(outcome.score.ccr.key_connections, 0u);
}

TEST(CampaignPortfolio, FailedEngineDoesNotFailTheJob) {
  core::CampaignJob job;
  job.name = "bad-engine";
  job.make_netlist = [] { return TestCircuit(11, 700, 24, 12); };
  job.flow.key_bits = 32;
  job.flow.seed = 11;
  job.flow.placer_moves_per_cell = 25;
  job.attacks = {AttackConfig::Parse("no-such-engine"),
                 AttackConfig::Parse("proximity")};
  core::CampaignOptions options;
  options.score_patterns = 512;
  const core::CampaignOutcome outcome =
      core::CampaignRunner(options).RunOne(job);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  ASSERT_EQ(outcome.attacks.size(), 2u);
  EXPECT_FALSE(outcome.attacks[0].ok);
  EXPECT_TRUE(outcome.attacks[1].ok);
  ASSERT_NE(outcome.AssignmentReport(), nullptr);
  EXPECT_EQ(outcome.AssignmentReport()->engine, "proximity");
}

// --- Report serialization ---------------------------------------------------

TEST(AttackReport, JsonContainsCoreFields) {
  AttackReport report;
  report.engine = "sat";
  report.config = "sat:max_dips=4";
  report.ok = true;
  report.key_found = true;
  report.recovered_key = {1, 0, 1};
  report.functionally_correct = true;
  report.counters["dips_used"] = 3;
  report.phases.push_back({"dip_solve", 1.5, 3});
  report.rounds.push_back({42, 1.0, 0.25, 0.125});
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"engine\":\"sat\""), std::string::npos);
  EXPECT_NE(json.find("\"recovered_key\":\"101\""), std::string::npos);
  EXPECT_NE(json.find("\"dips_used\":3"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"dip_solve\""), std::string::npos);
  EXPECT_NE(json.find("\"conflicts\":42"), std::string::npos);
  EXPECT_NE(json.find("\"oracle_ms\":0.125"), std::string::npos);
}

}  // namespace
}  // namespace splitlock::attack
