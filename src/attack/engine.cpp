#include "attack/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"
#include "util/stopwatch.hpp"

namespace splitlock::attack {

namespace internal {
// Defined in engines.cpp. Referencing it from here guarantees the built-in
// adapters' translation unit is pulled out of the static library even when
// a binary only ever dispatches through the registry.
void RegisterBuiltinEngines(EngineRegistry& registry);
}  // namespace internal

// --- AttackConfig -----------------------------------------------------------

AttackConfig AttackConfig::Parse(std::string_view spec) {
  AttackConfig config;
  const size_t colon = spec.find(':');
  config.engine = std::string(spec.substr(0, colon));
  if (config.engine.empty()) {
    throw std::invalid_argument("attack config: empty engine name");
  }
  if (colon == std::string_view::npos) return config;
  std::string_view rest = spec.substr(colon + 1);
  while (!rest.empty()) {
    const size_t comma = rest.find(',');
    const std::string_view pair = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (pair.empty()) continue;
    const size_t eq = pair.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw std::invalid_argument("attack config: expected key=value in '" +
                                  std::string(pair) + "'");
    }
    config.params[std::string(pair.substr(0, eq))] =
        std::string(pair.substr(eq + 1));
  }
  return config;
}

std::string AttackConfig::ToString() const {
  std::string out = engine;
  bool first = true;
  for (const auto& [key, value] : params) {
    out += first ? ':' : ',';
    first = false;
    out += key;
    out += '=';
    out += value;
  }
  return out;
}

uint64_t AttackConfig::Hash() const {
  // FNV-1a over the canonical string form: stable across processes.
  return util::Fnv1a(ToString());
}

uint64_t AttackConfig::GetUint(const std::string& key, uint64_t def) const {
  const auto it = params.find(key);
  return it == params.end() ? def : std::stoull(it->second);
}

double AttackConfig::GetDouble(const std::string& key, double def) const {
  const auto it = params.find(key);
  return it == params.end() ? def : std::stod(it->second);
}

bool AttackConfig::GetBool(const std::string& key, bool def) const {
  const auto it = params.find(key);
  if (it == params.end()) return def;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw std::invalid_argument("attack config: boolean expected for '" + key +
                              "', got '" + v + "'");
}

std::string AttackConfig::GetString(const std::string& key,
                                    std::string def) const {
  const auto it = params.find(key);
  return it == params.end() ? std::move(def) : it->second;
}

// --- AttackReport -----------------------------------------------------------

namespace {

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonNumber(std::string* out, double v) {
  char buf[40];
  // %.17g round-trips doubles; integral values print without exponent.
  if (v == static_cast<double>(static_cast<long long>(v)) && v < 1e15 &&
      v > -1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  *out += buf;
}

}  // namespace

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  AppendJsonString(&out, s);
  return out;
}

bool AttackReport::CompletesAssignment(const split::FeolView& feol) const {
  return ok && !feol.sink_stubs.empty() &&
         assignment.size() == feol.sink_stubs.size();
}

std::string AttackReport::ToJson() const {
  std::string out = "{\"engine\":";
  AppendJsonString(&out, engine);
  out += ",\"config\":";
  AppendJsonString(&out, config);
  out += ",\"ok\":";
  out += ok ? "true" : "false";
  if (!error.empty()) {
    out += ",\"error\":";
    AppendJsonString(&out, error);
  }
  out += ",\"elapsed_s\":";
  AppendJsonNumber(&out, elapsed_s);
  if (!assignment.empty()) {
    out += ",\"assignment_size\":";
    AppendJsonNumber(&out, static_cast<double>(assignment.size()));
  }
  out += ",\"key_found\":";
  out += key_found ? "true" : "false";
  if (key_found) {
    out += ",\"recovered_key\":\"";
    for (const uint8_t b : recovered_key) out += b ? '1' : '0';
    out += '"';
    out += ",\"functionally_correct\":";
    out += functionally_correct ? "true" : "false";
  }
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [key, value] : counters) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(&out, key);
    out += ':';
    AppendJsonNumber(&out, value);
  }
  out += "},\"phases\":[";
  first = true;
  for (const PhaseStat& phase : phases) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    AppendJsonString(&out, phase.name);
    out += ",\"wall_ms\":";
    AppendJsonNumber(&out, phase.wall_ms);
    out += ",\"count\":";
    AppendJsonNumber(&out, static_cast<double>(phase.count));
    out += '}';
  }
  out += ']';
  if (!rounds.empty()) {
    out += ",\"rounds\":[";
    first = true;
    for (const RoundStat& round : rounds) {
      if (!first) out += ',';
      first = false;
      out += "{\"conflicts\":";
      AppendJsonNumber(&out, static_cast<double>(round.conflicts));
      out += ",\"solve_ms\":";
      AppendJsonNumber(&out, round.solve_ms);
      out += ",\"encode_ms\":";
      AppendJsonNumber(&out, round.encode_ms);
      out += ",\"oracle_ms\":";
      AppendJsonNumber(&out, round.oracle_ms);
      out += '}';
    }
    out += ']';
  }
  out += '}';
  return out;
}

// --- EngineRegistry ---------------------------------------------------------

struct EngineRegistry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, EngineFactory> factories;
};

EngineRegistry& EngineRegistry::Instance() {
  static EngineRegistry registry;
  // Outside impl()'s lock: RegisterBuiltinEngines re-enters via Register.
  static std::once_flag builtins_once;
  std::call_once(builtins_once,
                 [] { internal::RegisterBuiltinEngines(registry); });
  return registry;
}

EngineRegistry::Impl& EngineRegistry::impl() const {
  static Impl impl;
  return impl;
}

void EngineRegistry::Register(std::string name, EngineFactory factory) {
  Impl& i = impl();
  const std::lock_guard<std::mutex> lock(i.mutex);
  i.factories[std::move(name)] = std::move(factory);
}

std::unique_ptr<Engine> EngineRegistry::Create(const std::string& name) const {
  Impl& i = impl();
  EngineFactory factory;
  {
    const std::lock_guard<std::mutex> lock(i.mutex);
    const auto it = i.factories.find(name);
    if (it == i.factories.end()) return nullptr;
    factory = it->second;
  }
  return factory();
}

bool EngineRegistry::Has(const std::string& name) const {
  Impl& i = impl();
  const std::lock_guard<std::mutex> lock(i.mutex);
  return i.factories.count(name) > 0;
}

std::vector<std::string> EngineRegistry::Names() const {
  Impl& i = impl();
  const std::lock_guard<std::mutex> lock(i.mutex);
  std::vector<std::string> names;
  names.reserve(i.factories.size());
  for (const auto& [name, factory] : i.factories) names.push_back(name);
  return names;  // std::map iterates sorted
}

// --- RunAttack --------------------------------------------------------------

AttackReport RunAttack(const AttackContext& ctx, const AttackConfig& config) {
  static obs::Counter* runs =
      obs::Registry::Instance().RegisterCounter("attack.engine.runs");
  runs->Add(1);
  obs::Span span("attack.engine");
  AttackReport report;
  report.engine = config.engine;
  report.config = config.ToString();
  const Stopwatch elapsed;
  const std::unique_ptr<Engine> engine =
      EngineRegistry::Instance().Create(config.engine);
  if (!engine) {
    report.error = "unknown attack engine '" + config.engine + "'";
    return report;
  }
  const std::vector<std::string> accepted = engine->AcceptedKeys();
  for (const auto& [key, value] : config.params) {
    if (std::find(accepted.begin(), accepted.end(), key) != accepted.end()) {
      continue;
    }
    report.error = "attack engine '" + config.engine +
                   "' does not accept key '" + key + "' (accepted:";
    for (const std::string& a : accepted) report.error += " " + a;
    report.error += ")";
    return report;
  }
  const std::string missing = engine->CheckContext(ctx);
  if (!missing.empty()) {
    report.error = missing;
    return report;
  }
  try {
    report = engine->Run(ctx, config);
    report.engine = config.engine;
    report.config = config.ToString();
    report.ok = report.error.empty();
  } catch (const std::exception& e) {
    report = AttackReport{};
    report.engine = config.engine;
    report.config = config.ToString();
    report.error = e.what();
  }
  report.elapsed_s = elapsed.Seconds();
  return report;
}

AttackReport RunAttack(const AttackContext& ctx, std::string_view spec) {
  return RunAttack(ctx, AttackConfig::Parse(spec));
}

}  // namespace splitlock::attack
