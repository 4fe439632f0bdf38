// Rule implementations for splitlock_lint. Each rule is a lexical pass
// over one file's token stream; see lint.hpp for what the rules mean and
// why they exist. Heuristics err on the quiet side: a rule that cries wolf
// gets pragma'd into silence, which is worse than missing a corner case.
#include <algorithm>
#include <cstddef>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/rules_internal.hpp"

namespace splitlock::lint::internal {
namespace {

using TokList = std::vector<Token>;

bool PathEndsWith(const std::string& path, std::string_view suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

bool IsIdent(const TokList& t, size_t i, std::string_view text) {
  return i < t.size() && t[i].kind == TokKind::kIdent && t[i].text == text;
}
bool IsPunct(const TokList& t, size_t i, std::string_view text) {
  return i < t.size() && t[i].kind == TokKind::kPunct && t[i].text == text;
}

// Index of the punct matching the opener at `open` ("(" / "[" / "{"),
// or t.size() when unbalanced.
size_t MatchingClose(const TokList& t, size_t open) {
  const std::string& o = t[open].text;
  const std::string c = o == "(" ? ")" : o == "[" ? "]" : "}";
  int depth = 0;
  for (size_t i = open; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kPunct) continue;
    if (t[i].text == o) ++depth;
    if (t[i].text == c && --depth == 0) return i;
  }
  return t.size();
}

void Add(std::vector<Violation>* out, const RuleContext& ctx,
         std::string rule, int line, std::string message) {
  out->push_back({std::move(rule), ctx.path, line, std::move(message),
                  /*suppressed=*/false, /*reason=*/""});
}

// --- raw-random -------------------------------------------------------------

// The two files allowed to touch raw engines and own the draw shapes.
constexpr std::string_view kRngHomes[] = {"util/rng.hpp",
                                          "exec/stream_rng.hpp"};

// Type-ish names: any appearance is a violation (declaring a distribution
// is the bug, not just invoking it).
constexpr std::string_view kRandomTypes[] = {
    "random_device",     "uniform_int_distribution",
    "uniform_real_distribution", "normal_distribution",
    "bernoulli_distribution",    "poisson_distribution",
    "exponential_distribution",  "geometric_distribution",
    "discrete_distribution",     "default_random_engine",
    "minstd_rand",       "minstd_rand0",
    "knuth_b",           "ranlux24",
    "ranlux48",          "mt19937",
    "mt19937_64"};

// Function-ish names: violation when called (followed by "(").
constexpr std::string_view kRandomCalls[] = {"rand", "srand", "rand_r",
                                             "drand48", "lrand48", "mrand48"};

// Only when std::-qualified (the repo has its own capitalized Shuffle, and
// unqualified `shuffle` is a plausible local name).
constexpr std::string_view kRandomStdOnly[] = {"shuffle", "random_shuffle"};

void RuleRawRandom(const RuleContext& ctx, std::vector<Violation>* out) {
  for (std::string_view home : kRngHomes) {
    if (PathEndsWith(ctx.path, home)) return;
  }
  const TokList& t = ctx.lex.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const std::string& id = t[i].text;
    const bool member = i > 0 && (IsPunct(t, i - 1, ".") ||
                                  IsPunct(t, i - 1, "->"));

    // #include <random> outside the RNG homes means someone is about to
    // reach for a stdlib distribution.
    if (id == "include" && i >= 1 && IsPunct(t, i - 1, "#") &&
        IsPunct(t, i + 1, "<") && IsIdent(t, i + 2, "random") &&
        IsPunct(t, i + 3, ">")) {
      Add(out, ctx, "raw-random", t[i].line,
          "#include <random> outside util/rng.hpp / exec/stream_rng.hpp — "
          "use splitlock::Rng or exec::StreamRng");
      continue;
    }

    auto flag = [&](std::string_view what) {
      Add(out, ctx, "raw-random", t[i].line,
          std::string("raw RNG primitive '") + std::string(what) +
              "' outside util/rng.hpp / exec/stream_rng.hpp — stdlib draw "
              "shapes are implementation-defined; use Rng / StreamRng");
    };

    if (!member) {
      for (std::string_view name : kRandomTypes) {
        if (id == name) {
          flag(name);
          break;
        }
      }
      for (std::string_view name : kRandomCalls) {
        if (id == name && IsPunct(t, i + 1, "(")) {
          flag(name);
          break;
        }
      }
    }
    for (std::string_view name : kRandomStdOnly) {
      if (id == name && i >= 2 && IsPunct(t, i - 1, "::") &&
          IsIdent(t, i - 2, "std")) {
        flag(std::string("std::") + std::string(name));
        break;
      }
    }
  }
}

// --- wall-clock -------------------------------------------------------------

// util/stopwatch.hpp is the designated telemetry shim and obs/clock.hpp
// the trace-timestamp shim; they are allowlisted so the rule's contract
// reads "all timing goes through Stopwatch / MonotonicMicros or the
// steady_clock they wrap". Everywhere else even naming `chrono` is a
// violation: a third clock home is a new place for wall-clock time to
// leak into results.
// store/fs_clock.hpp is the filesystem-clock shim: artifact-tier GC
// orders evictions by file mtime, which is inherently wall-clock but
// never feeds a canonical result (evicting a blob only changes whether a
// flow replays or recomputes — both are bit-identical). See the header's
// own comment for the full argument.
constexpr std::string_view kClockHomes[] = {"util/stopwatch.hpp",
                                            "obs/clock.hpp",
                                            "store/fs_clock.hpp"};

constexpr std::string_view kWallClockTypes[] = {
    "system_clock", "high_resolution_clock",  // h_r_c may alias system_clock
    "gettimeofday", "localtime", "localtime_r", "gmtime", "gmtime_r",
    "strftime", "ctime", "asctime", "mktime", "timespec_get"};

void RuleWallClock(const RuleContext& ctx, std::vector<Violation>* out) {
  for (std::string_view home : kClockHomes) {
    if (PathEndsWith(ctx.path, home)) return;
  }
  const TokList& t = ctx.lex.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const std::string& id = t[i].text;
    const bool member = i > 0 && (IsPunct(t, i - 1, ".") ||
                                  IsPunct(t, i - 1, "->"));
    if (member) continue;

    // Any appearance of `chrono` — `#include <chrono>`, std::chrono::...
    // — outside the clock homes. String literals do not lex as
    // identifiers, so prose/test fixtures stay quiet.
    if (id == "chrono") {
      Add(out, ctx, "wall-clock", t[i].line,
          "direct <chrono> use outside util/stopwatch.hpp / obs/clock.hpp "
          "— time through util::Stopwatch (durations) or "
          "obs::MonotonicMicros (trace timestamps)");
      continue;
    }
    bool hit = false;
    for (std::string_view name : kWallClockTypes) {
      if (id == name) {
        hit = true;
        break;
      }
    }
    // time(...) / clock() calls: require the call shape and exclude
    // declarations (`double time(` has an identifier right before).
    if (!hit && (id == "time" || id == "clock") && IsPunct(t, i + 1, "(")) {
      const bool declared =
          i > 0 && t[i - 1].kind == TokKind::kIdent &&
          !(IsPunct(t, i - 1, "::"));  // never true for ident; kept explicit
      const bool qualified_std =
          i >= 2 && IsPunct(t, i - 1, "::") && IsIdent(t, i - 2, "std");
      const bool unqualified = i == 0 || t[i - 1].kind == TokKind::kPunct;
      if (!declared && (qualified_std || unqualified)) hit = true;
    }
    if (hit) {
      Add(out, ctx, "wall-clock", t[i].line,
          std::string("wall-clock source '") + id +
              "' — two processes computing the same store key must agree; "
              "use util::Stopwatch / steady_clock for telemetry only");
    }
  }
}

// --- unordered-iter ---------------------------------------------------------

constexpr std::string_view kUnorderedTypes[] = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

void RuleUnorderedIter(const RuleContext& ctx, std::vector<Violation>* out) {
  const TokList& t = ctx.lex.tokens;

  // Pass 1: names declared with an unordered container type.
  std::set<std::string> names;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    bool is_unordered = false;
    for (std::string_view name : kUnorderedTypes) {
      if (t[i].text == name) {
        is_unordered = true;
        break;
      }
    }
    if (!is_unordered || !IsPunct(t, i + 1, "<")) continue;
    // Skip the template argument list.
    int depth = 0;
    size_t j = i + 1;
    for (; j < t.size(); ++j) {
      if (t[j].kind != TokKind::kPunct) continue;
      if (t[j].text == "<") ++depth;
      // Treat >> as two closers (template-closing context).
      if (t[j].text == ">") --depth;
      if (t[j].text == ">>") depth -= 2;
      if (depth <= 0) break;
    }
    // Declarator(s): `> name`, `>& name`, `>* name`, then `, name` chains.
    ++j;
    while (j < t.size() &&
           (IsPunct(t, j, "&") || IsPunct(t, j, "*") || IsPunct(t, j, "&&")))
      ++j;
    while (j < t.size() && t[j].kind == TokKind::kIdent) {
      names.insert(t[j].text);
      ++j;
      // `name(init)`, `name{init}`, `name = init` — skip to , or ; at depth0.
      int d = 0;
      for (; j < t.size(); ++j) {
        if (t[j].kind != TokKind::kPunct) continue;
        const std::string& p = t[j].text;
        if (p == "(" || p == "[" || p == "{") ++d;
        if (p == ")" || p == "]" || p == "}") {
          if (d == 0) break;  // end of enclosing scope — stop
          --d;
        }
        if (d == 0 && (p == "," || p == ";")) break;
      }
      if (!IsPunct(t, j, ",")) break;
      ++j;
    }
  }
  if (names.empty()) return;

  // Pass 2: iteration sites.
  for (size_t i = 0; i < t.size(); ++i) {
    // Range-for whose range expression ends in a tracked name:
    // `for (decl : name)` or `for (decl : obj.name)`.
    if (IsIdent(t, i, "for") && IsPunct(t, i + 1, "(")) {
      const size_t close = MatchingClose(t, i + 1);
      if (close == t.size()) continue;
      // Find the `:` at paren depth 1 (skip `::`, which lexes separately).
      int depth = 0;
      size_t colon = t.size();
      for (size_t j = i + 1; j < close; ++j) {
        if (t[j].kind != TokKind::kPunct) continue;
        if (t[j].text == "(") ++depth;
        if (t[j].text == ")") --depth;
        if (depth == 1 && t[j].text == ":") {
          colon = j;
          break;
        }
      }
      if (colon == t.size()) continue;
      const size_t last = close - 1;
      if (t[last].kind == TokKind::kIdent && names.count(t[last].text) &&
          (last == colon + 1 || IsPunct(t, last - 1, ".") ||
           IsPunct(t, last - 1, "->"))) {
        Add(out, ctx, "unordered-iter", t[i].line,
            std::string("iteration over unordered container '") +
                t[last].text +
                "' — hash order is unspecified and feeds whatever this "
                "loop produces; use an ordered container or annotate "
                "lint:ordered-reduction with a reason");
      }
      continue;
    }
    // name.begin() / name.cbegin() / name.rbegin().
    if (t[i].kind == TokKind::kIdent && names.count(t[i].text) &&
        IsPunct(t, i + 1, ".") && i + 2 < t.size() &&
        (t[i + 2].text == "begin" || t[i + 2].text == "cbegin" ||
         t[i + 2].text == "rbegin") &&
        IsPunct(t, i + 3, "(")) {
      Add(out, ctx, "unordered-iter", t[i].line,
          std::string("iterator walk over unordered container '") +
              t[i].text +
              "' — hash order is unspecified; use an ordered container or "
              "annotate lint:ordered-reduction with a reason");
    }
  }
}

// --- pointer-sort -----------------------------------------------------------

constexpr std::string_view kSortCalls[] = {"sort", "stable_sort",
                                           "partial_sort", "nth_element",
                                           "min_element", "max_element"};

void RulePointerSort(const RuleContext& ctx, std::vector<Violation>* out) {
  const TokList& t = ctx.lex.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    bool is_sort = false;
    for (std::string_view name : kSortCalls) {
      if (t[i].text == name) {
        is_sort = true;
        break;
      }
    }
    if (!is_sort || !IsPunct(t, i + 1, "(")) continue;
    const size_t close = MatchingClose(t, i + 1);
    if (close == t.size()) continue;

    // Find lambdas among the arguments.
    for (size_t j = i + 2; j < close; ++j) {
      if (!IsPunct(t, j, "[")) continue;
      const size_t cap_close = MatchingClose(t, j);
      if (cap_close >= close || !IsPunct(t, cap_close + 1, "(")) continue;
      const size_t params_close = MatchingClose(t, cap_close + 1);
      if (params_close >= close) continue;

      // Pointer params: a depth-1 comma-split chunk containing '*'; the
      // param's name is its last identifier.
      std::vector<std::string> ptr_params;
      size_t chunk_begin = cap_close + 2;
      int depth = 0;
      for (size_t k = cap_close + 2; k <= params_close; ++k) {
        const bool split =
            k == params_close ||
            (depth == 0 && IsPunct(t, k, ","));
        if (t[k].kind == TokKind::kPunct) {
          if (t[k].text == "(" || t[k].text == "<") ++depth;
          if (t[k].text == ")" || t[k].text == ">") --depth;
        }
        if (!split) continue;
        bool has_star = false;
        std::string name;
        for (size_t m = chunk_begin; m < k; ++m) {
          if (IsPunct(t, m, "*")) has_star = true;
          if (t[m].kind == TokKind::kIdent) name = t[m].text;
        }
        if (has_star && !name.empty()) ptr_params.push_back(name);
        chunk_begin = k + 1;
      }
      if (ptr_params.size() < 2) {
        j = cap_close;
        continue;
      }

      // Body: bare `a < b` / `a > b` over two pointer params compares
      // addresses. (`*a < *b` does not match: the rhs token after the
      // comparator is `*`.)
      size_t body_open = params_close + 1;
      while (body_open < close && !IsPunct(t, body_open, "{")) ++body_open;
      if (body_open >= close) continue;
      const size_t body_close = MatchingClose(t, body_open);
      for (size_t k = body_open + 1; k + 2 < body_close; ++k) {
        if (t[k].kind != TokKind::kIdent || t[k + 2].kind != TokKind::kIdent)
          continue;
        if (!IsPunct(t, k + 1, "<") && !IsPunct(t, k + 1, ">") &&
            !IsPunct(t, k + 1, "<=") && !IsPunct(t, k + 1, ">="))
          continue;
        const bool lhs_param =
            std::find(ptr_params.begin(), ptr_params.end(), t[k].text) !=
            ptr_params.end();
        const bool rhs_param =
            std::find(ptr_params.begin(), ptr_params.end(),
                      t[k + 2].text) != ptr_params.end();
        const bool lhs_deref = k > 0 && IsPunct(t, k - 1, "*");
        if (lhs_param && rhs_param && !lhs_deref) {
          Add(out, ctx, "pointer-sort", t[k + 1].line,
              std::string("sort predicate compares pointer values '") +
                  t[k].text + " " + t[k + 1].text + " " + t[k + 2].text +
                  "' — address order differs run to run; compare stable "
                  "ids or dereferenced keys");
        }
      }
      j = cap_close;
    }
  }
}

// --- shared-capture ---------------------------------------------------------

constexpr std::string_view kParallelCalls[] = {"ParallelFor",
                                               "ParallelForChunked",
                                               "ParallelReduce"};

constexpr std::string_view kMutatingMethods[] = {
    "push_back", "emplace_back", "pop_back", "push_front", "pop_front",
    "insert", "emplace", "emplace_hint", "erase", "clear", "resize",
    "reserve", "assign", "append", "push", "pop"};

constexpr std::string_view kAssignOps[] = {"=",  "+=",  "-=", "*=", "/=",
                                           "%=", "&=",  "^=", "|=", "<<=",
                                           ">>="};

// Walks the postfix chain (`a.b[i].c`) backwards from `end` (exclusive).
// Returns the chain's base identifier index, or t.size() when the chain
// does not start with a plain identifier. Sets *subscripted when any part
// of the chain is indexed.
size_t ChainBase(const TokList& t, size_t end, bool* subscripted) {
  size_t i = end;
  while (true) {
    if (i == 0) return t.size();
    const Token& tok = t[i - 1];
    if (tok.kind == TokKind::kPunct && tok.text == "]") {
      // Skip the subscript backwards to its matching '['.
      *subscripted = true;
      int depth = 0;
      size_t j = i - 1;
      while (true) {
        if (t[j].kind == TokKind::kPunct) {
          if (t[j].text == "]") ++depth;
          if (t[j].text == "[" && --depth == 0) break;
        }
        if (j == 0) return t.size();
        --j;
      }
      i = j;
      continue;
    }
    if (tok.kind == TokKind::kIdent) {
      if (i >= 2 && (IsPunct(t, i - 2, ".") || IsPunct(t, i - 2, "->") ||
                     IsPunct(t, i - 2, "::"))) {
        i -= 2;
        continue;
      }
      return i - 1;
    }
    return t.size();
  }
}

// Collects names that look locally declared inside [begin, end): `Type x`,
// `Type& x`, `auto [a, b]`, loop variables. Heuristic, biased towards
// over-collection (an over-collected local silences the rule, it never
// fires it falsely).
void CollectLocals(const TokList& t, size_t begin, size_t end,
                   std::set<std::string>* locals) {
  static const std::set<std::string> kNotTypes = {
      "return", "else",  "do",    "throw", "new",      "delete",
      "case",   "goto",  "break", "continue", "sizeof", "co_return",
      "if",     "while", "for",   "switch"};
  for (size_t i = begin; i < end; ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    // auto [a, b] = ... structured bindings.
    if (t[i].text == "auto") {
      size_t j = i + 1;
      while (j < end && (IsPunct(t, j, "&") || IsPunct(t, j, "&&"))) ++j;
      if (IsPunct(t, j, "[")) {
        const size_t close = MatchingClose(t, j);
        for (size_t k = j + 1; k < close && k < end; ++k) {
          if (t[k].kind == TokKind::kIdent) locals->insert(t[k].text);
        }
        i = std::min(close, end - 1);
        continue;
      }
    }
    if (i == begin) continue;
    const Token& prev = t[i - 1];
    bool declaration = false;
    if (prev.kind == TokKind::kIdent && !kNotTypes.count(prev.text)) {
      // `Type name` where the declarator is followed by an initializer,
      // separator, or range-for colon — not a call (`name(` counts as a
      // constructor-style initializer only when preceded by a type, which
      // this branch cannot distinguish; accept, see bias note above).
      declaration = IsPunct(t, i + 1, "=") || IsPunct(t, i + 1, ";") ||
                    IsPunct(t, i + 1, ",") || IsPunct(t, i + 1, ")") ||
                    IsPunct(t, i + 1, ":") || IsPunct(t, i + 1, "(") ||
                    IsPunct(t, i + 1, "{") || IsPunct(t, i + 1, "[");
    } else if ((prev.kind == TokKind::kPunct &&
                (prev.text == "&" || prev.text == "*" ||
                 prev.text == "&&" || prev.text == ">" ||
                 prev.text == ">>")) &&
               i >= 2 &&
               (t[i - 2].kind == TokKind::kIdent ||
                IsPunct(t, i - 2, ">") || IsPunct(t, i - 2, ">>"))) {
      declaration = IsPunct(t, i + 1, "=") || IsPunct(t, i + 1, ";") ||
                    IsPunct(t, i + 1, ",") || IsPunct(t, i + 1, ")") ||
                    IsPunct(t, i + 1, ":") || IsPunct(t, i + 1, "(") ||
                    IsPunct(t, i + 1, "{");
    }
    if (declaration) locals->insert(t[i].text);
  }
}

struct CaptureInfo {
  bool default_ref = false;
  bool default_copy = false;
  std::set<std::string> by_ref;
  std::set<std::string> by_value;
};

CaptureInfo ParseCaptures(const TokList& t, size_t open, size_t close) {
  CaptureInfo info;
  for (size_t i = open + 1; i < close; ++i) {
    if (IsPunct(t, i, "&")) {
      if (i + 1 < close && t[i + 1].kind == TokKind::kIdent) {
        info.by_ref.insert(t[i + 1].text);
        ++i;
      } else {
        info.default_ref = true;
      }
    } else if (IsPunct(t, i, "=")) {
      // `=` right after `[` or `,` is the default copy capture; inside an
      // init-capture it is an initializer — skip to the next depth-0 comma.
      if (i == open + 1 || IsPunct(t, i - 1, ",")) {
        info.default_copy = true;
      } else {
        int depth = 0;
        while (i < close) {
          if (t[i].kind == TokKind::kPunct) {
            if (t[i].text == "(" || t[i].text == "[" || t[i].text == "{")
              ++depth;
            if (t[i].text == ")" || t[i].text == "]" || t[i].text == "}")
              --depth;
            if (depth == 0 && t[i].text == ",") break;
          }
          ++i;
        }
      }
    } else if (t[i].kind == TokKind::kIdent && t[i].text != "this") {
      info.by_value.insert(t[i].text);
    }
  }
  return info;
}

void AnalyzeLambdaBody(const RuleContext& ctx, const TokList& t,
                       const CaptureInfo& cap, size_t body_open,
                       size_t body_close,
                       const std::set<std::string>& params,
                       std::vector<Violation>* out) {
  std::set<std::string> locals = params;
  locals.insert(cap.by_value.begin(), cap.by_value.end());
  CollectLocals(t, body_open + 1, body_close, &locals);

  auto shared_by_ref = [&](const std::string& name) {
    if (locals.count(name)) return false;
    if (cap.by_ref.count(name)) return true;
    if (cap.default_ref) return true;
    return false;  // default-copy or uncaptured (global/static: out of scope)
  };

  for (size_t i = body_open + 1; i < body_close; ++i) {
    if (t[i].kind != TokKind::kPunct) continue;
    const std::string& op = t[i].text;

    bool is_assign = false;
    for (std::string_view a : kAssignOps) {
      if (op == a) {
        is_assign = true;
        break;
      }
    }
    const bool is_incdec = op == "++" || op == "--";
    if (!is_assign && !is_incdec) continue;

    bool subscripted = false;
    size_t base = t.size();
    if (is_assign || (is_incdec && i > body_open + 1 &&
                      (t[i - 1].kind == TokKind::kIdent ||
                       IsPunct(t, i - 1, "]")))) {
      base = ChainBase(t, i, &subscripted);
    } else if (is_incdec && i + 1 < body_close &&
               t[i + 1].kind == TokKind::kIdent) {
      // Prefix ++x / ++x.y[i]: walk the chain forwards.
      size_t j = i + 1;
      base = j;
      while (j + 1 < body_close) {
        if (IsPunct(t, j + 1, ".") || IsPunct(t, j + 1, "->")) {
          j += 2;
        } else if (IsPunct(t, j + 1, "[")) {
          subscripted = true;
          j = MatchingClose(t, j + 1);
        } else {
          break;
        }
      }
    }
    if (base >= t.size() || t[base].kind != TokKind::kIdent) continue;
    // `=` in a declaration initializer: the declared name is a local, so
    // shared_by_ref() already returns false; nothing extra to do.
    const std::string& name = t[base].text;
    if (subscripted || !shared_by_ref(name)) continue;
    Add(out, ctx, "shared-capture", t[i].line,
        std::string("Parallel* lambda writes shared '") + name +
            "' through a by-reference capture without an index-disjoint "
            "subscript — race + order dependence; restructure onto "
            "per-chunk slots or justify with lint:allow(shared-capture)");
  }

  // Mutating member calls on shared captures: v.push_back(...) etc.
  for (size_t i = body_open + 1; i < body_close; ++i) {
    if (t[i].kind != TokKind::kIdent || !IsPunct(t, i + 1, "(")) continue;
    bool mutator = false;
    for (std::string_view m : kMutatingMethods) {
      if (t[i].text == m) {
        mutator = true;
        break;
      }
    }
    if (!mutator) continue;
    if (i < 1 || !(IsPunct(t, i - 1, ".") || IsPunct(t, i - 1, "->")))
      continue;
    bool subscripted = false;
    const size_t base = ChainBase(t, i + 1, &subscripted);
    if (base >= t.size() || t[base].kind != TokKind::kIdent) continue;
    const std::string& name = t[base].text;
    if (name == t[i].text) continue;  // free call, not a member chain
    if (subscripted || !shared_by_ref(name)) continue;
    Add(out, ctx, "shared-capture", t[i].line,
        std::string("Parallel* lambda calls mutating '") + t[i].text +
            "' on shared '" + name +
            "' captured by reference — race + order dependence; use "
            "per-chunk buffers or justify with lint:allow(shared-capture)");
  }
}

void RuleSharedCapture(const RuleContext& ctx, std::vector<Violation>* out) {
  const TokList& t = ctx.lex.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    bool is_parallel = false;
    for (std::string_view name : kParallelCalls) {
      if (t[i].text == name) {
        is_parallel = true;
        break;
      }
    }
    if (!is_parallel) continue;
    // Explicit template arguments: ParallelReduce<T>(...). Skip to the `(`.
    size_t open = i + 1;
    if (IsPunct(t, open, "<")) {
      int depth = 0;
      for (; open < t.size(); ++open) {
        if (t[open].kind != TokKind::kPunct) continue;
        if (t[open].text == "<") ++depth;
        if (t[open].text == ">") --depth;
        if (t[open].text == ">>") depth -= 2;
        if (depth <= 0) break;
      }
      ++open;
    }
    if (!IsPunct(t, open, "(")) continue;
    // Declarations/definitions have the return type right before the name
    // (`void ParallelFor(`, `T ParallelReduce(`); calls are preceded by
    // `::`, an operator, or a statement boundary.
    if (i > 0 && t[i - 1].kind == TokKind::kIdent) continue;
    const size_t close = MatchingClose(t, open);
    if (close == t.size()) continue;

    for (size_t j = open + 1; j < close; ++j) {
      if (!IsPunct(t, j, "[")) continue;
      // Lambdas appear in argument position.
      if (!(IsPunct(t, j - 1, "(") || IsPunct(t, j - 1, ","))) continue;
      const size_t cap_close = MatchingClose(t, j);
      if (cap_close >= close) break;
      const CaptureInfo cap = ParseCaptures(t, j, cap_close);
      if (!cap.default_ref && cap.by_ref.empty()) {
        j = cap_close;
        continue;  // capture-less or by-value lambda cannot share state
      }
      // Parameter names.
      std::set<std::string> params;
      size_t body_open = cap_close + 1;
      if (IsPunct(t, cap_close + 1, "(")) {
        const size_t params_close = MatchingClose(t, cap_close + 1);
        if (params_close >= close) break;
        std::string last_ident;
        int depth = 0;
        for (size_t k = cap_close + 2; k <= params_close; ++k) {
          if (t[k].kind == TokKind::kPunct) {
            if (t[k].text == "(" || t[k].text == "<") ++depth;
            if (t[k].text == ">" || (t[k].text == ")" && k != params_close))
              --depth;
          }
          if ((k == params_close || (depth == 0 && IsPunct(t, k, ","))) &&
              !last_ident.empty()) {
            params.insert(last_ident);
            last_ident.clear();
          } else if (t[k].kind == TokKind::kIdent) {
            last_ident = t[k].text;
          }
        }
        body_open = params_close + 1;
      }
      while (body_open < close && !IsPunct(t, body_open, "{")) ++body_open;
      if (body_open >= close) break;
      const size_t body_close = MatchingClose(t, body_open);
      AnalyzeLambdaBody(ctx, t, cap, body_open, body_close, params, out);
      j = body_close;
    }
  }
}

// --- schema-version ---------------------------------------------------------

// Structs whose layout reaches disk: the artifact-tier codecs
// (store/artifact_io) and the canonical campaign records
// (store/result_store). Changing one without bumping
// store::kResultSchemaVersion silently repartitions every cache.
constexpr std::string_view kSerializedStructs[] = {
    "Netlist",        "Gate",       "Pin",       "Net",
    "Segment",        "ViaStack",   "ConnRoute", "NetRoute",
    "Layout",         "AtpgLockResult", "InjectedFault", "LiftStats",
    "CampaignRecord", "AttackRecord",   "FlowRecord",    "Scorecard",
    "StageTimes"};

void RuleSchemaVersion(const RuleContext& ctx, std::vector<Violation>* out) {
  if (ctx.expected_schema_version < 0) return;
  // Serialized structs live in the library; fixture paths mirror that.
  if (ctx.path.find("src/") == std::string::npos) return;
  const TokList& t = ctx.lex.tokens;

  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (!(IsIdent(t, i, "struct") || IsIdent(t, i, "class"))) continue;
    if (t[i + 1].kind != TokKind::kIdent) continue;
    const std::string& name = t[i + 1].text;
    bool watched = false;
    for (std::string_view s : kSerializedStructs) {
      if (name == s) {
        watched = true;
        break;
      }
    }
    if (!watched) continue;
    // Definition, not forward declaration / elaborated use: `{` either
    // directly, after `final`, or after a base-clause `:` on this line run.
    size_t j = i + 2;
    if (IsIdent(t, j, "final")) ++j;
    if (IsPunct(t, j, ":")) {
      while (j < t.size() && !IsPunct(t, j, "{") && !IsPunct(t, j, ";")) ++j;
    }
    if (!IsPunct(t, j, "{")) continue;
    const size_t body_close = MatchingClose(t, j);
    const int def_line = t[i].line;
    const int end_line =
        body_close < t.size() ? t[body_close].line : t.back().line;

    // Look for a result-schema annotation from a few lines above the
    // definition through the end of the body.
    int annotated_version = -1;
    bool annotated = false;
    for (const Comment& c : ctx.lex.comments) {
      if (c.end_line < def_line - 4 || c.line > end_line) continue;
      const size_t pos = c.text.find("lint:result-schema(v");
      if (pos == std::string::npos) continue;
      annotated = true;
      int v = 0;
      size_t k = pos + std::string_view("lint:result-schema(v").size();
      while (k < c.text.size() && c.text[k] >= '0' && c.text[k] <= '9') {
        v = v * 10 + (c.text[k] - '0');
        ++k;
      }
      if (k < c.text.size() && c.text[k] == ')') annotated_version = v;
    }
    if (!annotated) {
      Add(out, ctx, "schema-version", def_line,
          std::string("serialized struct '") + name +
              "' lacks a lint:result-schema(v" +
              std::to_string(ctx.expected_schema_version) +
              ") annotation — its layout reaches the result store");
    } else if (annotated_version != ctx.expected_schema_version) {
      Add(out, ctx, "schema-version", def_line,
          std::string("stale schema annotation on '") + name + "': v" +
              std::to_string(annotated_version) +
              " but kResultSchemaVersion is " +
              std::to_string(ctx.expected_schema_version) +
              " — confirm the serialized layout, then update the "
              "annotation");
    }
    i = j;  // resume after the header; nested structs are found normally
  }
}

}  // namespace

// --- obs-metric-once (collection half; aggregation lives in the driver) -----

// The function-local-static registration idiom
// (`static obs::Counter* c = Registry::Instance().RegisterCounter("name")`)
// runs once per *call site*, so two sites sharing a literal name — say the
// same helper pasted into two translation units, or a static hoisted into
// a template — throw std::logic_error the first time the second site runs.
// That is a runtime landmine on whichever code path registers second;
// this collector finds the literals so the driver can cross-check the
// whole tree at lint time instead.
void CollectObsRegistrations(const LexResult& lex,
                             std::vector<ObsRegistration>* out) {
  constexpr std::string_view kRegisterCalls[] = {
      "RegisterCounter", "RegisterGauge", "RegisterHistogram",
      "RegisterTime"};
  const TokList& t = lex.tokens;
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    bool is_register = false;
    for (std::string_view name : kRegisterCalls) {
      if (t[i].text == name) {
        is_register = true;
        break;
      }
    }
    // Call shape with a literal first argument. Computed names (the store
    // tiers build "prefix.metric" strings) are invisible to a lexical
    // pass and stay the caller's responsibility.
    if (!is_register || !IsPunct(t, i + 1, "(") ||
        t[i + 2].kind != TokKind::kString) {
      continue;
    }
    out->push_back({t[i + 2].text, t[i].line});
  }
}

void RunRules(const RuleContext& ctx, const std::vector<std::string>& rules,
              std::vector<Violation>* out) {
  auto enabled = [&](std::string_view rule) {
    if (rules.empty()) return true;
    for (const std::string& r : rules) {
      if (r == rule) return true;
    }
    return false;
  };
  if (enabled("raw-random")) RuleRawRandom(ctx, out);
  if (enabled("wall-clock")) RuleWallClock(ctx, out);
  if (enabled("unordered-iter")) RuleUnorderedIter(ctx, out);
  if (enabled("pointer-sort")) RulePointerSort(ctx, out);
  if (enabled("shared-capture")) RuleSharedCapture(ctx, out);
  if (enabled("schema-version")) RuleSchemaVersion(ctx, out);
}

}  // namespace splitlock::lint::internal
