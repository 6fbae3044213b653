// Rule engine for qcut-lint.
//
// Each rule encodes one determinism or telemetry contract the qcut stack
// depends on (see README "Correctness tooling"). The engine works on the
// lexer's token stream with two structural helpers: a global pass that
// collects every name declared with an unordered container type (headers
// declare, other translation units iterate), and a per-file brace-tracking
// pass that computes which tokens sit inside a telemetry::enabled() guard.

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint.hpp"

namespace qcut_lint {

namespace {

// ---- Path classification ----------------------------------------------------

bool has_component(const std::string& path, const std::string& component) {
  const std::string needle = "/" + component + "/";
  if (path.find(needle) != std::string::npos) return true;
  return path.rfind(component + "/", 0) == 0;
}

bool file_is(const std::string& path, const std::string& stem) {
  const std::size_t slash = path.find_last_of('/');
  const std::string name = slash == std::string::npos ? path : path.substr(slash + 1);
  return name.rfind(stem + ".", 0) == 0;
}

/// src/telemetry and the sanctioned stopwatch wrapper may read clocks freely.
bool clock_exempt(const std::string& path) {
  return has_component(path, "telemetry") || file_is(path, "stopwatch");
}

/// Directories whose iteration order / timing can leak into results or cache
/// keys: the cutting math, the simulator, linear algebra, and the service's
/// dedup + content-addressed cache.
bool result_path(const std::string& path) {
  return has_component(path, "cutting") || has_component(path, "sim") ||
         has_component(path, "linalg") || has_component(path, "service");
}

bool parallel_config(const std::string& path) { return has_component(path, "parallel"); }

// ---- Token helpers ----------------------------------------------------------

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::Identifier && t.text == text;
}

bool is_punct(const Token& t, char c) {
  return t.kind == TokKind::Punct && t.text.size() == 1 && t.text[0] == c;
}

/// True when the token at `i` is qualified as `std::name`.
bool std_qualified(const std::vector<Token>& toks, std::size_t i) {
  return i >= 3 && is_punct(toks[i - 1], ':') && is_punct(toks[i - 2], ':') &&
         is_ident(toks[i - 3], "std");
}

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Index of the matching close paren for the open paren at `open`, or npos.
std::size_t match_paren(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], '(')) ++depth;
    if (is_punct(toks[i], ')')) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return std::string::npos;
}

bool contains_ci(const std::string& haystack, const std::string& needle) {
  auto lower = [](std::string s) {
    for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
  };
  return lower(haystack).find(lower(needle)) != std::string::npos;
}

// ---- Pass 1: unordered-container declared names ------------------------------

const std::set<std::string>& unordered_types() {
  static const std::set<std::string> kTypes = {"unordered_map", "unordered_set",
                                               "unordered_multimap", "unordered_multiset"};
  return kTypes;
}

/// Skips a balanced template argument list starting at `open` (which must be
/// '<'). Angle depth is only counted at parenthesis depth zero so expressions
/// like `array<double, (1 << 4)>` do not desynchronize. Returns the index one
/// past the closing '>'.
std::size_t skip_template_args(const std::vector<Token>& toks, std::size_t open) {
  int angle = 0;
  int paren = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], '(') || is_punct(toks[i], '[')) ++paren;
    if (is_punct(toks[i], ')') || is_punct(toks[i], ']')) --paren;
    if (paren == 0 && is_punct(toks[i], '<')) ++angle;
    if (paren == 0 && is_punct(toks[i], '>')) {
      --angle;
      if (angle == 0) return i + 1;
    }
  }
  return toks.size();
}

/// Collects names declared with an unordered container type, plus `using`
/// aliases of such types (aliases feed a second sweep so `VariantMap m;`
/// also records `m`).
void collect_unordered_names(const std::vector<SourceFile>& files, std::set<std::string>& names,
                             std::set<std::string>& aliases) {
  auto declared_name_after = [](const std::vector<Token>& toks, std::size_t i) -> std::string {
    // Skip cv/ref/pointer decoration between the type and the declared name.
    while (i < toks.size() &&
           (is_punct(toks[i], '&') || is_punct(toks[i], '*') || is_ident(toks[i], "const"))) {
      ++i;
    }
    if (i < toks.size() && toks[i].kind == TokKind::Identifier) return toks[i].text;
    return "";
  };

  for (const SourceFile& file : files) {
    const std::vector<Token>& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokKind::Identifier || !unordered_types().count(toks[i].text)) continue;

      // `using Alias = std::unordered_map<...>;` — record the alias.
      std::size_t back = i;
      while (back >= 2 && (is_punct(toks[back - 1], ':') || is_ident(toks[back - 1], "std"))) {
        --back;
      }
      if (back >= 3 && is_punct(toks[back - 1], '=') &&
          toks[back - 2].kind == TokKind::Identifier && is_ident(toks[back - 3], "using")) {
        aliases.insert(toks[back - 2].text);
      }

      if (i + 1 < toks.size() && is_punct(toks[i + 1], '<')) {
        const std::size_t after = skip_template_args(toks, i + 1);
        const std::string name = declared_name_after(toks, after);
        if (!name.empty()) names.insert(name);
      }
    }
  }

  // Second sweep: declarations through an alias (`VariantMap variants;`).
  for (const SourceFile& file : files) {
    const std::vector<Token>& toks = file.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokKind::Identifier || !aliases.count(toks[i].text)) continue;
      std::size_t j = i + 1;
      if (j < toks.size() && is_punct(toks[j], '<')) j = skip_template_args(toks, j);
      const std::string name = declared_name_after(toks, j);
      if (!name.empty()) names.insert(name);
    }
  }
}

// ---- Telemetry gating scopes -------------------------------------------------

/// True when the condition tokens [begin, end) contain telemetry::enabled.
/// Sets `negated` when the reference is prefixed with '!'.
bool condition_checks_enabled(const std::vector<Token>& toks, std::size_t begin, std::size_t end,
                              bool& negated) {
  for (std::size_t i = begin; i + 3 < end; ++i) {
    if (is_ident(toks[i], "telemetry") && is_punct(toks[i + 1], ':') &&
        is_punct(toks[i + 2], ':') && is_ident(toks[i + 3], "enabled")) {
      negated = i > begin && is_punct(toks[i - 1], '!');
      return true;
    }
  }
  return false;
}

/// Computes, for every token, whether it executes only while telemetry is
/// enabled. Recognized shapes:
///   if (telemetry::enabled()) { gated }          (also unbraced statement)
///   if (!telemetry::enabled()) { ...; return; }  rest-of-scope gated
///   if (!telemetry::enabled()) return;           rest-of-scope gated
///   if (!telemetry::enabled()) { ... } else { gated }
std::vector<char> compute_gated(const std::vector<Token>& toks) {
  std::vector<char> gated(toks.size(), 0);

  struct Scope {
    bool gated = false;
    bool negated_gate = false;  // this block is `if (!enabled()) { ... }`
    bool saw_exit = false;      // return/throw at this block's own depth
  };
  std::vector<Scope> stack(1);

  bool next_block_gated = false;
  bool next_block_negated = false;
  bool else_gates_next_block = false;
  bool gate_rest_after_semicolon = false;
  bool statement_gate = false;  // unbraced `if (enabled())` body

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];

    if (is_punct(t, '{')) {
      Scope scope;
      scope.gated = stack.back().gated || next_block_gated;
      scope.negated_gate = next_block_negated;
      next_block_gated = false;
      next_block_negated = false;
      else_gates_next_block = false;
      stack.push_back(scope);
      gated[i] = scope.gated;
      continue;
    }
    if (is_punct(t, '}')) {
      gated[i] = stack.back().gated;
      const Scope closed = stack.back();
      if (stack.size() > 1) stack.pop_back();
      if (closed.negated_gate) {
        if (closed.saw_exit) stack.back().gated = true;
        else_gates_next_block = true;  // `else` branch of !enabled() is gated
      }
      continue;
    }

    gated[i] = stack.back().gated || statement_gate;

    if (statement_gate && is_punct(t, ';')) statement_gate = false;
    if (gate_rest_after_semicolon && is_punct(t, ';')) {
      gate_rest_after_semicolon = false;
      stack.back().gated = true;
    }

    if (is_ident(t, "else")) {
      if (else_gates_next_block) next_block_gated = true;
      continue;
    }
    if (t.kind == TokKind::Identifier && !is_ident(t, "else")) else_gates_next_block = false;

    if ((is_ident(t, "return") || is_ident(t, "throw")) && stack.back().negated_gate) {
      stack.back().saw_exit = true;
    }

    if (is_ident(t, "if") && i + 1 < toks.size() && is_punct(toks[i + 1], '(')) {
      const std::size_t close = match_paren(toks, i + 1);
      if (close == std::string::npos) continue;
      bool negated = false;
      if (!condition_checks_enabled(toks, i + 2, close, negated)) continue;
      const bool braced = close + 1 < toks.size() && is_punct(toks[close + 1], '{');
      if (!negated) {
        if (braced) {
          next_block_gated = true;
        } else {
          statement_gate = true;  // gate until the statement's ';'
        }
      } else {
        if (braced) {
          next_block_negated = true;
        } else if (close + 1 < toks.size() && (is_ident(toks[close + 1], "return") ||
                                               is_ident(toks[close + 1], "throw"))) {
          gate_rest_after_semicolon = true;
        }
      }
    }
  }
  return gated;
}

// ---- Annotation handling -----------------------------------------------------

struct PendingViolation {
  Violation v;
};

void emit(std::vector<PendingViolation>& out, const SourceFile& file, int line,
          const std::string& rule, const std::string& message) {
  out.push_back({Violation{file.path, line, rule, message}});
}

}  // namespace

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kRules = {
      "no-unordered-iteration", "no-ambient-entropy",  "no-wallclock-on-result-paths",
      "no-fp-reassociation",    "thread-count-hygiene", "telemetry-gating",
      "no-std-distributions",   "no-const-cast",        "annotation-syntax",
      "annotation-justification"};
  return kRules;
}

std::vector<Violation> analyze(const std::vector<SourceFile>& files,
                               const AnalyzeOptions& options) {
  std::set<std::string> unordered_names;
  std::set<std::string> unordered_aliases;
  collect_unordered_names(files, unordered_names, unordered_aliases);

  std::vector<Violation> result;

  for (const SourceFile& file : files) {
    const std::vector<Token>& toks = file.tokens;
    const std::vector<char> gated = compute_gated(toks);
    std::vector<PendingViolation> pending;

    const bool on_result_path = result_path(file.path);

    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];

      // ---- no-unordered-iteration (result paths only) -----------------------
      if (on_result_path && is_ident(t, "for") && i + 1 < toks.size() &&
          is_punct(toks[i + 1], '(')) {
        const std::size_t close = match_paren(toks, i + 1);
        if (close != std::string::npos) {
          // Find the range-for ':' at top nesting depth (not part of '::').
          int depth = 0;
          std::size_t colon = std::string::npos;
          for (std::size_t j = i + 2; j < close; ++j) {
            if (is_punct(toks[j], '(') || is_punct(toks[j], '[') || is_punct(toks[j], '{') ||
                is_punct(toks[j], '<')) {
              ++depth;
            }
            if (is_punct(toks[j], ')') || is_punct(toks[j], ']') || is_punct(toks[j], '}') ||
                is_punct(toks[j], '>')) {
              --depth;
            }
            if (depth == 0 && is_punct(toks[j], ':') && !is_punct(toks[j - 1], ':') &&
                (j + 1 >= close || !is_punct(toks[j + 1], ':'))) {
              colon = j;
              break;
            }
          }
          // The range expression must END in the container name: a member
          // chain (`data.fragments[0].variants`) is a raw traversal, while a
          // wrapping call (`sorted_keys(replica.upstream)`) imposes its own
          // deterministic order and is the sanctioned fix.
          if (colon != std::string::npos && close >= 1) {
            const Token& last = toks[close - 1];
            if (last.kind == TokKind::Identifier && unordered_names.count(last.text)) {
              emit(pending, file, t.line, "no-unordered-iteration",
                   "range-for over unordered container '" + last.text +
                       "': iteration order is implementation-defined and can leak into "
                       "results or cache keys; iterate a sorted view (e.g. "
                       "qcut::sorted_keys) or annotate why the order cannot matter");
            }
          }
        }
      }
      if (on_result_path && (is_ident(t, "begin") || is_ident(t, "cbegin")) &&
          i + 1 < toks.size() && is_punct(toks[i + 1], '(') && i >= 2) {
        const bool member_dot = is_punct(toks[i - 1], '.');
        const bool member_arrow =
            i >= 3 && is_punct(toks[i - 1], '>') && is_punct(toks[i - 2], '-');
        const std::size_t obj = member_dot ? i - 2 : (member_arrow ? i - 3 : toks.size());
        if (obj < toks.size() && toks[obj].kind == TokKind::Identifier &&
            unordered_names.count(toks[obj].text)) {
          emit(pending, file, t.line, "no-unordered-iteration",
               "iterator over unordered container '" + toks[obj].text +
                   "': traversal order is implementation-defined; iterate a sorted view "
                   "or annotate why the order cannot matter");
        }
      }

      // ---- no-ambient-entropy ----------------------------------------------
      if (is_ident(t, "random_device") || is_ident(t, "srand") || is_ident(t, "drand48") ||
          is_ident(t, "getenv") || is_ident(t, "setenv")) {
        emit(pending, file, t.line, "no-ambient-entropy",
             "'" + t.text +
                 "' injects ambient process state; all randomness must flow from the "
                 "request's seed through qcut::Rng streams");
      }
      if ((is_ident(t, "rand") || is_ident(t, "time") || is_ident(t, "clock")) &&
          i + 1 < toks.size() && is_punct(toks[i + 1], '(')) {
        const bool member_call =
            i >= 1 && (is_punct(toks[i - 1], '.') ||
                       (i >= 2 && is_punct(toks[i - 1], '>') && is_punct(toks[i - 2], '-')));
        // `double time(...)` is a declaration of an unrelated member, not a
        // call of ::time — a preceding identifier (other than `return`) marks
        // it as a declaration or a qualified non-call context.
        const bool declaration = i >= 1 && toks[i - 1].kind == TokKind::Identifier &&
                                 !is_ident(toks[i - 1], "return");
        if (!member_call && !declaration) {
          emit(pending, file, t.line, "no-ambient-entropy",
               "'" + t.text +
                   "()' reads ambient process state; results must be a pure function of "
                   "the request (seeded Rng for randomness, Stopwatch for timing stats)");
        }
      }

      // ---- no-std-distributions --------------------------------------------
      if (t.kind == TokKind::Identifier && std_qualified(toks, i) &&
          (ends_with(t.text, "_distribution") || t.text == "shuffle" ||
           t.text == "random_shuffle")) {
        emit(pending, file, t.line, "no-std-distributions",
             "'std::" + t.text +
                 "' is implementation-defined: its algorithm, and with it every draw, "
                 "differs between standard libraries; draw through qcut::Rng (uniform, "
                 "normal, binomial, DiscreteSampler) so results stay a pure function of "
                 "the seed");
      }

      // ---- no-const-cast ---------------------------------------------------
      if (is_ident(t, "const_cast")) {
        emit(pending, file, t.line, "no-const-cast",
             "'const_cast' opens a write path to const data; variant distributions "
             "are shared read-only by the fragment cache, every response served from "
             "it and the bootstrap's replicas, so a write through a cast changes other "
             "jobs' results and a cache hit stops equalling re-execution; replace the "
             "value (e.g. a new SharedDistribution) instead of editing it");
      }

      // ---- no-wallclock-on-result-paths / telemetry-gating ------------------
      if ((is_ident(t, "steady_clock") || is_ident(t, "system_clock") ||
           is_ident(t, "high_resolution_clock") || is_ident(t, "clock_gettime") ||
           is_ident(t, "gettimeofday")) &&
          !clock_exempt(file.path) && !gated[i]) {
        if (on_result_path) {
          emit(pending, file, t.line, "no-wallclock-on-result-paths",
               "ungated clock read ('" + t.text +
                   "') on a result path; wrap it in `if (telemetry::enabled())` (or use "
                   "TELEMETRY_SPAN / common/stopwatch) so timing never perturbs the "
                   "deterministic pipeline");
        } else {
          emit(pending, file, t.line, "telemetry-gating",
               "clock-reading telemetry ('" + t.text +
                   "') must sit behind `if (telemetry::enabled())` or TELEMETRY_SPAN — "
                   "the PR 6 cost model keeps the telemetry-off hot path free of clock "
                   "syscalls");
        }
      }

      // ---- no-fp-reassociation ---------------------------------------------
      if (is_ident(t, "reduce") && i >= 3 && is_punct(toks[i - 1], ':') &&
          is_punct(toks[i - 2], ':') && is_ident(toks[i - 3], "std")) {
        emit(pending, file, t.line, "no-fp-reassociation",
             "std::reduce reassociates floating-point sums (result depends on the "
             "partition); use a sequential accumulation or the pool-invariant chunking "
             "helpers");
      }
      if (is_ident(t, "transform_reduce") || is_ident(t, "par_unseq")) {
        emit(pending, file, t.line, "no-fp-reassociation",
             "'" + t.text +
                 "' permits reassociated/vectorized reductions whose rounding depends on "
                 "the execution schedule; use pool-invariant chunking instead");
      }
      if (t.kind == TokKind::String && (contains_ci(t.text, "fast-math") ||
                                        contains_ci(t.text, "fast_math") ||
                                        contains_ci(t.text, "Ofast"))) {
        emit(pending, file, t.line, "no-fp-reassociation",
             "fast-math attribute string: fast-math licenses reassociation and changes "
             "roundings; FP behavior must be flag-gated through Backend::identity(), "
             "never a per-function attribute");
      }
      if (t.kind == TokKind::String && contains_ci(t.text, "ffp-contract") &&
          !contains_ci(t.text, "off")) {
        emit(pending, file, t.line, "no-fp-reassociation",
             "'-ffp-contract' other than 'off' licenses FMA contraction per function; "
             "contraction is identity-bearing and belongs on the SIMD source files "
             "(QCUT_SIMD), not in attributes");
      }
      // FMA intrinsics contract a*b+c into one rounding — exactly the
      // deviation the SIMD path declares through Backend::identity(). Any
      // use outside that path (or without an allow annotation naming it)
      // silently changes results.
      if (t.kind == TokKind::Identifier &&
          (contains_ci(t.text, "fmadd") || contains_ci(t.text, "fmsub") ||
           t.text == "fma" || t.text == "fmaf" || t.text == "fmal")) {
        emit(pending, file, t.line, "no-fp-reassociation",
             "FMA ('" + t.text +
                 "') fuses multiply-add into one rounding; keep it on the "
                 "identity-bearing SIMD path and annotate the call site");
      }
      if (t.kind == TokKind::Preprocessor) {
        const bool fp_contract_on =
            contains_ci(t.text, "FP_CONTRACT") && !contains_ci(t.text, "OFF");
        const bool fast_math =
            contains_ci(t.text, "fast_math") || contains_ci(t.text, "fast-math");
        const bool float_control = contains_ci(t.text, "float_control");
        const bool omp_reduction = contains_ci(t.text, "omp") && contains_ci(t.text, "reduction");
        // `#pragma omp simd` vectorizes the loop it annotates, reassociating
        // any reduction it carries; vectorization must go through the SoA
        // kernel tiers instead.
        const bool omp_simd = contains_ci(t.text, "omp") && contains_ci(t.text, "simd");
        const bool ffp_contract =
            contains_ci(t.text, "ffp-contract") && !contains_ci(t.text, "off");
        if (fp_contract_on || fast_math || float_control || omp_reduction || omp_simd ||
            ffp_contract) {
          emit(pending, file, t.line, "no-fp-reassociation",
               "pragma relaxes floating-point evaluation (contraction/reassociation "
               "changes roundings); bit-for-bit contracts require the default strict "
               "semantics, with any relaxation flag-gated into Backend::identity()");
        }
      }

      // ---- thread-count-hygiene --------------------------------------------
      if (is_ident(t, "hardware_concurrency") && !parallel_config(file.path)) {
        emit(pending, file, t.line, "thread-count-hygiene",
             "hardware_concurrency() outside src/parallel: sizing work by machine "
             "thread count breaks thread-count-invariant chunking; take a pool and use "
             "its size()");
      }
    }

    // ---- Annotations: syntax checks, then suppression ------------------------
    for (const Allow& allow : file.allows) {
      if (allow.malformed) {
        emit(pending, file, allow.line, "annotation-syntax",
             "unparseable qcut-lint annotation; expected `qcut-lint: allow(rule) -- "
             "justification`");
      } else if (allow.justification.empty()) {
        emit(pending, file, allow.line, "annotation-justification",
             "allow(...) annotation without a justification; write `-- why this "
             "exception is safe` (an unjustified allow suppresses nothing)");
      }
    }

    // An annotation covers the first line of actual code at or after it:
    // trailing same-line comments cover their own line, and a standalone
    // comment (possibly wrapped over several comment lines, which produce no
    // tokens) covers the statement that follows it.
    auto annotation_target = [&](int allow_line) {
      int target = allow_line;
      for (const Token& tok : toks) {
        if (tok.line >= allow_line) {
          target = tok.line;
          break;
        }
      }
      return target;
    };

    for (const PendingViolation& p : pending) {
      if (options.disabled_rules.count(p.v.rule)) continue;
      bool suppressed = false;
      for (const Allow& allow : file.allows) {
        if (allow.malformed || allow.justification.empty()) continue;
        if (!allow.rules.count(p.v.rule)) continue;
        if (allow.line == p.v.line || annotation_target(allow.line) == p.v.line) {
          suppressed = true;
          break;
        }
      }
      if (!suppressed) result.push_back(p.v);
    }
  }

  std::sort(result.begin(), result.end(), [](const Violation& a, const Violation& b) {
    if (a.path != b.path) return a.path < b.path;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return result;
}

std::vector<std::string> self_test(const std::vector<SourceFile>& files,
                                   const std::vector<Violation>& violations) {
  std::vector<std::string> failures;

  // Expected (path, line, rule) triples from FIRE(rule) markers.
  std::multiset<std::string> expected;
  for (const SourceFile& file : files) {
    for (std::size_t ln = 0; ln < file.raw_lines.size(); ++ln) {
      const std::string& raw = file.raw_lines[ln];
      std::size_t pos = 0;
      while ((pos = raw.find("FIRE(", pos)) != std::string::npos) {
        const std::size_t close = raw.find(')', pos);
        if (close == std::string::npos) break;
        const std::string rule = raw.substr(pos + 5, close - pos - 5);
        expected.insert(file.path + ":" + std::to_string(ln + 1) + ":" + rule);
        pos = close;
      }
    }
  }

  std::multiset<std::string> actual;
  for (const Violation& v : violations) {
    actual.insert(v.path + ":" + std::to_string(v.line) + ":" + v.rule);
  }

  for (const std::string& key : expected) {
    if (actual.count(key) < expected.count(key)) {
      failures.push_back("expected violation did not fire: " + key);
    }
  }
  for (const std::string& key : actual) {
    if (expected.count(key) < actual.count(key)) {
      failures.push_back("unexpected violation: " + key);
    }
  }

  // De-duplicate repeated messages from multiset counting.
  std::sort(failures.begin(), failures.end());
  failures.erase(std::unique(failures.begin(), failures.end()), failures.end());
  return failures;
}

}  // namespace qcut_lint
