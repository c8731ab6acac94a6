#include "lint.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "index.h"
#include "semantic.h"
#include "text.h"

namespace gw::lint {
namespace {

// --- banned API table -----------------------------------------------------

// Identifiers that are banned wherever they appear as a whole token.
struct BannedToken {
  const char* token;
  const char* why;
};
constexpr BannedToken kBannedTokens[] = {
    {"random_device", "ambient entropy; seed util::Rng explicitly"},
    {"steady_clock", "wall clock; simulated time comes from sim::SimTime"},
    {"system_clock", "wall clock; simulated time comes from sim::SimTime"},
    {"high_resolution_clock",
     "wall clock; simulated time comes from sim::SimTime"},
    {"getenv", "environment probe; thread plumbing belongs in bench_util.h"},
    {"gettimeofday", "wall clock; simulated time comes from sim::SimTime"},
    {"clock_gettime", "wall clock; simulated time comes from sim::SimTime"},
    {"localtime", "host timezone; format from sim::SimTime instead"},
    {"gmtime", "wall-clock calendar; format from sim::SimTime instead"},
    {"mktime", "host timezone; arithmetic belongs on sim::SimTime"},
    {"srand", "global RNG; seed util::Rng explicitly"},
};

// --- suppression comments -------------------------------------------------

struct Allow {
  std::set<std::string> rules;
  bool has_reason = false;
  bool parse_ok = true;  // false: malformed allow(...) syntax
};

// Parses a suppression comment — the marker word "allow" with a
// parenthesised rule list and a trailing reason — out of one source line.
// Returns true when the marker is present at all.
bool parse_allow(const std::string& line, Allow* out) {
  const auto marker = line.find("gwlint: allow");
  if (marker == std::string::npos) return false;
  const auto open = line.find('(', marker);
  const auto close = line.find(')', marker);
  if (open == std::string::npos || close == std::string::npos ||
      close < open) {
    out->parse_ok = false;
    return true;
  }
  std::string inside = line.substr(open + 1, close - open - 1);
  std::string rule;
  std::istringstream stream(inside);
  while (std::getline(stream, rule, ',')) {
    const auto first = rule.find_first_not_of(" \t");
    const auto last = rule.find_last_not_of(" \t");
    if (first == std::string::npos) continue;
    out->rules.insert(rule.substr(first, last - first + 1));
  }
  if (out->rules.empty()) out->parse_ok = false;
  // Everything after the closing paren (minus separators) is the
  // justification; it is mandatory.
  std::string reason = line.substr(close + 1);
  while (!reason.empty() && (reason.front() == ':' || reason.front() == ' ' ||
                             reason.front() == '-' || reason.front() == '\t')) {
    reason.erase(reason.begin());
  }
  out->has_reason = !reason.empty();
  return true;
}

// --- per-file scan state --------------------------------------------------

struct FileScan {
  const std::string& path;
  const std::string& content;   // original
  const std::string& stripped;  // comments/strings blanked
  const std::vector<std::size_t>& starts;
  std::vector<std::string> lines;  // original, split
  // Strings blanked, comments kept: suppression comments are read from
  // here, so a quoted example of the allow syntax is not a suppression.
  std::vector<std::string> allow_lines;
  std::map<int, Allow> allows;  // marker line -> suppression (for GW005)
  // Lines covered by a *valid* suppression, per rule. A marker on a
  // comment-only line attaches to the next code line (so a multi-line
  // justification block covers the statement it precedes); a trailing
  // marker covers its own line and the next (multi-line statements).
  std::map<int, std::set<std::string>> effective;
  std::vector<Diagnostic> diagnostics;  // pre-suppression
};

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  lines.push_back(current);
  return lines;
}

void add(FileScan& scan, int line, const char* id, const char* rule,
         std::string message) {
  scan.diagnostics.push_back(
      Diagnostic{scan.path, line, id, rule, std::move(message)});
}

bool starts_with(const std::string& text, const char* prefix) {
  return text.rfind(prefix, 0) == 0;
}

// --- GW001: banned APIs ---------------------------------------------------

// True when the token ending just before `pos` (exclusive) equals `name`,
// i.e. the stripped text reads `...name` with a boundary before it.
bool preceded_by_ident(const std::string& text, std::size_t pos,
                       std::string* out) {
  std::size_t end = pos;
  std::size_t begin = end;
  while (begin > 0 && is_ident_char(text[begin - 1])) --begin;
  if (begin == end) return false;
  *out = text.substr(begin, end - begin);
  return true;
}

// Classifies the characters just before a call-like token at `pos`:
// member access (`.` / `->`) is skipped, `std::` / bare `::` qualification
// is banned, any other `ns::` qualification is someone else's symbol.
enum class Prefix { kBoundary, kMember, kStdQualified, kOtherQualified };

Prefix prefix_kind(const std::string& text, std::size_t pos) {
  std::size_t i = pos;
  while (i > 0 && (text[i - 1] == ' ' || text[i - 1] == '\t')) --i;
  if (i > 0 && text[i - 1] == '.') return Prefix::kMember;
  if (i > 1 && text[i - 2] == '-' && text[i - 1] == '>') return Prefix::kMember;
  if (i > 1 && text[i - 2] == ':' && text[i - 1] == ':') {
    std::string qualifier;
    if (!preceded_by_ident(text, i - 2, &qualifier)) {
      return Prefix::kStdQualified;  // global `::time(...)`
    }
    return qualifier == "std" ? Prefix::kStdQualified
                              : Prefix::kOtherQualified;
  }
  return Prefix::kBoundary;
}

// All whole-token occurrences of `token` in `text`.
std::vector<std::size_t> token_occurrences(const std::string& text,
                                           const std::string& token) {
  std::vector<std::size_t> hits;
  std::size_t pos = 0;
  while ((pos = text.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
    const std::size_t after = pos + token.size();
    const bool right_ok = after >= text.size() || !is_ident_char(text[after]);
    if (left_ok && right_ok) hits.push_back(pos);
    pos = after;
  }
  return hits;
}

void check_banned_apis(FileScan& scan) {
  const std::string& text = scan.stripped;
  for (const auto& banned : kBannedTokens) {
    for (std::size_t pos : token_occurrences(text, banned.token)) {
      if (prefix_kind(text, pos) == Prefix::kMember) continue;
      add(scan, line_of(scan.starts, pos), "GW001", "banned-api",
          std::string(banned.token) + " is banned: " + banned.why);
    }
  }
  // `rand(` — any qualification except member access is the C library rand.
  for (std::size_t pos : token_occurrences(text, "rand")) {
    std::size_t after = pos + 4;
    while (after < text.size() && text[after] == ' ') ++after;
    if (after >= text.size() || text[after] != '(') continue;
    if (prefix_kind(text, pos) == Prefix::kMember) continue;
    if (prefix_kind(text, pos) == Prefix::kOtherQualified) continue;
    add(scan, line_of(scan.starts, pos), "GW001", "banned-api",
        "rand() is banned: global RNG; draw from a named util::Rng fork");
  }
  // `time(` — flagged when qualified `std::` / `::`, or when the argument
  // shape is unmistakably the C call (NULL / nullptr / 0 / &tm). A bare
  // method named `time()` does not match either pattern.
  for (std::size_t pos : token_occurrences(text, "time")) {
    std::size_t after = pos + 4;
    while (after < text.size() && text[after] == ' ') ++after;
    if (after >= text.size() || text[after] != '(') continue;
    const Prefix prefix = prefix_kind(text, pos);
    if (prefix == Prefix::kMember || prefix == Prefix::kOtherQualified) {
      continue;
    }
    bool flagged = prefix == Prefix::kStdQualified;
    if (!flagged) {
      std::size_t arg = after + 1;
      while (arg < text.size() && (text[arg] == ' ' || text[arg] == '\t')) {
        ++arg;
      }
      const std::string rest = text.substr(arg, 8);
      flagged = starts_with(rest, "NULL") || starts_with(rest, "nullptr") ||
                starts_with(rest, "0)") || starts_with(rest, "&");
    }
    if (flagged) {
      add(scan, line_of(scan.starts, pos), "GW001", "banned-api",
          "time() is banned: wall clock; simulated time comes from "
          "sim::SimTime");
    }
  }
}

// --- GW002: unordered-container iteration ---------------------------------

// Skips a balanced <...> starting at `pos` (which must point at '<').
// Returns the index just past the matching '>', or npos.
std::size_t skip_template_args(const std::string& text, std::size_t pos) {
  int depth = 0;
  for (std::size_t i = pos; i < text.size(); ++i) {
    if (text[i] == '<') ++depth;
    if (text[i] == '>') {
      --depth;
      if (depth == 0) return i + 1;
    }
    if (text[i] == ';') return std::string::npos;  // not a template arg list
  }
  return std::string::npos;
}

std::string next_identifier(const std::string& text, std::size_t pos,
                            std::size_t* end_out) {
  std::size_t i = pos;
  while (i < text.size() &&
         (text[i] == ' ' || text[i] == '\t' || text[i] == '\n' ||
          text[i] == '&' || text[i] == '*')) {
    ++i;
  }
  std::size_t begin = i;
  while (i < text.size() && is_ident_char(text[i])) ++i;
  if (end_out != nullptr) *end_out = i;
  return text.substr(begin, i - begin);
}

// Collects names bound to unordered containers: direct declarations
// (`std::unordered_map<K, V> name`) and aliases
// (`using Name = ... unordered_map ...`), then declarations via aliases.
std::set<std::string> unordered_names(const std::string& text) {
  std::set<std::string> type_tokens{"unordered_map", "unordered_set",
                                    "unordered_multimap",
                                    "unordered_multiset"};
  // Aliases first, so later declarations through them are tracked too.
  for (std::size_t pos : token_occurrences(text, "using")) {
    const std::size_t line_end = text.find('\n', pos);
    const std::string line =
        text.substr(pos, line_end == std::string::npos ? std::string::npos
                                                       : line_end - pos);
    if (line.find('=') != std::string::npos &&
        line.find("unordered_") != std::string::npos) {
      const std::string name = next_identifier(line, 5, nullptr);
      if (!name.empty()) type_tokens.insert(name);
    }
  }
  std::set<std::string> names;
  for (const auto& type_token : type_tokens) {
    for (std::size_t hit : token_occurrences(text, type_token)) {
      std::size_t i = hit + type_token.size();
      if (i < text.size() && text[i] == '<') {
        i = skip_template_args(text, i);
        if (i == std::string::npos) continue;
      }
      std::size_t end = 0;
      const std::string name = next_identifier(text, i, &end);
      if (!name.empty() && name != "const") names.insert(name);
    }
  }
  return names;
}

bool expression_mentions(const std::string& expr,
                         const std::set<std::string>& names) {
  if (expr.find("unordered_") != std::string::npos) return true;
  for (const auto& name : names) {
    if (!token_occurrences(expr, name).empty()) return true;
  }
  return false;
}

void check_unordered_iteration(FileScan& scan) {
  const bool applies =
      starts_with(scan.path, "src/") || starts_with(scan.path, "bench/");
  if (!applies) return;
  const std::string& text = scan.stripped;
  const auto names = unordered_names(text);

  // Range-for: `for (decl : range)` where the range expression names an
  // unordered container.
  for (std::size_t pos : token_occurrences(text, "for")) {
    std::size_t open = pos + 3;
    while (open < text.size() && (text[open] == ' ' || text[open] == '\n')) {
      ++open;
    }
    if (open >= text.size() || text[open] != '(') continue;
    int depth = 0;
    std::size_t colon = std::string::npos;
    std::size_t close = std::string::npos;
    for (std::size_t i = open; i < text.size(); ++i) {
      const char c = text[i];
      if (c == '(' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '}') {
        --depth;
        if (depth == 0) {
          close = i;
          break;
        }
      }
      if (c == ':' && depth == 1 && colon == std::string::npos) {
        const bool double_colon = (i + 1 < text.size() && text[i + 1] == ':') ||
                                  (i > 0 && text[i - 1] == ':');
        if (!double_colon) colon = i;
      }
    }
    if (colon == std::string::npos || close == std::string::npos) continue;
    const std::string range = text.substr(colon + 1, close - colon - 1);
    if (expression_mentions(range, names)) {
      add(scan, line_of(scan.starts, pos), "GW002", "unordered-iteration",
          "range-for over an unordered container: iteration order is "
          "unspecified and can leak into exports; iterate a sorted copy or "
          "use an ordered container");
    }
  }
  // Iterator harvesting: name.begin() / name.cbegin() on a tracked name.
  for (const auto& name : names) {
    for (const char* method : {".begin", ".cbegin"}) {
      std::size_t pos = 0;
      const std::string pattern = name + method;
      while ((pos = text.find(pattern, pos)) != std::string::npos) {
        const bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
        if (left_ok) {
          add(scan, line_of(scan.starts, pos), "GW002", "unordered-iteration",
              "iterator over an unordered container (" + name + method +
                  "()): iteration order is unspecified; iterate a sorted "
                  "copy or use an ordered container");
        }
        pos += pattern.size();
      }
    }
  }
}

// --- GW003: layering ------------------------------------------------------

void check_layering(FileScan& scan, const Config& config) {
  if (!starts_with(scan.path, "src/")) return;
  const auto first_slash = scan.path.find('/');
  const auto second_slash = scan.path.find('/', first_slash + 1);
  if (second_slash == std::string::npos) return;  // file directly under src/
  const std::string layer =
      scan.path.substr(first_slash + 1, second_slash - first_slash - 1);
  const auto deps = config.layer_closure.find(layer);
  if (deps == config.layer_closure.end()) {
    add(scan, 1, "GW003", "layering",
        "layer '" + layer +
            "' is not declared in tools/gwlint/layers.toml; add it to the "
            "DAG before adding code");
    return;
  }
  for (std::size_t i = 0; i < scan.lines.size(); ++i) {
    const std::string& line = scan.lines[i];
    std::size_t pos = line.find_first_not_of(" \t");
    if (pos == std::string::npos || line[pos] != '#') continue;
    const auto include = line.find("include", pos);
    if (include == std::string::npos) continue;
    const auto quote = line.find('"', include);
    if (quote == std::string::npos) continue;
    const auto end_quote = line.find('"', quote + 1);
    if (end_quote == std::string::npos) continue;
    const std::string target = line.substr(quote + 1, end_quote - quote - 1);
    const auto slash = target.find('/');
    if (slash == std::string::npos) continue;  // same-directory include
    const std::string target_layer = target.substr(0, slash);
    if (target_layer == layer) continue;
    if (config.layer_closure.count(target_layer) == 0) {
      add(scan, int(i + 1), "GW003", "layering",
          "include of undeclared layer '" + target_layer + "' (\"" + target +
              "\"); declare it in tools/gwlint/layers.toml");
      continue;
    }
    if (deps->second.count(target_layer) == 0) {
      add(scan, int(i + 1), "GW003", "layering",
          "upward include: layer '" + layer + "' may not include '" +
              target_layer + "' (\"" + target +
              "\"); the DAG in tools/gwlint/layers.toml only allows " +
              "downward edges");
    }
  }
}

// --- GW004: pragma once ---------------------------------------------------

void check_pragma_once(FileScan& scan) {
  if (scan.path.size() < 2 ||
      scan.path.compare(scan.path.size() - 2, 2, ".h") != 0) {
    return;
  }
  // Scan the comment/string-stripped view: `#pragma once` quoted in a doc
  // comment must not satisfy (or trip) the rule.
  const auto stripped_lines = split_lines(scan.stripped);
  bool has_pragma = false;
  int guard_line = 0;
  for (std::size_t i = 0; i < stripped_lines.size(); ++i) {
    const std::string& line = stripped_lines[i];
    if (line.find("#pragma once") != std::string::npos) has_pragma = true;
    if (guard_line == 0 && line.find("#ifndef") != std::string::npos &&
        i + 1 < stripped_lines.size() &&
        stripped_lines[i + 1].find("#define") != std::string::npos) {
      guard_line = int(i + 1);
    }
  }
  if (!has_pragma) {
    add(scan, 1, "GW004", "pragma-once",
        "header lacks #pragma once (the repo's include-guard convention)");
  } else if (guard_line != 0) {
    add(scan, guard_line, "GW004", "pragma-once",
        "mixed guard style: header has both #pragma once and an "
        "#ifndef/#define guard; keep #pragma once only");
  }
}

// --- suppression application ----------------------------------------------

// Allow markers and config sections may name a rule either way
// (`persist-coverage` or `GW006`); everything downstream works on the
// canonical rule *name*. Returns "" for unknown tokens.
std::string canonical_rule_name(const std::string& token) {
  for (const auto& rule : rule_catalog()) {
    if (token == rule.name || token == rule.id) return rule.name;
  }
  return "";
}

bool known_rule(const std::string& name) {
  return !canonical_rule_name(name).empty();
}

bool comment_or_blank(const std::string& line) {
  const auto first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos) return true;
  return line.compare(first, 2, "//") == 0;
}

void collect_allows(FileScan& scan) {
  for (std::size_t i = 0; i < scan.allow_lines.size(); ++i) {
    Allow allow;
    if (!parse_allow(scan.allow_lines[i], &allow)) continue;
    scan.allows[int(i + 1)] = allow;
    if (!allow.parse_ok || !allow.has_reason) continue;
    // Comment-only marker: attach to the next code line, skipping the rest
    // of the justification block. Trailing marker: attach where it stands.
    std::size_t target = i;
    if (comment_or_blank(scan.lines[i])) {
      std::size_t j = i + 1;
      while (j < scan.lines.size() && comment_or_blank(scan.lines[j])) ++j;
      if (j >= scan.lines.size()) continue;
      target = j;
    }
    for (const auto& rule : allow.rules) {
      const std::string canonical = canonical_rule_name(rule);
      // Unknown tokens suppress nothing (GW005 reports them).
      if (!canonical.empty()) {
        scan.effective[int(target + 1)].insert(canonical);
      }
    }
  }
}

// Emits GW005 for malformed allows, drops diagnostics covered by a valid
// allow on the same or preceding line.
std::vector<Diagnostic> apply_allows(FileScan& scan) {
  for (const auto& [line, allow] : scan.allows) {
    if (!allow.parse_ok) {
      add(scan, line, "GW005", "bad-allow",
          "malformed suppression: expected "
          "`// gwlint: allow(<rule>): <justification>`");
      continue;
    }
    for (const auto& rule : allow.rules) {
      if (!known_rule(rule)) {
        add(scan, line, "GW005", "bad-allow",
            "suppression names unknown rule '" + rule + "'");
      }
    }
    if (!allow.has_reason) {
      add(scan, line, "GW005", "bad-allow",
          "suppression without justification: every gwlint allow must say "
          "why, e.g. `// gwlint: allow(banned-api): wall time is exported "
          "as host_dependent metadata`");
    }
  }
  std::vector<Diagnostic> kept;
  for (auto& diagnostic : scan.diagnostics) {
    if (diagnostic.rule != "bad-allow") {
      bool suppressed = false;
      for (int line : {diagnostic.line, diagnostic.line - 1}) {
        const auto it = scan.effective.find(line);
        if (it != scan.effective.end() &&
            it->second.count(diagnostic.rule) != 0) {
          suppressed = true;
          break;
        }
      }
      if (suppressed) continue;
    }
    kept.push_back(std::move(diagnostic));
  }
  return kept;
}

}  // namespace

// --- public API -----------------------------------------------------------

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> catalog = {
      {"GW001", "banned-api",
       "wall clocks, ambient entropy and environment probes are banned "
       "outside the configured allowlist"},
      {"GW002", "unordered-iteration",
       "no range-for / iterator loops over std::unordered_{map,set} in "
       "src/ or bench/ (unspecified order can reach exports)"},
      {"GW003", "layering",
       "#include edges must point down the layer DAG declared in "
       "tools/gwlint/layers.toml"},
      {"GW004", "pragma-once",
       "headers carry #pragma once, and only #pragma once"},
      {"GW005", "bad-allow",
       "gwlint suppressions must name a known rule and carry a "
       "justification"},
      {"GW006", "persist-coverage",
       "every non-static data member of a type defining persist() must be "
       "named in the persist body (refs/pointers/const/mutable exempt; "
       "transient members need an allow marker)"},
      {"GW007", "obs-registry",
       "metric/journal names must be snake.case.dotted, one instrument "
       "kind per name, and round-trip against docs/OBSERVABILITY.md"},
      {"GW008", "thread-context",
       "worker-context code (gw::context call-graph coloring) must not "
       "reach coordinator-only functions or post_apply"},
  };
  return catalog;
}

namespace {

// Shared lexer for all stripping modes. `strip_comments` blanks comment
// text (when false, comments survive — the suppression scan needs them);
// `strip_strings` blanks string/char contents (when false, literals
// survive — the metric-name scan reads them) — either way literal
// boundaries are tracked so a `//` inside a string is never a comment.
std::string strip_impl(const std::string& content, bool strip_comments,
                       bool strip_strings) {
  std::string out = content;
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString
  };
  State state = State::kCode;
  std::string raw_delimiter;  // for R"delim( ... )delim"
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          if (strip_comments) out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          if (strip_comments) out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !is_ident_char(out[i - 1]))) {
          // Raw string literal: read the delimiter up to '('.
          std::size_t paren = i + 2;
          raw_delimiter.clear();
          while (paren < out.size() && out[paren] != '(' &&
                 raw_delimiter.size() < 16) {
            raw_delimiter += out[paren];
            ++paren;
          }
          if (paren < out.size() && out[paren] == '(') {
            if (strip_strings) {
              for (std::size_t j = i; j <= paren; ++j) {
                if (out[j] != '\n') out[j] = ' ';
              }
            }
            i = paren;
            state = State::kRawString;
          }
        } else if (c == '"') {
          state = State::kString;
          if (strip_strings) out[i] = ' ';
        } else if (c == '\'') {
          state = State::kChar;
          if (strip_strings) out[i] = ' ';
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else if (strip_comments) {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          if (strip_comments) out[i] = out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n' && strip_comments) {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          if (strip_strings) out[i] = ' ';
          if (next != '\n') {
            if (strip_strings && i + 1 < out.size()) out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          if (strip_strings) out[i] = ' ';
          state = State::kCode;
        } else if (c != '\n' && strip_strings) {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          if (strip_strings) out[i] = ' ';
          if (strip_strings && i + 1 < out.size()) out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          if (strip_strings) out[i] = ' ';
          state = State::kCode;
        } else if (c != '\n' && strip_strings) {
          out[i] = ' ';
        }
        break;
      case State::kRawString: {
        const std::string terminator = ")" + raw_delimiter + "\"";
        if (out.compare(i, terminator.size(), terminator) == 0) {
          if (strip_strings) {
            for (std::size_t j = 0; j < terminator.size(); ++j) {
              out[i + j] = ' ';
            }
          }
          i += terminator.size() - 1;
          state = State::kCode;
        } else if (c != '\n' && strip_strings) {
          out[i] = ' ';
        }
        break;
      }
    }
  }
  return out;
}

}  // namespace

std::string strip_comments_and_strings(const std::string& content) {
  return strip_impl(content, /*strip_comments=*/true, /*strip_strings=*/true);
}

Config parse_config(const std::string& text) {
  Config config;
  std::istringstream stream(text);
  std::string line;
  std::string section;
  int lineno = 0;
  while (std::getline(stream, line)) {
    ++lineno;
    // Strip comments (the config has no quoted '#').
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto last = line.find_last_not_of(" \t\r");
    line = line.substr(first, last - first + 1);
    if (line.front() == '[') {
      if (line.back() != ']') {
        config.error = "line " + std::to_string(lineno) + ": unclosed section";
        return config;
      }
      section = line.substr(1, line.size() - 2);
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      config.error =
          "line " + std::to_string(lineno) + ": expected `name = [...]`";
      return config;
    }
    std::string key = line.substr(0, eq);
    while (!key.empty() && (key.back() == ' ' || key.back() == '\t')) {
      key.pop_back();
    }
    const auto open = line.find('[', eq);
    const auto close = line.find(']', eq);
    if (open == std::string::npos || close == std::string::npos ||
        close < open) {
      config.error = "line " + std::to_string(lineno) +
                     ": expected a single-line [\"a\", \"b\"] array";
      return config;
    }
    std::vector<std::string> values;
    std::string inside = line.substr(open + 1, close - open - 1);
    std::size_t pos = 0;
    while ((pos = inside.find('"', pos)) != std::string::npos) {
      const auto end = inside.find('"', pos + 1);
      if (end == std::string::npos) {
        config.error =
            "line " + std::to_string(lineno) + ": unterminated string";
        return config;
      }
      values.push_back(inside.substr(pos + 1, end - pos - 1));
      pos = end + 1;
    }
    if (section == "layers") {
      if (config.layer_deps.count(key) != 0) {
        config.error = "layer '" + key + "' declared twice";
        return config;
      }
      config.layer_deps[key] = values;
    } else if (section.rfind("allow.", 0) == 0) {
      if (key != "files") {
        config.error = "section [" + section + "]: only `files = [...]` " +
                       "entries are supported";
        return config;
      }
      const std::string rule = canonical_rule_name(section.substr(6));
      if (rule.empty()) {
        config.error = "section [" + section + "]: unknown rule '" +
                       section.substr(6) + "'";
        return config;
      }
      config.allow_files[rule].insert(values.begin(), values.end());
    } else {
      config.error = "line " + std::to_string(lineno) +
                     ": entry outside a known section";
      return config;
    }
  }
  // Validate deps and compute the transitive closure, detecting cycles.
  for (const auto& [layer, deps] : config.layer_deps) {
    for (const auto& dep : deps) {
      if (config.layer_deps.count(dep) == 0) {
        config.error = "layer '" + layer + "' depends on undeclared layer '" +
                       dep + "'";
        return config;
      }
    }
  }
  // DFS with colors; gray-hit = cycle.
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::function<bool(const std::string&)> visit =
      [&](const std::string& layer) -> bool {
    color[layer] = 1;
    auto& closure = config.layer_closure[layer];
    for (const auto& dep : config.layer_deps.at(layer)) {
      if (color[dep] == 1) {
        config.error = "layer cycle through '" + dep + "' and '" + layer +
                       "'; the layer graph must be a DAG";
        return false;
      }
      if (color[dep] == 0 && !visit(dep)) return false;
      closure.insert(dep);
      const auto& dep_closure = config.layer_closure[dep];
      closure.insert(dep_closure.begin(), dep_closure.end());
    }
    color[layer] = 2;
    return true;
  };
  for (const auto& [layer, deps] : config.layer_deps) {
    if (color[layer] == 0 && !visit(layer)) return config;
  }
  return config;
}

namespace {

// Everything derived from one file's text that both the per-file rules
// and the semantic passes need.
struct PreparedFile {
  std::string path;
  std::string content;
  std::string stripped;    // comments + strings blanked
  std::string allow_view;  // strings blanked, comments kept
  std::vector<std::size_t> starts;
  std::vector<std::string> lines;
  std::vector<std::string> allow_lines;
};

PreparedFile prepare_file(const std::string& path,
                          const std::string& content) {
  PreparedFile prep;
  prep.path = path;
  prep.content = content;
  prep.stripped = strip_comments_and_strings(content);
  prep.allow_view =
      strip_impl(content, /*strip_comments=*/false, /*strip_strings=*/true);
  prep.starts = line_starts(content);
  prep.lines = split_lines(content);
  prep.allow_lines = split_lines(prep.allow_view);
  return prep;
}

// Runs the per-file rules and applies suppressions; copies the effective
// allow map out so lint_repo can filter semantic diagnostics through the
// same markers.
std::vector<Diagnostic> run_per_file_rules(
    const PreparedFile& prep, const Config& config,
    std::map<int, std::set<std::string>>* effective_out) {
  FileScan scan{prep.path, prep.content,     prep.stripped,
                prep.starts, prep.lines,     prep.allow_lines,
                {},          {},             {}};
  collect_allows(scan);
  if (effective_out != nullptr) *effective_out = scan.effective;

  // Whole-file allowlist from the config: note which rules to skip. The
  // gate is per-rule — a file allowlisted for banned-api is still checked
  // by every other rule, including the semantic passes.
  std::set<std::string> file_allowed;
  for (const auto& [rule, files] : config.allow_files) {
    if (files.count(prep.path) != 0) file_allowed.insert(rule);
  }

  if (file_allowed.count("banned-api") == 0) check_banned_apis(scan);
  if (file_allowed.count("unordered-iteration") == 0) {
    check_unordered_iteration(scan);
  }
  if (file_allowed.count("layering") == 0) check_layering(scan, config);
  if (file_allowed.count("pragma-once") == 0) check_pragma_once(scan);

  return apply_allows(scan);
}

}  // namespace

std::vector<Diagnostic> lint_file(const std::string& path,
                                  const std::string& content,
                                  const Config& config) {
  const PreparedFile prep = prepare_file(path, content);
  auto kept = run_per_file_rules(prep, config, nullptr);
  sort_diagnostics(kept);
  return kept;
}

std::vector<Diagnostic> lint_repo(const std::vector<SourceFile>& files,
                                  const std::string& obs_doc_path,
                                  const std::string& obs_doc,
                                  const Config& config) {
  std::vector<Diagnostic> all;
  std::map<std::string, std::map<int, std::set<std::string>>> effective;
  std::vector<FileIndex> index;
  for (const auto& file : files) {
    const PreparedFile prep = prepare_file(file.path, file.content);
    auto kept = run_per_file_rules(prep, config, &effective[file.path]);
    all.insert(all.end(), kept.begin(), kept.end());
    // The semantic passes model src/ only — persist contracts, metric
    // registries and shard contexts all live there; tests and benches
    // exercise them but are not part of the contract surface.
    if (prep.path.rfind("src/", 0) == 0) {
      const std::string code_view =
          strip_impl(file.content, /*strip_comments=*/true,
                     /*strip_strings=*/false);
      index.push_back(build_file_index(prep.path, prep.stripped, code_view,
                                       prep.allow_view));
    }
  }
  std::sort(index.begin(), index.end(),
            [](const FileIndex& a, const FileIndex& b) {
              return a.path < b.path;
            });

  std::vector<Diagnostic> semantic;
  check_persist_coverage(index, &semantic);
  if (!obs_doc.empty()) {
    const ObsDoc doc = parse_obs_doc(obs_doc_path, obs_doc);
    check_observability_registry(index, doc, &semantic);
  }
  check_thread_context(index, &semantic);

  for (auto& diagnostic : semantic) {
    const auto allowed = config.allow_files.find(diagnostic.rule);
    if (allowed != config.allow_files.end() &&
        allowed->second.count(diagnostic.file) != 0) {
      continue;
    }
    bool suppressed = false;
    const auto file_it = effective.find(diagnostic.file);
    if (file_it != effective.end()) {
      for (int line : {diagnostic.line, diagnostic.line - 1}) {
        const auto line_it = file_it->second.find(line);
        if (line_it != file_it->second.end() &&
            line_it->second.count(diagnostic.rule) != 0) {
          suppressed = true;
          break;
        }
      }
    }
    if (!suppressed) all.push_back(std::move(diagnostic));
  }
  sort_diagnostics(all);
  return all;
}

std::vector<std::string> parse_baseline(const std::string& text) {
  std::vector<std::string> entries;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty() || line.front() == '#') continue;
    entries.push_back(line);
  }
  return entries;
}

BaselineResult apply_baseline(std::vector<Diagnostic> diagnostics,
                              const std::vector<std::string>& baseline) {
  BaselineResult result;
  std::multiset<std::string> pending(baseline.begin(), baseline.end());
  for (auto& diagnostic : diagnostics) {
    const auto it = pending.find(format_diagnostic(diagnostic));
    if (it != pending.end()) {
      pending.erase(it);
      ++result.suppressed;
    } else {
      result.fresh.push_back(std::move(diagnostic));
    }
  }
  result.stale.assign(pending.begin(), pending.end());
  return result;
}

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xf];
          out += hex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string format_json(const BaselineResult& result) {
  std::string out = "{\n  \"schema\": \"gwlint.v1\",\n  \"diagnostics\": [";
  for (std::size_t i = 0; i < result.fresh.size(); ++i) {
    const Diagnostic& d = result.fresh[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"file\": \"" + json_escape(d.file) +
           "\", \"line\": " + std::to_string(d.line) + ", \"id\": \"" +
           json_escape(d.id) + "\", \"rule\": \"" + json_escape(d.rule) +
           "\", \"message\": \"" + json_escape(d.message) + "\"}";
  }
  out += result.fresh.empty() ? "],\n" : "\n  ],\n";
  out += "  \"baseline_suppressed\": " + std::to_string(result.suppressed) +
         ",\n  \"stale_baseline\": [";
  for (std::size_t i = 0; i < result.stale.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"" + json_escape(result.stale[i]) + "\"";
  }
  out += result.stale.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

void sort_diagnostics(std::vector<Diagnostic>& diagnostics) {
  std::sort(diagnostics.begin(), diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.id, a.message) <
                     std::tie(b.file, b.line, b.id, b.message);
            });
}

std::string format_diagnostic(const Diagnostic& diagnostic) {
  return diagnostic.file + ":" + std::to_string(diagnostic.line) + ": [" +
         diagnostic.id + "/" + diagnostic.rule + "] " + diagnostic.message;
}

}  // namespace gw::lint
