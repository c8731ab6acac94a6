#include "semantic.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

#include "text.h"

namespace gw::lint {
namespace {

// Whole-token occurrence test (same contract as the GW001 scan).
bool contains_token(const std::string& text, const std::string& token) {
  std::size_t pos = 0;
  while ((pos = text.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
    const std::size_t after = pos + token.size();
    const bool right_ok = after >= text.size() || !is_ident_char(text[after]);
    if (left_ok && right_ok) return true;
    pos = after;
  }
  return false;
}

void add(std::vector<Diagnostic>* out, std::string file, int line,
         const char* id, const char* rule, std::string message) {
  out->push_back(
      Diagnostic{std::move(file), line, id, rule, std::move(message)});
}

// --- GW006 ----------------------------------------------------------------

// Finds the persist() body for `cls` declared in `file`: an inline method
// first, then an out-of-line `Cls::persist` in the same file, then a
// unique one anywhere in the index.
const FunctionRecord* find_persist_body(const std::vector<FileIndex>& index,
                                        const FileIndex& file,
                                        const ClassDecl& cls) {
  for (const auto& fn : file.functions) {
    if (fn.qualifier == cls.name && fn.name == "persist" && fn.has_body) {
      return &fn;
    }
  }
  const FunctionRecord* found = nullptr;
  for (const auto& other : index) {
    for (const auto& fn : other.functions) {
      if (fn.qualifier == cls.name && fn.name == "persist" && fn.has_body) {
        if (found != nullptr) return nullptr;  // ambiguous: don't guess
        found = &fn;
      }
    }
  }
  return found;
}

}  // namespace

void check_persist_coverage(const std::vector<FileIndex>& index,
                            std::vector<Diagnostic>* diagnostics) {
  for (const auto& file : index) {
    for (const auto& cls : file.classes) {
      if (!cls.declares_persist) continue;
      const FunctionRecord* persist = find_persist_body(index, file, cls);
      if (persist == nullptr) continue;  // body not visible to the index
      for (const auto& member : cls.members) {
        if (member.exempt) continue;
        if (contains_token(persist->body, member.name)) continue;
        add(diagnostics, file.path, member.line, "GW006", "persist-coverage",
            "'" + cls.name + "::" + member.name +
                "' is never named in " + cls.name +
                "::persist(); snapshot restore will silently drop it — "
                "persist it, or mark it `// gwlint: "
                "allow(persist-coverage): <why it is transient>`");
      }
    }
  }
}

// --- GW007 ----------------------------------------------------------------

namespace {

bool snake_dotted(const std::string& name) {
  if (name.empty() || name.front() == '.' || name.back() == '.') return false;
  bool prev_dot = false;
  for (char c : name) {
    if (c == '.') {
      if (prev_dot) return false;
      prev_dot = true;
      continue;
    }
    prev_dot = false;
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
  }
  return true;
}

// The literal prefix of a doc row name, up to its first <placeholder>.
std::string row_prefix(const std::string& row) {
  const auto lt = row.find('<');
  return lt == std::string::npos ? row : row.substr(0, lt);
}

// The literal suffix after the last <placeholder>.
std::string row_suffix(const std::string& row) {
  const auto gt = row.rfind('>');
  return gt == std::string::npos ? row : row.substr(gt + 1);
}

// Does the exact metric name `full` match doc row `row` (which may contain
// <placeholder> segments standing for one-or-more name characters)?
bool exact_matches_row(const std::string& full, const ObsDoc::MetricRow& row) {
  if (!row.placeholder) return full == row.name;
  // Greedy in-order match of the literal chunks around placeholders.
  std::vector<std::string> chunks;
  std::size_t i = 0;
  while (i < row.name.size()) {
    const auto lt = row.name.find('<', i);
    if (lt == std::string::npos) {
      chunks.push_back(row.name.substr(i));
      break;
    }
    chunks.push_back(row.name.substr(i, lt - i));
    const auto gt = row.name.find('>', lt);
    if (gt == std::string::npos) return false;  // malformed row
    i = gt + 1;
  }
  if (i >= row.name.size() && (row.name.empty() || row.name.back() == '>')) {
    chunks.push_back("");
  }
  if (chunks.size() < 2) return false;
  std::size_t pos = 0;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const std::string& chunk = chunks[c];
    if (c == 0) {
      if (full.compare(0, chunk.size(), chunk) != 0) return false;
      pos = chunk.size();
      continue;
    }
    if (c + 1 == chunks.size()) {
      if (full.size() < pos + chunk.size() + 1) return false;  // placeholder
      // must consume at least one character
      if (full.compare(full.size() - chunk.size(), chunk.size(), chunk) != 0) {
        return false;
      }
      return true;
    }
    const auto found = full.find(chunk, pos + 1);
    if (found == std::string::npos || chunk.empty()) return false;
    pos = found + chunk.size();
  }
  return true;
}

// Does an open site (literal head and/or tail) match placeholder row `row`?
bool open_matches_row(const std::string& component, const std::string& head,
                      const std::string& tail,
                      const ObsDoc::MetricRow& row) {
  if (!row.placeholder) return false;
  const std::string prefix = row_prefix(row.name);
  const std::string suffix = row_suffix(row.name);
  if (!head.empty()) {
    return prefix == component + "." + head &&
           (tail.empty() || suffix == tail);
  }
  if (!tail.empty()) {
    return suffix == tail &&
           row.name.compare(0, component.size() + 1, component + ".") == 0;
  }
  return false;
}

// kCamelCase enumerator -> snake_case journal string (`kStateTransition`
// -> `state_transition`), mirroring obs::to_string(EventType).
std::string enum_to_snake(const std::string& enumerator) {
  std::string name = enumerator;
  if (name.size() > 1 && name[0] == 'k' &&
      std::isupper(static_cast<unsigned char>(name[1])) != 0) {
    name.erase(0, 1);
  }
  std::string out;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    if (std::isupper(static_cast<unsigned char>(c)) != 0) {
      if (i > 0) out.push_back('_');
      out.push_back(char(std::tolower(static_cast<unsigned char>(c))));
    } else {
      out.push_back(c);
    }
  }
  return out;
}

struct SiteRef {
  const FileIndex* file;
  const MetricSite* site;
};

bool site_before(const SiteRef& a, const SiteRef& b) {
  return std::tie(a.file->path, a.site->line) <
         std::tie(b.file->path, b.site->line);
}

}  // namespace

ObsDoc parse_obs_doc(const std::string& path, const std::string& text) {
  ObsDoc doc;
  doc.path = path;
  int line_no = 0;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    ++line_no;
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(begin, end - begin);
    const auto first = line.find_first_not_of(" \t");
    if (first != std::string::npos && line[first] == '|') {
      // First cell: between the first two pipes.
      const auto second_pipe = line.find('|', first + 1);
      if (second_pipe != std::string::npos) {
        std::string cell = line.substr(first + 1, second_pipe - first - 1);
        const auto c0 = cell.find_first_not_of(" \t");
        const auto c1 = cell.find_last_not_of(" \t");
        if (c0 != std::string::npos) cell = cell.substr(c0, c1 - c0 + 1);
        else cell.clear();
        // Exactly one backticked name, nothing else in the cell.
        if (cell.size() > 2 && cell.front() == '`' && cell.back() == '`' &&
            cell.find('`', 1) == cell.size() - 1) {
          const std::string name = cell.substr(1, cell.size() - 2);
          const bool chars_ok =
              name.find_first_not_of("abcdefghijklmnopqrstuvwxyz"
                                     "0123456789_.<>") == std::string::npos;
          if (chars_ok && name.find('.') != std::string::npos) {
            ObsDoc::MetricRow row;
            row.name = name;
            row.line = line_no;
            row.placeholder = name.find('<') != std::string::npos;
            // Second cell: the instrument kind.
            const auto third_pipe = line.find('|', second_pipe + 1);
            if (third_pipe != std::string::npos) {
              std::string kind = line.substr(
                  second_pipe + 1, third_pipe - second_pipe - 1);
              const auto k0 = kind.find_first_not_of(" \t`");
              const auto k1 = kind.find_last_not_of(" \t`");
              if (k0 != std::string::npos) {
                kind = kind.substr(k0, k1 - k0 + 1);
                if (kind == "counter" || kind == "gauge" ||
                    kind == "histogram") {
                  row.kind = kind;
                }
              }
            }
            doc.metrics.push_back(std::move(row));
          } else if (chars_ok && !name.empty() &&
                     name.find_first_of("<>") == std::string::npos) {
            doc.journal.push_back({name, line_no});
          }
        }
      }
    }
    if (end == text.size()) break;
    begin = end + 1;
  }
  return doc;
}

void check_observability_registry(const std::vector<FileIndex>& index,
                                  const ObsDoc& doc,
                                  std::vector<Diagnostic>* diagnostics) {
  // Gather all sites, sorted for deterministic "first site" attribution.
  std::vector<SiteRef> sites;
  for (const auto& file : index) {
    for (const auto& site : file.metric_sites) {
      sites.push_back({&file, &site});
    }
  }
  std::sort(sites.begin(), sites.end(), site_before);

  std::set<std::string> matched_rows;  // row names satisfied by some site
  std::map<std::string, std::pair<std::string, SiteRef>> kind_by_name;
  std::set<std::string> reported_names;

  for (const auto& ref : sites) {
    const MetricSite& site = *ref.site;
    if (!snake_dotted(site.component)) {
      add(diagnostics, ref.file->path, site.line, "GW007",
          "obs-registry",
          "metric component '" + site.component +
              "' is not snake_case; the export schema "
              "(docs/OBSERVABILITY.md) requires [a-z0-9_] components");
      continue;
    }
    if (site.form == MetricNameForm::kDynamic) {
      add(diagnostics, ref.file->path, site.line, "GW007", "obs-registry",
          "metric name under component '" + site.component +
              "' is built entirely at runtime; give it a literal head or "
              "tail so gwlint can match it against docs/OBSERVABILITY.md");
      continue;
    }
    if (site.form == MetricNameForm::kExact) {
      const std::string full = site.component + "." + site.name;
      if (!snake_dotted(full)) {
        add(diagnostics, ref.file->path, site.line, "GW007", "obs-registry",
            "metric name '" + full +
                "' is not snake.case.dotted (lowercase [a-z0-9_] segments "
                "joined by single dots)");
        continue;
      }
      // Kind uniqueness per full name.
      auto [it, inserted] = kind_by_name.emplace(
          full, std::make_pair(site.kind, ref));
      if (!inserted && it->second.first != site.kind &&
          reported_names.count("kind:" + full) == 0) {
        reported_names.insert("kind:" + full);
        add(diagnostics, ref.file->path, site.line, "GW007", "obs-registry",
            "metric '" + full + "' is registered as a " + site.kind +
                " here but as a " + it->second.first + " at " +
                it->second.second.file->path + ":" +
                std::to_string(it->second.second.site->line) +
                "; one name, one instrument");
      }
      // Documented?
      const ObsDoc::MetricRow* matched = nullptr;
      for (const auto& row : doc.metrics) {
        if (exact_matches_row(full, row)) {
          matched = &row;
          matched_rows.insert(row.name);
          if (!row.kind.empty() && row.kind == site.kind) break;
        }
      }
      if (matched == nullptr) {
        if (reported_names.insert("doc:" + full).second) {
          add(diagnostics, ref.file->path, site.line, "GW007",
              "obs-registry",
              "metric '" + full + "' has no row in " + doc.path +
                  "; the doc is the export contract — add a row (or a "
                  "<placeholder> row) in the matching table");
        }
      } else if (!matched->kind.empty() && matched->kind != site.kind) {
        if (reported_names.insert("dockind:" + full).second) {
          add(diagnostics, ref.file->path, site.line, "GW007",
              "obs-registry",
              "metric '" + full + "' is a " + site.kind + " in code but " +
                  doc.path + ":" + std::to_string(matched->line) +
                  " documents it as a " + matched->kind);
        }
      }
      continue;
    }
    // Open site: literal head and/or tail around a runtime part.
    const std::string shown =
        site.component + "." + site.name + "<...>" + site.tail;
    if (!site.name.empty() && !snake_dotted(site.component + "." +
                                            site.name + "x")) {
      add(diagnostics, ref.file->path, site.line, "GW007", "obs-registry",
          "metric name head '" + site.component + "." + site.name +
              "' is not snake.case.dotted");
      continue;
    }
    const ObsDoc::MetricRow* matched = nullptr;
    for (const auto& row : doc.metrics) {
      if (open_matches_row(site.component, site.name, site.tail, row)) {
        matched = &row;
        matched_rows.insert(row.name);
        if (!row.kind.empty() && row.kind == site.kind) break;
      }
    }
    if (matched == nullptr) {
      if (reported_names.insert("doc:" + shown).second) {
        add(diagnostics, ref.file->path, site.line, "GW007", "obs-registry",
            "dynamically-keyed metric '" + shown + "' has no <placeholder> "
            "row in " + doc.path + "; document the family (e.g. `" +
                site.component + "." + site.name + "<key>" + site.tail +
                "`)");
      }
    } else if (!matched->kind.empty() && matched->kind != site.kind) {
      if (reported_names.insert("dockind:" + shown).second) {
        add(diagnostics, ref.file->path, site.line, "GW007", "obs-registry",
            "metric family '" + shown + "' is a " + site.kind +
                " in code but " + doc.path + ":" +
                std::to_string(matched->line) + " documents it as a " +
                matched->kind);
      }
    }
  }

  // Doc -> code: every row must be matched by some site; duplicates are
  // drift waiting to happen.
  std::set<std::string> seen_rows;
  for (const auto& row : doc.metrics) {
    if (!seen_rows.insert(row.name).second) {
      add(diagnostics, doc.path, row.line, "GW007", "obs-registry",
          "duplicate row for metric '" + row.name + "' in " + doc.path);
      continue;
    }
    if (matched_rows.count(row.name) != 0) continue;
    add(diagnostics, doc.path, row.line, "GW007", "obs-registry",
        "documented metric '" + row.name +
            "' is not registered anywhere under src/; fix the name or "
            "delete the stale row");
  }

  // Journal leg: EventType enumerators <-> journal rows, both directions.
  std::vector<std::pair<const FileIndex*, const EnumDecl*>> event_enums;
  for (const auto& file : index) {
    for (const auto& decl : file.enums) {
      if (decl.name == "EventType") event_enums.push_back({&file, &decl});
    }
  }
  if (!event_enums.empty()) {
    std::set<std::string> enum_names;
    for (const auto& [file, decl] : event_enums) {
      for (const auto& enumerator : decl->enumerators) {
        const std::string snake = enum_to_snake(enumerator);
        enum_names.insert(snake);
        bool documented = false;
        for (const auto& row : doc.journal) {
          if (row.name == snake) {
            documented = true;
            break;
          }
        }
        if (!documented) {
          add(diagnostics, file->path, decl->line, "GW007", "obs-registry",
              "journal event type '" + snake + "' (EventType::" +
                  enumerator + ") has no row in " + doc.path +
                  "'s event-type table");
        }
      }
    }
    std::set<std::string> seen_journal;
    for (const auto& row : doc.journal) {
      if (!seen_journal.insert(row.name).second) {
        add(diagnostics, doc.path, row.line, "GW007", "obs-registry",
            "duplicate journal event-type row '" + row.name + "'");
        continue;
      }
      if (enum_names.count(row.name) == 0) {
        add(diagnostics, doc.path, row.line, "GW007", "obs-registry",
            "documented journal event type '" + row.name +
                "' has no EventType enumerator; fix the row or the enum");
      }
    }
  }
}

// --- GW008 ----------------------------------------------------------------

namespace {

struct FnRef {
  std::size_t file;
  std::size_t fn;
};

bool fn_ref_less(const FnRef& a, const FnRef& b) {
  return std::tie(a.file, a.fn) < std::tie(b.file, b.fn);
}

std::string display_name(const FunctionRecord& fn) {
  return fn.qualifier.empty() ? fn.name : fn.qualifier + "::" + fn.name;
}

}  // namespace

void check_thread_context(const std::vector<FileIndex>& index,
                          std::vector<Diagnostic>* diagnostics) {
  // Annotation hygiene first: values and attachment.
  for (const auto& file : index) {
    std::map<int, std::pair<int, std::string>> per_function;
    for (const auto& ann : file.annotations) {
      if (ann.value != "worker" && ann.value != "coordinator") {
        add(diagnostics, file.path, ann.line, "GW008", "thread-context",
            "unknown gw::context value '" + ann.value +
                "'; expected `// gw::context(worker)` or "
                "`// gw::context(coordinator)`");
        continue;
      }
      if (!ann.attached) {
        add(diagnostics, file.path, ann.line, "GW008", "thread-context",
            "gw::context annotation is not attached to any function; place "
            "it on, or up to 3 lines above, the function's name line");
        continue;
      }
      const auto it = per_function.find(ann.attached_function);
      if (it == per_function.end()) {
        per_function[ann.attached_function] = {ann.line, ann.value};
      } else if (it->second.second != ann.value) {
        add(diagnostics, file.path, ann.line, "GW008", "thread-context",
            "conflicting gw::context annotations (" + it->second.second +
                " at line " + std::to_string(it->second.first) + ", " +
                ann.value + " here) on the same function");
      }
    }
  }

  // Effective context: explicit annotations, then declaration -> definition
  // propagation by qualified name.
  std::vector<std::vector<std::string>> context(index.size());
  std::map<std::string, std::string> by_qualified_name;
  for (std::size_t f = 0; f < index.size(); ++f) {
    context[f].resize(index[f].functions.size());
    for (std::size_t i = 0; i < index[f].functions.size(); ++i) {
      const FunctionRecord& fn = index[f].functions[i];
      context[f][i] = fn.context;
      if (!fn.context.empty() && !fn.qualifier.empty()) {
        by_qualified_name.emplace(fn.qualifier + "::" + fn.name, fn.context);
      }
    }
  }
  for (std::size_t f = 0; f < index.size(); ++f) {
    for (std::size_t i = 0; i < index[f].functions.size(); ++i) {
      if (!context[f][i].empty()) continue;
      const FunctionRecord& fn = index[f].functions[i];
      if (fn.qualifier.empty()) continue;
      const auto it = by_qualified_name.find(fn.qualifier + "::" + fn.name);
      if (it != by_qualified_name.end()) context[f][i] = it->second;
    }
  }

  // Names that are coordinator-only: every indexed function with that
  // simple name carries coordinator context (so overloaded generic names
  // never fire), plus the hard-wired `post_apply` (the sharded kernel's
  // unsynchronized cross-shard apply, worker-unsafe by construction).
  std::map<std::string, bool> all_coordinator;  // name -> every def/decl is
  for (std::size_t f = 0; f < index.size(); ++f) {
    for (std::size_t i = 0; i < index[f].functions.size(); ++i) {
      const std::string& name = index[f].functions[i].name;
      const bool coord = context[f][i] == "coordinator";
      auto [it, inserted] = all_coordinator.emplace(name, coord);
      if (!inserted) it->second = it->second && coord;
    }
  }
  std::set<std::string> coordinator_names;
  for (const auto& [name, coord] : all_coordinator) {
    if (coord) coordinator_names.insert(name);
  }
  coordinator_names.insert("post_apply");

  // Color the worker set: BFS from worker-annotated bodies through call
  // edges matched by simple name, never entering coordinator functions.
  std::map<std::string, std::vector<FnRef>> bodies_by_name;
  for (std::size_t f = 0; f < index.size(); ++f) {
    for (std::size_t i = 0; i < index[f].functions.size(); ++i) {
      if (!index[f].functions[i].has_body) continue;
      if (context[f][i] == "coordinator") continue;
      bodies_by_name[index[f].functions[i].name].push_back({f, i});
    }
  }
  std::set<std::pair<std::size_t, std::size_t>> colored;
  std::vector<FnRef> worklist;
  for (std::size_t f = 0; f < index.size(); ++f) {
    for (std::size_t i = 0; i < index[f].functions.size(); ++i) {
      if (context[f][i] == "worker" && index[f].functions[i].has_body) {
        if (colored.insert({f, i}).second) worklist.push_back({f, i});
      }
    }
  }
  while (!worklist.empty()) {
    const FnRef ref = worklist.back();
    worklist.pop_back();
    for (const auto& call : index[ref.file].functions[ref.fn].calls) {
      const auto it = bodies_by_name.find(call.name);
      if (it == bodies_by_name.end()) continue;
      for (const FnRef& callee : it->second) {
        if (colored.insert({callee.file, callee.fn}).second) {
          worklist.push_back(callee);
        }
      }
    }
  }

  // Diagnostics: a colored (worker-context) function calling a
  // coordinator-only name.
  std::vector<FnRef> colored_sorted;
  for (const auto& [f, i] : colored) colored_sorted.push_back({f, i});
  std::sort(colored_sorted.begin(), colored_sorted.end(), fn_ref_less);
  for (const FnRef& ref : colored_sorted) {
    const FunctionRecord& fn = index[ref.file].functions[ref.fn];
    for (const auto& call : fn.calls) {
      if (call.name == fn.name) continue;  // recursion, not an escape
      if (coordinator_names.count(call.name) == 0) continue;
      add(diagnostics, index[ref.file].path, call.line, "GW008",
          "thread-context",
          "'" + display_name(fn) + "' runs in worker context but calls "
          "coordinator-only '" + call.name +
              "()'; record the intent shard-locally and post it "
              "through a barrier hook (docs/PARALLELISM.md)");
    }
  }
}

}  // namespace gw::lint
