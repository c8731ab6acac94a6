#include "index.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

#include "text.h"

namespace gw::lint {
namespace {

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// --- tokenizer ------------------------------------------------------------

enum class TokKind { kIdent, kNumber, kPunct };

struct Token {
  TokKind kind;
  std::string text;
  std::size_t pos;
};

std::vector<Token> tokenize(const std::string& text) {
  std::vector<Token> toks;
  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      ++i;
      continue;
    }
    if (is_ident_start(c)) {
      std::size_t begin = i;
      while (i < text.size() && is_ident_char(text[i])) ++i;
      toks.push_back({TokKind::kIdent, text.substr(begin, i - begin), begin});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      // Numbers are opaque: consume digits, letters (hex/suffixes), dots,
      // and the sign of an exponent.
      std::size_t begin = i;
      while (i < text.size() &&
             (is_ident_char(text[i]) || text[i] == '.' ||
              ((text[i] == '+' || text[i] == '-') && i > begin &&
               (text[i - 1] == 'e' || text[i - 1] == 'E')))) {
        ++i;
      }
      toks.push_back({TokKind::kNumber, text.substr(begin, i - begin), begin});
      continue;
    }
    // `::` is one token (qualification matters); everything else is single.
    if (c == ':' && i + 1 < text.size() && text[i + 1] == ':') {
      toks.push_back({TokKind::kPunct, "::", i});
      i += 2;
      continue;
    }
    toks.push_back({TokKind::kPunct, std::string(1, c), i});
    ++i;
  }
  return toks;
}

// --- keyword tables -------------------------------------------------------

// Can never be a function name at a call or declaration site.
const std::set<std::string>& name_reject_keywords() {
  static const std::set<std::string> kws = {
      "if",        "for",       "while",       "switch",   "return",
      "sizeof",    "alignof",   "decltype",    "new",      "delete",
      "throw",     "catch",     "static_cast", "dynamic_cast",
      "const_cast", "reinterpret_cast", "co_await", "co_return",
      "void",      "int",       "bool",        "char",     "double",
      "float",     "unsigned",  "signed",      "long",     "short",
      "auto",      "const",     "constexpr",   "noexcept", "operator",
      "typename",  "defined",   "alignas",
  };
  return kws;
}

// Declarator modifiers that are transparent to the statement scan.
const std::set<std::string>& transparent_keywords() {
  static const std::set<std::string> kws = {
      "inline",   "virtual", "explicit", "typename", "volatile",
      "register", "extern",  "struct",   "class",    "enum",
  };
  // `struct`/`class`/`enum` here cover elaborated type specifiers inside a
  // declarator (`enum Kind k_;`); definitions are dispatched before the
  // statement scan ever sees them.
  return kws;
}

// --- parser ---------------------------------------------------------------

struct Parser {
  const std::string& stripped;
  std::vector<Token> toks;
  std::vector<std::size_t> starts;
  FileIndex* out;

  int line_at(std::size_t ti) const {
    return line_of(starts, toks[ti].pos);
  }
  bool at(std::size_t i, const char* t) const {
    return i < toks.size() && toks[i].text == t;
  }
  bool ident_at(std::size_t i) const {
    return i < toks.size() && toks[i].kind == TokKind::kIdent;
  }

  // Skips a balanced group. `i` points at the opener; returns the index
  // just past the matching closer (or toks.size() when unbalanced).
  std::size_t skip_group(std::size_t i, char open, char close) const {
    int depth = 0;
    for (; i < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kPunct) continue;
      const char c = toks[i].text[0];
      if (toks[i].text.size() != 1) continue;
      if (c == open) ++depth;
      if (c == close && --depth == 0) return i + 1;
    }
    return toks.size();
  }

  // Skips a template argument list starting at `<`. Angles do not nest with
  // certainty (a `<` can be less-than), so bail out at `;` or `{`.
  std::size_t skip_angles(std::size_t i) const {
    int depth = 0;
    for (; i < toks.size(); ++i) {
      const std::string& t = toks[i].text;
      if (t == "<") ++depth;
      if (t == ">" && --depth == 0) return i + 1;
      if (t == ";" || t == "{") return i;  // not a template arg list
      if (t == "(") {
        i = skip_group(i, '(', ')') - 1;  // e.g. function types in args
      }
    }
    return toks.size();
  }

  // Skips the rest of a preprocessor directive: every token on the same
  // line as the `#` (the repo does not use backslash continuations).
  std::size_t skip_preprocessor(std::size_t i) const {
    const int line = line_at(i);
    while (i < toks.size() && line_at(i) == line) ++i;
    return i;
  }

  // Skips to the `;` that ends a statement, balancing (), [] and {} so
  // semicolons inside lambda bodies or initializer lists do not end it.
  std::size_t skip_to_semi(std::size_t i) const {
    int depth = 0;
    for (; i < toks.size(); ++i) {
      const std::string& t = toks[i].text;
      if (t == "(" || t == "[" || t == "{") ++depth;
      if (t == ")" || t == "]" || t == "}") --depth;
      if (t == ";" && depth <= 0) return i + 1;
      if (depth < 0) return i;  // ran off the enclosing scope
    }
    return toks.size();
  }

  // Records the calls inside a body span (token indices, exclusive end).
  void extract_calls(std::size_t begin, std::size_t end,
                     std::vector<CallSite>* calls) const {
    for (std::size_t i = begin; i + 1 < end; ++i) {
      if (toks[i].kind != TokKind::kIdent) continue;
      if (!at(i + 1, "(")) continue;
      if (name_reject_keywords().count(toks[i].text) != 0) continue;
      calls->push_back({toks[i].text, line_at(i)});
    }
  }

  // --- one declaration statement ------------------------------------------
  //
  // Handles both class-scope member/method declarations and namespace-scope
  // function definitions. Returns the index past the statement. When
  // `record` is false the statement is parsed for its extent only (friend
  // declarations).
  std::size_t scan_statement(std::size_t i, int class_index, bool record) {
    const bool in_class = class_index >= 0;
    bool saw_static = false;
    bool saw_const = false;
    bool saw_mutable = false;
    bool saw_ptr_ref = false;
    bool saw_function_in_args = false;  // std::function inside template args
    bool saw_paren = false;  // a parameter list was consumed
    std::vector<std::size_t> decl_idents;  // top-level identifier tokens

    auto flush_member = [&]() {
      if (!record || !in_class || saw_paren || saw_static) return;
      if (decl_idents.empty()) return;
      const std::size_t name_tok = decl_idents.back();
      const std::string& name = toks[name_tok].text;
      if (name_reject_keywords().count(name) != 0) return;
      // std::function members are callbacks — wiring re-established at
      // construction, never snapshot state. Likewise members whose declared
      // type ends in Config or Hooks: repo convention (docs/SNAPSHOT.md)
      // restores "state minus wiring" into an identically-configured world,
      // so construction configuration is never part of a persist body.
      bool is_callback = saw_function_in_args;
      bool is_wiring_type = false;
      for (std::size_t d = 0; d + 1 < decl_idents.size(); ++d) {
        const std::string& type_ident = toks[decl_idents[d]].text;
        if (type_ident == "function") is_callback = true;
        if (ends_with(type_ident, "Config") || ends_with(type_ident, "Hooks")) {
          is_wiring_type = true;
        }
      }
      MemberDecl member;
      member.name = name;
      member.line = line_at(name_tok);
      member.exempt =
          saw_ptr_ref || saw_const || saw_mutable || is_callback || is_wiring_type;
      out->classes[class_index].members.push_back(member);
    };

    while (i < toks.size()) {
      const Token& tok = toks[i];
      if (tok.kind == TokKind::kIdent) {
        if (tok.text == "static" || tok.text == "constexpr" ||
            tok.text == "thread_local") {
          saw_static = true;
          ++i;
          continue;
        }
        if (tok.text == "mutable") {
          saw_mutable = true;
          ++i;
          continue;
        }
        if (tok.text == "const") {
          saw_const = true;
          ++i;
          continue;
        }
        if (transparent_keywords().count(tok.text) != 0) {
          ++i;
          continue;
        }
        if (tok.text == "operator") {
          // Skip the operator symbol so its punctuation is not mistaken
          // for declarator structure; the call operator's `()` is consumed
          // as the (empty) symbol and the real parameter list follows.
          ++i;
          while (i < toks.size() && toks[i].kind == TokKind::kPunct &&
                 toks[i].text != "(" && toks[i].text != ";") {
            ++i;
          }
          if (at(i, "(") && at(i + 1, ")")) i += 2;  // operator()
          decl_idents.clear();  // not a member declarator
          continue;
        }
        decl_idents.push_back(i);
        ++i;
        continue;
      }
      const std::string& t = tok.text;
      if (t == "::" || t == "," || t == "~" || t == ".") {
        if (t == ",") flush_member();  // `int a_, b_;`
        ++i;
        continue;
      }
      if (tok.kind == TokKind::kNumber) {
        ++i;
        continue;
      }
      if (t == "<") {
        // A raw pointer or std::function anywhere in the template arguments
        // (std::vector<ProbeNode*>, std::vector<std::function<void()>>)
        // makes the member wiring, not state.
        const std::size_t after = skip_angles(i);
        for (std::size_t j = i; j < after; ++j) {
          if (toks[j].text == "*") saw_ptr_ref = true;
          if (toks[j].text == "function") saw_function_in_args = true;
        }
        i = after;
        continue;
      }
      if (t == "[") {
        i = skip_group(i, '[', ']');
        continue;
      }
      if (t == "*" || t == "&") {
        saw_ptr_ref = true;
        ++i;
        continue;
      }
      if (t == ";") {
        flush_member();
        return i + 1;
      }
      if (t == "=") {
        // Member initializer: the declarator is complete; skip the
        // initializer expression (which may contain lambdas) to the `;`.
        i = skip_to_semi(i);
        flush_member();
        return i;
      }
      if (t == "{") {
        if (!decl_idents.empty()) {
          // Brace-initialized member: `util::Rng rng_{seed};`
          i = skip_group(i, '{', '}');
          if (at(i, ";")) ++i;
          flush_member();
          return i;
        }
        // Lost: skip the block conservatively.
        return skip_group(i, '{', '}');
      }
      if (t == "(") {
        return scan_function_tail(i, class_index, record, decl_idents);
      }
      // Unrecognised punctuation: give up on this statement.
      return skip_to_semi(i);
    }
    return i;
  }

  // `i` points at the `(` opening a parameter list (or something shaped
  // like one). Consumes the list, trailing qualifiers, a constructor init
  // list and the body or terminating `;`, recording a FunctionRecord when
  // the preceding tokens named a plausible function.
  std::size_t scan_function_tail(std::size_t i, int class_index, bool record,
                                 const std::vector<std::size_t>& decl_idents) {
    const bool in_class = class_index >= 0;
    // Function name: the identifier directly before the `(`.
    std::string name;
    std::string qualifier = in_class ? out->classes[class_index].name : "";
    int name_line = 0;
    if (!decl_idents.empty() && decl_idents.back() + 1 == i) {
      const std::size_t name_tok = decl_idents.back();
      name = toks[name_tok].text;
      name_line = line_at(name_tok);
      // Out-of-line definition: `void Station::persist(...)`.
      if (name_tok >= 2 && at(name_tok - 1, "::") &&
          toks[name_tok - 2].kind == TokKind::kIdent) {
        qualifier = toks[name_tok - 2].text;
      }
      if (name_reject_keywords().count(name) != 0) name.clear();
    }

    i = skip_group(i, '(', ')');

    // Trailer: cv/ref qualifiers, noexcept, attributes, trailing return
    // type, `= default/delete/0`, constructor init list.
    bool in_ctor_init = false;
    std::size_t body_open = toks.size();
    while (i < toks.size()) {
      const std::string& t = toks[i].text;
      if (t == "const" || t == "override" || t == "final" || t == "&&" ||
          t == "&" || t == "mutable" || t == "volatile") {
        ++i;
        continue;
      }
      if (t == "noexcept") {
        ++i;
        if (at(i, "(")) i = skip_group(i, '(', ')');
        continue;
      }
      if (t == "[") {
        i = skip_group(i, '[', ']');
        continue;
      }
      if (t == "-" && at(i + 1, ">")) {
        i += 2;  // trailing return type: consume its tokens structurally
        continue;
      }
      if (t == "=") {
        i = skip_to_semi(i);
        break;
      }
      if (t == ";") {
        ++i;
        break;
      }
      if (t == ":" && !in_ctor_init) {
        in_ctor_init = true;
        ++i;
        continue;
      }
      if (in_ctor_init) {
        if (toks[i].kind == TokKind::kIdent || t == "::" || t == "," ||
            toks[i].kind == TokKind::kNumber) {
          ++i;
          continue;
        }
        if (t == "<") {
          i = skip_angles(i);
          continue;
        }
        if (t == "(") {
          i = skip_group(i, '(', ')');
          continue;
        }
        if (t == "{") {
          // Brace init of a member (`a_{x}`) when it directly follows an
          // identifier or template args; otherwise this is the body.
          const std::string& prev = toks[i - 1].text;
          if (toks[i - 1].kind == TokKind::kIdent || prev == ">") {
            i = skip_group(i, '{', '}');
            continue;
          }
          body_open = i;
          break;
        }
        // Anything else inside an init list: bail to the body search.
      }
      if (t == "{") {
        body_open = i;
        break;
      }
      if (toks[i].kind == TokKind::kIdent || t == "::" ||
          toks[i].kind == TokKind::kNumber) {
        ++i;  // trailing return type / unknown macro-ish tokens
        continue;
      }
      if (t == "<") {
        i = skip_angles(i);
        continue;
      }
      if (t == "(") {
        i = skip_group(i, '(', ')');
        continue;
      }
      // Lost in the trailer: end the statement.
      return skip_to_semi(i);
    }

    FunctionRecord fn;
    fn.qualifier = qualifier;
    fn.name = name;
    fn.line = name_line;
    if (body_open < toks.size()) {
      const std::size_t body_end = skip_group(body_open, '{', '}');
      fn.has_body = true;
      fn.body_line = line_at(body_open);
      const std::size_t from = toks[body_open].pos;
      const std::size_t to = body_end < toks.size()
                                 ? toks[body_end - 1].pos + 1
                                 : stripped.size();
      fn.body = stripped.substr(from, to - from);
      extract_calls(body_open + 1, body_end > 0 ? body_end - 1 : body_open,
                    &fn.calls);
      i = body_end;
      if (at(i, ";")) ++i;
    }
    if (record && !name.empty()) {
      if (in_class && name == "persist") {
        out->classes[class_index].declares_persist = true;
        out->classes[class_index].persist_line = name_line;
      }
      out->functions.push_back(std::move(fn));
    }
    return i;
  }

  // --- enums ---------------------------------------------------------------

  std::size_t scan_enum(std::size_t i) {
    ++i;  // `enum`
    if (at(i, "class") || at(i, "struct")) ++i;
    EnumDecl decl;
    if (ident_at(i)) {
      decl.name = toks[i].text;
      decl.line = line_at(i);
      ++i;
    }
    if (at(i, ":")) {  // underlying type
      ++i;
      while (i < toks.size() && !at(i, "{") && !at(i, ";")) ++i;
    }
    if (!at(i, "{")) return skip_to_semi(i);  // opaque-enum declaration
    const std::size_t end = skip_group(i, '{', '}');
    ++i;
    while (i < end - 1) {
      if (ident_at(i)) {
        decl.enumerators.push_back(toks[i].text);
        ++i;
        // Skip an optional `= expr` to the next top-level comma.
        int depth = 0;
        while (i < end - 1) {
          const std::string& t = toks[i].text;
          if (t == "(" || t == "{" || t == "[") ++depth;
          if (t == ")" || t == "}" || t == "]") --depth;
          if (t == "," && depth == 0) {
            ++i;
            break;
          }
          ++i;
        }
      } else {
        ++i;
      }
    }
    out->enums.push_back(std::move(decl));
    i = end;
    if (at(i, ";")) ++i;
    return i;
  }

  // --- classes -------------------------------------------------------------

  std::size_t scan_class(std::size_t i) {
    ++i;  // `class` / `struct` / `union`
    while (at(i, "[")) i = skip_group(i, '[', ']');  // attributes
    if (!ident_at(i)) {
      // Anonymous: parse the body for extent only.
      while (i < toks.size() && !at(i, "{") && !at(i, ";")) ++i;
      if (at(i, "{")) i = skip_group(i, '{', '}');
      return skip_to_semi(i);
    }
    ClassDecl decl;
    decl.name = toks[i].text;
    decl.line = line_at(i);
    ++i;
    while (true) {
      if (at(i, "<")) {  // specialization arguments
        i = skip_angles(i);
        continue;
      }
      if (at(i, "final")) {
        ++i;
        continue;
      }
      break;
    }
    if (at(i, ";")) return i + 1;  // forward declaration
    if (at(i, "::")) return skip_to_semi(i);  // `struct A::B x;` oddity
    if (at(i, ":")) {  // base clause
      ++i;
      while (i < toks.size() && !at(i, "{")) {
        if (at(i, "<")) {
          i = skip_angles(i);
          continue;
        }
        if (at(i, ";")) return i + 1;  // lost; treat as declaration
        ++i;
      }
    }
    if (!at(i, "{")) return skip_to_semi(i);
    const std::size_t end = skip_group(i, '{', '}');
    out->classes.push_back(std::move(decl));
    const int class_index = int(out->classes.size()) - 1;
    ++i;
    while (i < end - 1) {
      i = scan_construct(i, class_index);
    }
    i = end;
    // `} name;` member-of-just-defined-type (rare); consume to the `;`.
    while (i < toks.size() && !at(i, ";") && !at(i, "}")) ++i;
    if (at(i, ";")) ++i;
    return i;
  }

  // --- scope dispatch -------------------------------------------------------

  // `class_index` is the enclosing class's slot in out->classes, or -1 at
  // namespace scope.
  std::size_t scan_construct(std::size_t i, int class_index) {
    const bool in_class = class_index >= 0;
    const Token& tok = toks[i];
    if (tok.kind == TokKind::kPunct) {
      if (tok.text == "#") return skip_preprocessor(i);
      if (tok.text == ";") return i + 1;
      if (tok.text == "[") return skip_group(i, '[', ']');
      if (tok.text == "{") return skip_group(i, '{', '}');
      if (tok.text == "}") return i + 1;  // defensive; caller bounds us
      return scan_statement(i, class_index, /*record=*/true);
    }
    const std::string& t = tok.text;
    if (t == "namespace") {
      ++i;
      while (ident_at(i) || at(i, "::")) ++i;
      if (at(i, "=")) return skip_to_semi(i);  // namespace alias
      if (at(i, "{")) {
        const std::size_t end = skip_group(i, '{', '}');
        ++i;
        while (i < end - 1) {
          i = scan_construct(i, /*class_index=*/-1);
        }
        return end;
      }
      return i;
    }
    if (t == "template") {
      ++i;
      if (at(i, "<")) i = skip_angles(i);
      return i;  // the templated declaration follows and is scanned next
    }
    if (t == "class" || t == "struct" || t == "union") {
      // Elaborated forward declarations and definitions both land here;
      // `struct Foo* p;` style declarators do not occur at decl scope in
      // this codebase.
      return scan_class(i);
    }
    if (t == "enum") return scan_enum(i);
    if (t == "using" || t == "typedef" || t == "static_assert") {
      return skip_to_semi(i);
    }
    if (t == "friend") {
      return scan_statement(i + 1, class_index, /*record=*/false);
    }
    if (in_class &&
        (t == "public" || t == "private" || t == "protected") &&
        at(i + 1, ":")) {
      return i + 2;
    }
    return scan_statement(i, class_index, /*record=*/true);
  }

  void run() {
    std::size_t i = 0;
    while (i < toks.size()) {
      const std::size_t next = scan_construct(i, /*class_index=*/-1);
      i = next > i ? next : i + 1;  // never stall
    }
  }
};

// --- metric sites ---------------------------------------------------------
//
// Works on the code view (comments blanked, strings intact) because the
// names live inside string literals.

// Reads a string literal starting at `i` (which must point at `"`).
// Handles adjacent concatenation. Returns the decoded value and leaves
// `*end` just past the final quote; returns false when not a literal.
bool read_string_literal(const std::string& text, std::size_t i,
                         std::string* value, std::size_t* end) {
  if (i >= text.size() || text[i] != '"') return false;
  value->clear();
  while (i < text.size() && text[i] == '"') {
    ++i;
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\' && i + 1 < text.size()) {
        value->push_back(text[i + 1]);
        i += 2;
      } else {
        value->push_back(text[i]);
        ++i;
      }
    }
    if (i >= text.size()) return false;
    ++i;  // closing quote
    // Adjacent literal?
    std::size_t j = i;
    while (j < text.size() && (text[j] == ' ' || text[j] == '\t' ||
                               text[j] == '\n' || text[j] == '\r')) {
      ++j;
    }
    if (j < text.size() && text[j] == '"') {
      i = j;
    } else {
      break;
    }
  }
  *end = i;
  return true;
}

std::size_t skip_ws(const std::string& text, std::size_t i) {
  while (i < text.size() && (text[i] == ' ' || text[i] == '\t' ||
                             text[i] == '\n' || text[i] == '\r')) {
    ++i;
  }
  return i;
}

// The extent of one call argument: from `i` to the `,` or `)` that ends it
// at depth 0, balancing brackets and skipping string literals.
std::size_t argument_end(const std::string& text, std::size_t i) {
  int depth = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (c == '"') {
      std::string dummy;
      std::size_t end = i;
      if (!read_string_literal(text, i, &dummy, &end)) return text.size();
      i = end;
      continue;
    }
    if (c == '(' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == ']' || c == '}') {
      if (depth == 0) return i;
      --depth;
    }
    if (c == ',' && depth == 0) return i;
    ++i;
  }
  return i;
}

void scan_metric_sites(const std::string& code_view,
                       const std::vector<std::size_t>& starts,
                       FileIndex* out) {
  static const char* kKinds[] = {"counter", "gauge", "histogram"};
  for (const char* kind : kKinds) {
    const std::string token = kind;
    std::size_t pos = 0;
    while ((pos = code_view.find(token, pos)) != std::string::npos) {
      const std::size_t hit = pos;
      pos += token.size();
      const bool left_ok = hit == 0 || !is_ident_char(code_view[hit - 1]);
      if (!left_ok || (pos < code_view.size() && is_ident_char(code_view[pos]))) {
        continue;
      }
      // Must be a member call: `.kind(` or `->kind(`.
      std::size_t before = hit;
      while (before > 0 && (code_view[before - 1] == ' ' ||
                            code_view[before - 1] == '\t')) {
        --before;
      }
      const bool member_dot = before > 0 && code_view[before - 1] == '.';
      const bool member_arrow = before > 1 && code_view[before - 2] == '-' &&
                                code_view[before - 1] == '>';
      if (!member_dot && !member_arrow) continue;
      std::size_t i = skip_ws(code_view, pos);
      if (i >= code_view.size() || code_view[i] != '(') continue;
      i = skip_ws(code_view, i + 1);
      MetricSite site;
      site.kind = token;
      site.line = line_of(starts, hit);
      std::size_t end = 0;
      if (!read_string_literal(code_view, i, &site.component, &end)) {
        continue;  // dynamic component: out of scope for the registry check
      }
      i = skip_ws(code_view, end);
      if (i >= code_view.size() || code_view[i] != ',') continue;
      i = skip_ws(code_view, i + 1);
      const std::size_t arg_end = argument_end(code_view, i);

      // Classify the name argument.
      std::string head;
      std::size_t head_end = 0;
      bool have_head = read_string_literal(code_view, i, &head, &head_end);
      if (!have_head) {
        // `std::string("lit") + ...` wrapper.
        static const std::string kWrap = "std::string";
        if (code_view.compare(i, kWrap.size(), kWrap) == 0) {
          std::size_t j = skip_ws(code_view, i + kWrap.size());
          if (j < code_view.size() && code_view[j] == '(') {
            j = skip_ws(code_view, j + 1);
            std::size_t lit_end = 0;
            if (read_string_literal(code_view, j, &head, &lit_end)) {
              std::size_t k = skip_ws(code_view, lit_end);
              if (k < code_view.size() && code_view[k] == ')') {
                have_head = true;
                head_end = k + 1;
              }
            }
          }
        }
      }
      if (have_head && skip_ws(code_view, head_end) >= arg_end) {
        site.form = MetricNameForm::kExact;
        site.name = head;
        out->metric_sites.push_back(std::move(site));
        continue;
      }
      // Open or dynamic: look for a literal tail `... + "lit"` at the end.
      std::string tail;
      std::size_t scan = i;
      std::size_t last_lit_begin = std::string::npos;
      std::size_t last_lit_end = 0;
      std::string last_lit;
      while (scan < arg_end) {
        if (code_view[scan] == '"') {
          std::string value;
          std::size_t lit_end = 0;
          if (!read_string_literal(code_view, scan, &value, &lit_end)) break;
          last_lit_begin = scan;
          last_lit_end = lit_end;
          last_lit = value;
          scan = lit_end;
          continue;
        }
        if (code_view[scan] == '(' || code_view[scan] == '[' ||
            code_view[scan] == '{') {
          // Balanced skip so literals inside helper calls don't count as
          // the tail.
          int depth = 0;
          while (scan < arg_end) {
            const char c = code_view[scan];
            if (c == '"') {
              std::string dummy;
              std::size_t lit_end = 0;
              if (!read_string_literal(code_view, scan, &dummy, &lit_end)) {
                break;
              }
              scan = lit_end;
              continue;
            }
            if (c == '(' || c == '[' || c == '{') ++depth;
            if (c == ')' || c == ']' || c == '}') {
              if (--depth == 0) {
                ++scan;
                break;
              }
            }
            ++scan;
          }
          continue;
        }
        ++scan;
      }
      if (last_lit_begin != std::string::npos &&
          skip_ws(code_view, last_lit_end) >= arg_end &&
          (!have_head || last_lit_begin >= head_end)) {
        // The argument ends with a literal; require a `+` before it so a
        // lone literal inside parens is not mistaken for a tail.
        std::size_t before_lit = last_lit_begin;
        while (before_lit > i && (code_view[before_lit - 1] == ' ' ||
                                  code_view[before_lit - 1] == '\t' ||
                                  code_view[before_lit - 1] == '\n')) {
          --before_lit;
        }
        if (before_lit > i && code_view[before_lit - 1] == '+') {
          tail = last_lit;
        }
      }
      if (have_head && head_end <= i) have_head = false;
      if (have_head || !tail.empty()) {
        site.form = MetricNameForm::kOpen;
        site.name = have_head ? head : "";
        site.tail = tail;
      } else {
        site.form = MetricNameForm::kDynamic;
      }
      out->metric_sites.push_back(std::move(site));
    }
  }
  std::sort(out->metric_sites.begin(), out->metric_sites.end(),
            [](const MetricSite& a, const MetricSite& b) {
              return a.line < b.line;
            });
}

// --- gw::context annotations ----------------------------------------------

void scan_annotations(const std::string& comment_view,
                      FileIndex* out) {
  std::size_t line_begin = 0;
  int line = 0;
  while (line_begin <= comment_view.size()) {
    ++line;
    std::size_t line_end = comment_view.find('\n', line_begin);
    if (line_end == std::string::npos) line_end = comment_view.size();
    const std::string text =
        comment_view.substr(line_begin, line_end - line_begin);
    const std::size_t slashes = text.find("//");
    if (slashes != std::string::npos) {
      const std::size_t marker = text.find("gw::context", slashes);
      if (marker != std::string::npos) {
        ContextAnnotation ann;
        ann.line = line;
        const std::size_t open = text.find('(', marker);
        const std::size_t close = text.find(')', marker);
        if (open != std::string::npos && close != std::string::npos &&
            close > open) {
          std::string value = text.substr(open + 1, close - open - 1);
          const auto first = value.find_first_not_of(" \t");
          const auto last = value.find_last_not_of(" \t");
          if (first != std::string::npos) {
            value = value.substr(first, last - first + 1);
          } else {
            value.clear();
          }
          ann.value = value;
        }
        out->annotations.push_back(ann);
      }
    }
    if (line_end == comment_view.size()) break;
    line_begin = line_end + 1;
  }
}

// Attaches each annotation to the nearest function whose name line is in
// [ann.line, ann.line + 3] (trailing annotations share the name line).
void attach_annotations(FileIndex* out) {
  for (auto& ann : out->annotations) {
    int best = -1;
    int best_line = 0;
    for (std::size_t f = 0; f < out->functions.size(); ++f) {
      const int line = out->functions[f].line;
      if (line < ann.line || line > ann.line + 3) continue;
      if (best == -1 || line < best_line) {
        best = int(f);
        best_line = line;
      }
    }
    if (best >= 0) {
      ann.attached = true;
      ann.attached_function = best;
      if (out->functions[best].context.empty()) {
        out->functions[best].context = ann.value;
      }
      // A second annotation on the same function stays in the list with its
      // own value; the GW008 pass reports conflicts from there.
    }
  }
}

}  // namespace

FileIndex build_file_index(const std::string& path,
                           const std::string& stripped,
                           const std::string& code_view,
                           const std::string& comment_view) {
  FileIndex index;
  index.path = path;
  Parser parser{stripped, tokenize(stripped), line_starts(stripped), &index};
  parser.run();
  scan_metric_sites(code_view, parser.starts, &index);
  scan_annotations(comment_view, &index);
  attach_annotations(&index);
  return index;
}

}  // namespace gw::lint
