#include "tools/vphi_lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <sstream>

#include "sim/fault.hpp"
#include "sim/trace.hpp"

namespace vphi::tools::lint {

namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// 1-based line number of byte offset `pos` in `text`.
std::size_t line_of(std::string_view text, std::size_t pos) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(), text.begin() + static_cast<long>(pos), '\n'));
}

/// Whether the ' at `pos` separates digits of a number literal (2'500,
/// 0xFF'FF) rather than opening a character literal ('x', u8'x').
bool digit_separator(std::string_view text, std::size_t pos) {
  std::size_t start = pos;
  while (start > 0 && (std::isalnum(static_cast<unsigned char>(
                           text[start - 1])) != 0 ||
                       text[start - 1] == '\'' || text[start - 1] == '.')) {
    --start;
  }
  return start < pos &&
         std::isdigit(static_cast<unsigned char>(text[start])) != 0;
}

bool metric_name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '.' ||
         c == '_';
}

/// Extract `vphi.*` metric-name tokens from one string literal body. A
/// token ending in '.' is a prefix (the rest of the name is concatenated
/// at runtime, e.g. "vphi.fe.op." + op + ".errors").
std::vector<std::string> metric_tokens(std::string_view literal) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while ((pos = literal.find("vphi.", pos)) != std::string_view::npos) {
    std::size_t end = pos;
    while (end < literal.size() && metric_name_char(literal[end])) ++end;
    out.emplace_back(literal.substr(pos, end - pos));
    pos = end;
  }
  return out;
}

}  // namespace

LexedFile lex(std::string_view source) {
  LexedFile out;
  out.code.reserve(source.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  std::string current;
  for (std::size_t i = 0; i < source.size(); ++i) {
    const char c = source[i];
    const char next = i + 1 < source.size() ? source[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out.code += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out.code += "  ";
          ++i;
        } else if (c == '"' && i > 0 && source[i - 1] == 'R' &&
                   (i == 1 || !std::isalnum(static_cast<unsigned char>(
                                  source[i - 2])))) {
          // Raw string R"d(...)d": no escapes, ends only at )d".
          const std::size_t open = source.find('(', i);
          if (open == std::string_view::npos) {
            out.code += c;
            break;
          }
          const std::string close =
              ")" + std::string(source.substr(i + 1, open - i - 1)) + '"';
          const std::size_t end =
              std::min(source.find(close, open), source.size());
          out.strings.emplace_back(source.substr(open + 1, end - open - 1));
          out.code += '"';
          const std::size_t last =
              std::min(end + close.size(), source.size()) - 1;
          for (std::size_t k = i + 1; k < last; ++k) {
            out.code += source[k] == '\n' ? '\n' : ' ';
          }
          if (last > i) out.code += '"';
          i = last;
        } else if (c == '"') {
          state = State::kString;
          current.clear();
          out.code += '"';
        } else if (c == '\'' && !digit_separator(source, i)) {
          state = State::kChar;
          out.code += '\'';
        } else {
          out.code += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out.code += '\n';
        } else {
          out.code += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out.code += "  ";
          ++i;
        } else {
          out.code += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0') {
          current += c;
          current += next;
          out.code += "  ";
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          out.strings.push_back(current);
          out.code += '"';
        } else {
          current += c;
          out.code += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          out.code += "  ";
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          out.code += '\'';
        } else {
          out.code += c == '\n' ? '\n' : ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<Finding> check_metric_catalogue(
    const Corpus& src, std::string_view observability_md) {
  std::vector<Finding> findings;

  // Source side: complete names and prefix literals, with one origin each
  // for error messages.
  std::set<std::string> src_names, src_prefixes;
  std::map<std::string, std::string> origin;
  for (const auto& [path, contents] : src) {
    for (const auto& literal : lex(contents).strings) {
      for (const auto& token : metric_tokens(literal)) {
        if (token == "vphi.") continue;  // bare scheme mention, not a name
        if (token.back() == '.') {
          src_prefixes.insert(token);
        } else {
          src_names.insert(token);
        }
        origin.emplace(token, path);
      }
    }
  }

  // Doc side: every backtick-quoted vphi.* token. `<op>`-style segments
  // mark parameterized families; a trailing '.' (from `vphi.fe.*`) marks
  // a prose wildcard, not a catalogue entry.
  std::set<std::string> doc_names;        // exact catalogued names
  std::set<std::string> doc_param_names;  // with <...> placeholders
  static const std::regex doc_token_re("`(vphi\\.[A-Za-z0-9_.<>{}=]+)`?");
  const std::string docs{observability_md};
  for (auto it = std::sregex_iterator(docs.begin(), docs.end(), doc_token_re);
       it != std::sregex_iterator(); ++it) {
    std::string name = (*it)[1].str();
    if (auto brace = name.find('{'); brace != std::string::npos) {
      name.resize(brace);  // drop the {vm=...} label suffix
    }
    if (name.empty() || name.back() == '.') continue;
    if (name.find('<') != std::string::npos) {
      doc_param_names.insert(name);
    } else {
      doc_names.insert(name);
    }
  }

  // src -> docs: every registered name must be catalogued.
  for (const auto& name : src_names) {
    if (doc_names.count(name) != 0) continue;
    // A concatenation suffix of a parameterized family would not reach
    // here (suffixes don't start with "vphi."), so an exact miss is real.
    findings.push_back({"metric-catalogue", origin[name],
                        "metric '" + name +
                            "' is registered in src/ but missing from the "
                            "docs/OBSERVABILITY.md catalogue"});
  }
  for (const auto& prefix : src_prefixes) {
    const bool covered =
        std::any_of(doc_param_names.begin(), doc_param_names.end(),
                    [&](const std::string& d) { return d.rfind(prefix, 0) == 0; });
    if (!covered) {
      findings.push_back(
          {"metric-catalogue", origin[prefix],
           "metric family prefix '" + prefix +
               "' has no parameterized docs/OBSERVABILITY.md entry "
               "('" + prefix + "<...>')"});
    }
  }

  // docs -> src: every catalogued name must trace back to a literal.
  for (const auto& name : doc_names) {
    if (src_names.count(name) != 0) continue;
    findings.push_back({"metric-catalogue", "docs/OBSERVABILITY.md",
                        "catalogued metric '" + name +
                            "' does not appear in any src/ string literal "
                            "(stale docs?)"});
  }
  for (const auto& name : doc_param_names) {
    const std::string prefix = name.substr(0, name.find('<'));
    const bool covered =
        src_prefixes.count(prefix) != 0 ||
        std::any_of(src_prefixes.begin(), src_prefixes.end(),
                    [&](const std::string& p) { return prefix.rfind(p, 0) == 0; });
    if (!covered) {
      findings.push_back({"metric-catalogue", "docs/OBSERVABILITY.md",
                          "parameterized metric '" + name +
                              "' has no matching prefix literal in src/"});
    }
  }
  return findings;
}

std::vector<Finding> check_fault_sites(std::string_view observability_md) {
  std::vector<Finding> findings;
  std::set<std::string> seen;
  for (int i = 0; i < sim::kNumFaultSites; ++i) {
    const std::string name =
        sim::fault_site_name(static_cast<sim::FaultSite>(i));
    if (!seen.insert(name).second) {
      findings.push_back({"fault-sites", "src/sim/fault.cpp",
                          "duplicate fault-site name '" + name + "'"});
    }
    if (observability_md.find("`" + name + "`") == std::string_view::npos) {
      findings.push_back({"fault-sites", "docs/OBSERVABILITY.md",
                          "fault site '" + name +
                              "' is not documented in the fault-injector "
                              "section"});
    }
  }
  return findings;
}

std::vector<Finding> check_span_events(std::string_view design_md) {
  std::vector<Finding> findings;
  std::set<std::string> seen;
  const int num_events = static_cast<int>(sim::SpanEvent::kNumEvents);
  for (int i = 0; i < num_events; ++i) {
    const std::string name =
        sim::span_event_name(static_cast<sim::SpanEvent>(i));
    if (!seen.insert(name).second) {
      findings.push_back({"span-events", "src/sim/trace.cpp",
                          "duplicate span-event name '" + name + "'"});
    }
    if (design_md.find("`" + name + "`") == std::string_view::npos) {
      findings.push_back({"span-events", "DESIGN.md",
                          "span event '" + name +
                              "' is missing from the section-10 hop list"});
    }
  }
  return findings;
}

std::vector<Finding> check_ring_allocations(const Corpus& src) {
  std::vector<Finding> findings;
  static const std::regex alloc_re(
      "(^|[^A-Za-z0-9_])(new|malloc|calloc|realloc)\\b");
  for (const auto& [path, contents] : src) {
    // The whole virtio layer is ring hot path: the split ring itself plus
    // the per-queue Virtqueue front (multi-queue adds one per vCPU, so any
    // allocation here multiplies by queue count on every request). The
    // fleet engine's per-arrival traffic draws are hot path the same way:
    // an allocation there multiplies by fleet size times arrival rate.
    const bool hot = path.find("src/virtio/") != std::string::npos ||
                     path.find("src/sim/traffic") != std::string::npos;
    if (!hot) continue;
    const LexedFile lexed = lex(contents);
    for (auto it = std::sregex_iterator(lexed.code.begin(), lexed.code.end(),
                                        alloc_re);
         it != std::sregex_iterator(); ++it) {
      const auto pos = static_cast<std::size_t>(it->position(2));
      findings.push_back(
          {"ring-allocations", path + ":" + std::to_string(line_of(lexed.code, pos)),
           std::string("'").append((*it)[2].str()).append(
               "' in a ring hot path — descriptor traffic must stay "
               "allocation-free")});
    }
  }
  return findings;
}

std::vector<Finding> check_stray_output(const Corpus& src) {
  std::vector<Finding> findings;
  // fprintf/snprintf/sprintf do not match: only bare printf( and
  // std::printf( reach stdout unannounced.
  static const std::regex out_re(
      "(std\\s*::\\s*cout)|((^|[^A-Za-z0-9_:])(std\\s*::\\s*)?printf\\s*\\()");
  for (const auto& [path, contents] : src) {
    if (path.rfind("src/tools/", 0) == 0) continue;
    const LexedFile lexed = lex(contents);
    for (auto it = std::sregex_iterator(lexed.code.begin(), lexed.code.end(),
                                        out_re);
         it != std::sregex_iterator(); ++it) {
      const auto pos = static_cast<std::size_t>(it->position(0));
      findings.push_back(
          {"stray-output", path + ":" + std::to_string(line_of(lexed.code, pos)),
           "direct stdout write outside src/tools — use the logger, "
           "metrics or flight recorder"});
    }
  }
  return findings;
}

std::vector<Finding> check_config_knobs(const Corpus& src,
                                        const Corpus& cmake,
                                        const Corpus& docs) {
  std::vector<Finding> findings;
  static const std::regex knob_re("VPHI_[A-Z0-9_]+");
  static const std::regex option_re("option\\s*\\(\\s*(VPHI_[A-Z0-9_]+)");
  static const std::regex doc_knob_re("`(VPHI_[A-Z0-9_]+)");

  const auto is_knob = [](const std::string& t) {
    // "VPHI_" alone is a scheme mention; a trailing '_' marks a family
    // ("VPHI_TENANT_*"), not one knob.
    return t.size() > 5 && t.back() != '_';
  };

  // Strict set: knobs the code actually consumes, each with one origin.
  std::set<std::string> code_knobs;
  std::map<std::string, std::string> origin;
  // Lenient set: every VPHI_ token anywhere in code (string literals AND
  // identifiers), so documented annotation macros resolve as "in code".
  std::set<std::string> code_mentions;

  for (const auto& [path, contents] : src) {
    const LexedFile lexed = lex(contents);
    for (const auto& literal : lexed.strings) {
      for (auto it = std::sregex_iterator(literal.begin(), literal.end(),
                                          knob_re);
           it != std::sregex_iterator(); ++it) {
        const std::string token = it->str();
        code_mentions.insert(token);
        if (!is_knob(token)) continue;
        code_knobs.insert(token);
        origin.emplace(token, path);
      }
    }
    for (auto it = std::sregex_iterator(lexed.code.begin(), lexed.code.end(),
                                        knob_re);
         it != std::sregex_iterator(); ++it) {
      code_mentions.insert(it->str());
    }
  }
  for (const auto& [path, contents] : cmake) {
    for (auto it =
             std::sregex_iterator(contents.begin(), contents.end(), knob_re);
         it != std::sregex_iterator(); ++it) {
      code_mentions.insert(it->str());
    }
    for (auto it = std::sregex_iterator(contents.begin(), contents.end(),
                                        option_re);
         it != std::sregex_iterator(); ++it) {
      const std::string token = (*it)[1].str();
      if (!is_knob(token)) continue;
      code_knobs.insert(token);
      origin.emplace(token, path);
    }
  }

  std::set<std::string> doc_knobs;
  std::map<std::string, std::string> doc_origin;
  for (const auto& [path, contents] : docs) {
    for (auto it = std::sregex_iterator(contents.begin(), contents.end(),
                                        doc_knob_re);
         it != std::sregex_iterator(); ++it) {
      const std::string token = (*it)[1].str();
      if (!is_knob(token)) continue;
      doc_knobs.insert(token);
      doc_origin.emplace(token, path);
    }
  }

  for (const auto& knob : code_knobs) {
    if (doc_knobs.count(knob) != 0) continue;
    findings.push_back({"config-knobs", origin[knob],
                        "config knob '" + knob +
                            "' is read by the code but documented nowhere "
                            "in README/DESIGN/EXPERIMENTS/docs"});
  }
  for (const auto& knob : doc_knobs) {
    if (code_mentions.count(knob) != 0) continue;
    findings.push_back({"config-knobs", doc_origin[knob],
                        "documented knob '" + knob +
                            "' no longer appears anywhere in src/ or CMake "
                            "(stale docs?)"});
  }
  return findings;
}

std::vector<Finding> check_real_time(const Corpus& code) {
  std::vector<Finding> findings;
  static const std::set<std::string> allowed = {"src/sim/engine.cpp",
                                                "src/scif/fabric.cpp"};
  static const std::regex clock_re(
      "\\b(sleep_for|sleep_until|steady_clock|system_clock|"
      "high_resolution_clock|wait_until)\\b");
  for (const auto& [path, contents] : code) {
    if (allowed.count(path) != 0) continue;
    const LexedFile lexed = lex(contents);
    for (auto it = std::sregex_iterator(lexed.code.begin(), lexed.code.end(),
                                        clock_re);
         it != std::sregex_iterator(); ++it) {
      const auto pos = static_cast<std::size_t>(it->position(0));
      findings.push_back(
          {"real-time", path + ":" + std::to_string(line_of(lexed.code, pos)),
           std::string("'").append(it->str()).append(
               "' reads or waits on the host clock — simulated outcomes "
               "and correctness tests must not depend on wall time")});
    }
  }
  return findings;
}

namespace {

struct Token {
  std::string_view text;
  std::size_t pos;  ///< offset in the lexed code
  bool directive;   ///< on a preprocessor line
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_ident(std::string_view t) {
  return !t.empty() && (std::isalpha(static_cast<unsigned char>(t[0])) != 0 ||
                        t[0] == '_');
}

/// Identifier and punctuation tokens of lexed code, `::` as one token.
/// Number literals are dropped.
std::vector<Token> tokenize(std::string_view code) {
  std::vector<Token> out;
  bool directive = false;
  bool line_start = true;
  for (std::size_t i = 0; i < code.size();) {
    const char c = code[i];
    if (c == '\n') {
      // A directive runs on past a backslash-newline.
      directive = directive && i > 0 && code[i - 1] == '\\';
      line_start = true;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    directive = directive || (line_start && c == '#');
    line_start = false;
    std::size_t j = i + 1;
    if (ident_char(c)) {
      const bool number = std::isdigit(static_cast<unsigned char>(c)) != 0;
      while (j < code.size() &&
             (ident_char(code[j]) ||
              (number && (code[j] == '\'' || code[j] == '.')))) {
        ++j;
      }
      if (number) {
        i = j;
        continue;
      }
    } else if (c == ':' && j < code.size() && code[j] == ':') {
      ++j;
    }
    out.push_back({code.substr(i, j - i), i, directive});
    i = j;
  }
  return out;
}

/// Words that can stand before '(' in a class-scope declaration without
/// naming a member function.
bool declaration_keyword(std::string_view t) {
  static const std::set<std::string_view> words = {
      "alignas",  "alignof", "decltype",      "explicit", "noexcept",
      "requires", "sizeof",  "static_assert", "throw",    "void",
      "bool",     "char",    "int",           "long",     "short",
      "unsigned", "signed",  "float",         "double",   "auto"};
  return words.count(t) != 0;
}

/// An all-caps name is a macro (VPHI_GUARDED_BY(mu_)), not a member.
bool macro_name(std::string_view t) {
  return std::none_of(t.begin(), t.end(), [](char c) {
    return std::islower(static_cast<unsigned char>(c)) != 0;
  });
}

struct MemberDecl {
  std::string name;
  std::string qualified;  ///< Class::name
  std::size_t pos;        ///< offset of the name in the lexed header
  bool own_body;          ///< no out-of-line definition to expect
};

/// The member function a statement in the body of `cls` declares, if any:
/// the first identifier directly before '(' outside parentheses, brackets
/// and template arguments, ahead of any '='. `body` says the statement
/// ends in '{'. Constructors, destructors, operators, friends, aliases and
/// macros declare none.
std::optional<MemberDecl> declared_member(
    const std::vector<const Token*>& stmt, std::string_view cls, bool body) {
  int parens = 0;
  int angles = 0;
  int brackets = 0;
  const Token* found = nullptr;
  for (std::size_t k = 0; k < stmt.size(); ++k) {
    const std::string_view t = stmt[k]->text;
    if (t == "friend" || t == "operator" || t == "using" || t == "typedef") {
      return std::nullopt;
    }
    const bool top = parens == 0 && angles == 0 && brackets == 0;
    if (t == "=" && top) {
      if (found == nullptr) return std::nullopt;  // a data member
      body = true;  // = 0, = default, = delete: nothing defined out of line
      break;
    }
    if (t == "(") {
      const std::string_view name = k > 0 ? stmt[k - 1]->text : "";
      const std::string_view next =
          k + 1 < stmt.size() ? stmt[k + 1]->text : "";
      // A macro's or keyword's argument list, or the parenthesized
      // declarator of a function-pointer member, names no member.
      if (top && found == nullptr && is_ident(name) &&
          !declaration_keyword(name) && !macro_name(name) && next != "*" &&
          next != "&") {
        if (name == cls) return std::nullopt;  // constructor or destructor
        found = stmt[k - 1];
      }
    }
    parens += t == "(" ? 1 : t == ")" ? -1 : 0;
    brackets += t == "[" ? 1 : t == "]" ? -1 : 0;
    if (parens == 0) angles += t == "<" ? 1 : t == ">" && angles > 0 ? -1 : 0;
  }
  if (found == nullptr) return std::nullopt;
  std::string name{found->text};
  std::string qualified = std::string(cls).append("::").append(name);
  return MemberDecl{std::move(name), std::move(qualified), found->pos, body};
}

/// The class a statement ending in '{' opens, or "" for a namespace,
/// function body, enum or initializer.
std::string_view opened_class(const std::vector<const Token*>& stmt) {
  int angles = 0;
  for (std::size_t k = 0; k < stmt.size(); ++k) {
    const std::string_view t = stmt[k]->text;
    angles += t == "<" ? 1 : t == ">" && angles > 0 ? -1 : 0;
    if (t == "(" || t == "=" || t == "enum") return "";
    if (angles > 0 || (t != "class" && t != "struct" && t != "union")) {
      continue;
    }
    // The name: the first word after the keyword outside an attribute, a
    // macro call or alignas(...).
    int nest = 0;
    for (std::size_t n = k + 1; n < stmt.size(); ++n) {
      const std::string_view w = stmt[n]->text;
      nest += w == "(" || w == "[" ? 1 : w == ")" || w == "]" ? -1 : 0;
      if (nest == 0 && is_ident(w) && !macro_name(w) && w != "alignas") {
        return w;
      }
    }
    return "";
  }
  return "";
}

/// Member functions declared in one header's class bodies.
std::vector<MemberDecl> member_decls(std::string_view code) {
  std::vector<std::string_view> scopes;  // per open brace; "" if no class
  std::vector<MemberDecl> out;
  std::vector<const Token*> stmt;
  const std::vector<Token> tokens = tokenize(code);
  const auto record = [&](bool body) {
    if (scopes.empty() || scopes.back().empty()) return;
    if (auto d = declared_member(stmt, scopes.back(), body)) {
      out.push_back(std::move(*d));
    }
  };
  for (const Token& token : tokens) {
    if (token.directive) continue;
    if (token.text == "{") {
      const std::string_view cls = opened_class(stmt);
      if (cls.empty()) record(true);
      scopes.push_back(cls);
      stmt.clear();
    } else if (token.text == "}") {
      if (!scopes.empty()) scopes.pop_back();
      stmt.clear();
    } else if (token.text == ";") {
      record(false);
      stmt.clear();
    } else if (token.text == ":" && stmt.size() == 1 &&
               (stmt[0]->text == "public" || stmt[0]->text == "private" ||
                stmt[0]->text == "protected")) {
      stmt.clear();  // access label
    } else {
      stmt.push_back(&token);
    }
  }
  return out;
}

}  // namespace

std::vector<Finding> check_uncalled_members(const Corpus& code) {
  // Names rule 8 keeps although only their declaration and definition
  // name them, each with the reason.
  static const std::map<std::string, std::string> allowed = {};

  struct Decl {
    std::size_t file;  ///< index into `code`
    MemberDecl member;
  };
  std::vector<Decl> decls;
  struct Count {
    std::size_t expected = 0;  ///< its declarations and definitions
    std::size_t seen = 0;      ///< its tokens in all of `code`
  };
  std::map<std::string, Count, std::less<>> counts;
  std::vector<std::string> lexed;
  lexed.reserve(code.size());
  for (const auto& [path, contents] : code) {
    lexed.push_back(lex(contents).code);
    const bool header = path.rfind("src/", 0) == 0 && path.size() > 4 &&
                        path.compare(path.size() - 4, 4, ".hpp") == 0;
    if (!header) continue;
    for (MemberDecl& d : member_decls(lexed.back())) {
      counts[d.name].expected += d.own_body ? 1 : 2;
      decls.push_back({lexed.size() - 1, std::move(d)});
    }
  }
  for (const std::string& text : lexed) {
    for (const Token& t : tokenize(text)) {
      if (auto it = counts.find(t.text); it != counts.end()) ++it->second.seen;
    }
  }

  std::vector<Finding> findings;
  for (const auto& [file, d] : decls) {
    const Count& c = counts[d.name];
    if (c.seen > c.expected) continue;
    if (allowed.count(d.qualified) != 0) continue;
    findings.push_back(
        {"uncalled-members",
         code[file].first + ":" + std::to_string(line_of(lexed[file], d.pos)),
         "member function '" + d.qualified +
             "' is named only where it is declared and defined across "
             "src/, tests/, bench/ and examples/ — call it or delete it"});
  }
  return findings;
}

std::vector<Finding> run_all(const std::string& repo_root) {
  const fs::path root{repo_root};
  std::error_code ec;
  if (!fs::is_directory(root / "src", ec)) {
    return {{"corpus", repo_root, "no src/ directory here"}};
  }
  const auto load_sources = [&root, &ec](const char* dir) {
    Corpus out;
    if (!fs::is_directory(root / dir, ec)) return out;
    for (auto& entry : fs::recursive_directory_iterator(root / dir)) {
      if (!entry.is_regular_file()) continue;
      const auto ext = entry.path().extension().string();
      if (ext != ".hpp" && ext != ".cpp") continue;
      out.emplace_back(fs::relative(entry.path(), root).generic_string(),
                       read_file(entry.path()));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const Corpus src = load_sources("src");

  const std::string observability = read_file(root / "docs/OBSERVABILITY.md");
  const std::string design = read_file(root / "DESIGN.md");

  Corpus cmake;
  for (const char* rel :
       {"CMakeLists.txt", "src/CMakeLists.txt", "tests/CMakeLists.txt",
        "bench/CMakeLists.txt"}) {
    if (fs::is_regular_file(root / rel, ec)) {
      cmake.emplace_back(rel, read_file(root / rel));
    }
  }
  if (fs::is_directory(root / "cmake", ec)) {
    for (auto& entry : fs::directory_iterator(root / "cmake")) {
      if (!entry.is_regular_file()) continue;
      if (entry.path().extension() != ".cmake") continue;
      cmake.emplace_back(fs::relative(entry.path(), root).generic_string(),
                         read_file(entry.path()));
    }
  }
  std::sort(cmake.begin(), cmake.end());

  Corpus doc_corpus;
  for (const char* rel : {"README.md", "DESIGN.md", "EXPERIMENTS.md"}) {
    if (fs::is_regular_file(root / rel, ec)) {
      doc_corpus.emplace_back(rel, read_file(root / rel));
    }
  }
  if (fs::is_directory(root / "docs", ec)) {
    for (auto& entry : fs::directory_iterator(root / "docs")) {
      if (!entry.is_regular_file()) continue;
      if (entry.path().extension() != ".md") continue;
      doc_corpus.emplace_back(
          fs::relative(entry.path(), root).generic_string(),
          read_file(entry.path()));
    }
  }
  std::sort(doc_corpus.begin(), doc_corpus.end());

  std::vector<Finding> findings;
  auto absorb = [&findings](std::vector<Finding> f) {
    findings.insert(findings.end(), std::make_move_iterator(f.begin()),
                    std::make_move_iterator(f.end()));
  };
  if (src.empty()) {
    findings.push_back({"corpus", repo_root, "no sources found under src/"});
  }
  if (observability.empty()) {
    findings.push_back(
        {"corpus", repo_root, "docs/OBSERVABILITY.md missing or empty"});
  }
  if (design.empty()) {
    findings.push_back({"corpus", repo_root, "DESIGN.md missing or empty"});
  }
  if (!findings.empty()) return findings;

  absorb(check_metric_catalogue(src, observability));
  absorb(check_fault_sites(observability));
  absorb(check_span_events(design));
  absorb(check_ring_allocations(src));
  absorb(check_stray_output(src));
  absorb(check_config_knobs(src, cmake, doc_corpus));
  const Corpus tests = load_sources("tests");
  absorb(check_real_time(src));
  absorb(check_real_time(tests));
  Corpus callers = src;
  for (const char* dir : {"bench", "examples"}) {
    Corpus more = load_sources(dir);
    callers.insert(callers.end(), std::make_move_iterator(more.begin()),
                   std::make_move_iterator(more.end()));
  }
  callers.insert(callers.end(), tests.begin(), tests.end());
  absorb(check_uncalled_members(callers));
  return findings;
}

}  // namespace vphi::tools::lint
