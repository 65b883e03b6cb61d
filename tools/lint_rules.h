// lint_rules — the text-analysis core of tools/dstore_lint.cc, split out so
// tests/lint_test.cc can unit-test the rules against inline source strings
// (the driver binary only ever sees whole translation units via
// compile_commands.json, which makes negative tests awkward).
//
// Everything here is pure functions over source text: no filesystem access
// except read_file(), no globals, violations returned through an out-param.
// Header-only on purpose — the linter is a single-TU tool and the test links
// nothing but this.
#ifndef DSTORE_TOOLS_LINT_RULES_H_
#define DSTORE_TOOLS_LINT_RULES_H_

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace dstore {
namespace lint {

struct Violation {
  std::string file;
  size_t line;
  std::string check;
  std::string message;
};

inline std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Minimal extraction of every "file" entry from a compilation database.
// compile_commands.json is machine-generated with a fixed shape, so a
// string scan is sufficient — no JSON dependency.
inline std::vector<std::string> compdb_files(const std::string& json) {
  std::vector<std::string> files;
  const std::string key = "\"file\"";
  size_t pos = 0;
  while ((pos = json.find(key, pos)) != std::string::npos) {
    pos += key.size();
    size_t q1 = json.find('"', pos);
    if (q1 == std::string::npos) break;
    size_t q2 = json.find('"', q1 + 1);
    if (q2 == std::string::npos) break;
    files.push_back(json.substr(q1 + 1, q2 - q1 - 1));
    pos = q2 + 1;
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

// Strip comments and string/char literals, preserving line structure so
// diagnostics keep real line numbers. String literal CONTENTS are replaced
// by spaces but kept between their quotes; a separate pass reads literals.
inline std::string strip_comments_and_strings(const std::string& src) {
  std::string out = src;
  enum { kCode, kLine, kBlock, kStr, kChar } st = kCode;
  for (size_t i = 0; i < src.size(); i++) {
    char c = src[i];
    char n = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (st) {
      case kCode:
        if (c == '/' && n == '/') { st = kLine; out[i] = ' '; }
        else if (c == '/' && n == '*') { st = kBlock; out[i] = ' '; }
        else if (c == '"') { st = kStr; }
        else if (c == '\'') { st = kChar; }
        break;
      case kLine:
        if (c == '\n') st = kCode; else out[i] = ' ';
        break;
      case kBlock:
        if (c == '*' && n == '/') { st = kCode; out[i] = ' '; out[i + 1] = ' '; i++; }
        else if (c != '\n') out[i] = ' ';
        break;
      case kStr:
        if (c == '\\') { out[i] = ' '; if (n != '\n') { out[i + 1] = ' '; i++; } }
        else if (c == '"') st = kCode;
        else if (c != '\n') out[i] = ' ';
        break;
      case kChar:
        if (c == '\\') { out[i] = ' '; if (n != '\n') { out[i + 1] = ' '; i++; } }
        else if (c == '\'') st = kCode;
        else if (c != '\n') out[i] = ' ';
        break;
    }
  }
  return out;
}

inline size_t line_of(const std::string& src, size_t pos) {
  return 1 + (size_t)std::count(src.begin(), src.begin() + (long)pos, '\n');
}

inline bool ident_boundary(const std::string& s, size_t pos, size_t len) {
  auto word = [](char c) { return std::isalnum((unsigned char)c) || c == '_' || c == ':'; };
  bool left_ok = pos == 0 || !word(s[pos - 1]);
  bool right_ok = pos + len >= s.size() || !word(s[pos + len]);
  return left_ok && right_ok;
}

// Find each occurrence of `token` as a whole identifier in stripped code.
inline std::vector<size_t> find_token(const std::string& code, const std::string& token) {
  std::vector<size_t> hits;
  size_t pos = 0;
  while ((pos = code.find(token, pos)) != std::string::npos) {
    if (ident_boundary(code, pos, token.size())) hits.push_back(pos);
    pos += token.size();
  }
  return hits;
}

// The first string literal that starts at or after `from` in the ORIGINAL
// source, returned without quotes; empty if none before `limit`.
inline std::string next_string_literal(const std::string& src, size_t from, size_t limit) {
  size_t q1 = src.find('"', from);
  if (q1 == std::string::npos || q1 >= limit) return "";
  size_t q2 = q1 + 1;
  while (q2 < src.size() && src[q2] != '"') {
    if (src[q2] == '\\') q2++;
    q2++;
  }
  if (q2 >= src.size()) return "";
  return src.substr(q1 + 1, q2 - q1 - 1);
}

inline bool metric_name_shape(const std::string& s) {
  if (s.empty() || !std::islower((unsigned char)s[0])) return false;
  if (s.find('_') == std::string::npos) return false;
  for (char c : s) {
    if (!std::islower((unsigned char)c) && !std::isdigit((unsigned char)c) && c != '_') {
      return false;
    }
  }
  return true;
}

// known_metrics.names from tools/metrics_schema.json (same hand-rolled
// scan: find the "known_metrics" object, then collect its quoted strings).
inline std::set<std::string> load_known_metrics(const std::string& schema_json,
                                                bool* found_section) {
  std::set<std::string> names;
  size_t sec = schema_json.find("\"known_metrics\"");
  *found_section = sec != std::string::npos;
  if (!*found_section) return names;
  size_t open = schema_json.find('[', sec);
  size_t close = schema_json.find(']', open);
  if (open == std::string::npos || close == std::string::npos) return names;
  size_t pos = open;
  for (;;) {
    size_t q1 = schema_json.find('"', pos);
    if (q1 == std::string::npos || q1 >= close) break;
    size_t q2 = schema_json.find('"', q1 + 1);
    if (q2 == std::string::npos) break;
    names.insert(schema_json.substr(q1 + 1, q2 - q1 - 1));
    pos = q2 + 1;
  }
  return names;
}

// True when the ORIGINAL source carries `tag` in a comment on the same line
// as `pos` or on the line above it — the standard escape-hatch placement
// shared by the status-discard and raw-persist rules.
inline bool annotated(const std::string& src, size_t pos, const std::string& tag) {
  size_t bol = src.rfind('\n', pos);
  bol = bol == std::string::npos ? 0 : bol + 1;
  size_t prev_bol = bol >= 2 ? src.rfind('\n', bol - 2) : std::string::npos;
  prev_bol = prev_bol == std::string::npos ? 0 : prev_bol + 1;
  size_t eol = src.find('\n', pos);
  eol = eol == std::string::npos ? src.size() : eol;
  return src.substr(prev_bol, eol - prev_bol).find(tag) != std::string::npos;
}

// ---- check: raw persistence primitives on the hot paths ------------------
//
// DESIGN.md §13: hot-path PMEM ordering flows through pmem::PersistBatch
// (one flush train, ONE fence at commit). A bare pool->persist()/flush()/
// fence() in a hot-path file reintroduces a per-line fence and silently regresses the budgets pinned by
// tests/persist_budget_test.cc. persist_bulk is exempt: it is the sanctioned
// bulk-pass primitive (checkpoint passes, physical log payloads) and charges
// the global stats, not the per-op fence budget.
//
// Escape hatch: `// lint: allow-raw-persist <reason>` on the same or the
// previous line, for the cold spots inside hot-path files (recovery, root
// state installation) where an individual ordering point is the protocol.

// Files on the put/get/delete path whose persistence must be batched.
inline const std::vector<std::string>& raw_persist_hot_files() {
  static const std::vector<std::string> files = {
      "src/dipper/log.cc",
      "src/dipper/engine.cc",
      "src/ds/metadata_zone.cc",
      "src/dstore/dstore.cc",
  };
  return files;
}

inline bool is_raw_persist_hot_file(const std::string& rel) {
  const auto& files = raw_persist_hot_files();
  return std::find(files.begin(), files.end(), rel) != files.end();
}

// Member-call spellings of the raw primitives. persist_bulk is NOT listed.
inline const std::vector<std::string>& raw_persist_tokens() {
  static const std::vector<std::string> toks = {
      "persist", "flush", "fence",
  };
  return toks;
}

inline void check_raw_persist(const std::string& rel, const std::string& src,
                              const std::string& code,
                              std::vector<Violation>* out) {
  if (!is_raw_persist_hot_file(rel)) return;
  for (const std::string& tok : raw_persist_tokens()) {
    for (size_t pos : find_token(code, tok)) {
      // Must be a member call: `->token(` or `.token(`. Free functions and
      // declarations (PersistBatch's own methods, locals named `fence`) are
      // not the raw primitives.
      bool member = (pos >= 2 && code[pos - 2] == '-' && code[pos - 1] == '>') ||
                    (pos >= 1 && code[pos - 1] == '.');
      if (!member) continue;
      size_t after = pos + tok.size();
      while (after < code.size() && std::isspace((unsigned char)code[after])) after++;
      if (after >= code.size() || code[after] != '(') continue;
      if (annotated(src, pos, "lint: allow-raw-persist")) continue;
      out->push_back({rel, line_of(code, pos), "raw-persist",
                      "raw " + tok +
                          "() on a hot-path file — route per-op persistence "
                          "through pmem::PersistBatch (one fence at commit) or "
                          "annotate `// lint: allow-raw-persist <reason>`"});
    }
  }
}

// ---- check: environment reads in the library --------------------------
//
// The library's behaviour is chosen by its configuration and by what it
// observes, never by an environment variable: a getenv() in src/ is a code
// path selected outside every config, fingerprint and test matrix. Tools,
// benches and tests may read the environment; src/ may only where the
// variable names a deployment fact (an address), annotated
// `// lint: allow-getenv <reason>` on the same or the previous line.

inline void check_getenv(const std::string& rel, const std::string& src,
                         const std::string& code, std::vector<Violation>* out) {
  if (rel.rfind("src/", 0) != 0) return;
  for (size_t pos = 0; (pos = code.find("getenv", pos)) != std::string::npos; pos += 6) {
    // `getenv`, `std::getenv` and `::getenv` all count; `secure_getenv` and
    // `my_getenv` do not (a ':' on the left is a qualifier, not a name).
    bool left_ok = pos == 0 || (!std::isalnum((unsigned char)code[pos - 1]) &&
                                code[pos - 1] != '_');
    bool right_ok = pos + 6 >= code.size() ||
                    (!std::isalnum((unsigned char)code[pos + 6]) && code[pos + 6] != '_');
    if (!left_ok || !right_ok) continue;
    if (annotated(src, pos, "lint: allow-getenv")) continue;
    out->push_back({rel, line_of(code, pos), "getenv",
                    "getenv() in src/ selects behaviour outside the config — take "
                    "it as a config field, or annotate `// lint: allow-getenv "
                    "<reason>` for a deployment fact"});
  }
}

// ---- check: hand-written status-code literals --------------------------
//
// common/status_codes.h is the ONE table tying Status::Code to the C enum
// (DS_E*) and the wire error byte; everything else is generated from its
// X-macro. A hand-written `#define DS_ENOSPC -3` elsewhere, or an ad-hoc
// `case Code::kNotFound: return DS_ENOTFOUND;` mapping switch, silently
// forks the table — the classic three-surfaces-drift bug the unification
// exists to kill. Flag, anywhere in src/ outside status_codes.h itself:
//   (a) a #define of DS_OK or any DS_E<CAPS> name, and
//   (b) a line mentioning BOTH a Status code token (Code::kFoo) and a C
//       code token (DS_OK / DS_E*): that is a hand mapping — use
//       errno_of()/code_from_wire()/wire_byte_of() from the table instead.
//
// Escape hatch: `// lint: allow-status-code <reason>` on the same or the
// previous line.

inline bool is_status_code_table(const std::string& rel) {
  return rel == "src/common/status_codes.h";
}

// True when `code` has a DS_OK or DS_E<CAPS> token anywhere on the line
// containing `pos`'s neighborhood — helper for rule (b).
inline bool line_has_c_code_token(const std::string& code, size_t bol, size_t eol) {
  for (size_t p = bol; p + 4 <= eol;) {
    size_t hit = code.find("DS_", p);
    if (hit == std::string::npos || hit >= eol) return false;
    size_t end = hit + 3;
    while (end < eol && (std::isupper((unsigned char)code[end]) ||
                         std::isdigit((unsigned char)code[end])))
      end++;
    std::string name = code.substr(hit, end - hit);
    bool is_code = name == "DS_OK" || (name.rfind("DS_E", 0) == 0 && name.size() > 4);
    if (is_code && ident_boundary(code, hit, name.size())) return true;
    p = hit + 3;
  }
  return false;
}

inline void check_status_codes(const std::string& rel, const std::string& src,
                               const std::string& code,
                               std::vector<Violation>* out) {
  if (is_status_code_table(rel)) return;
  // (a) #define DS_OK / DS_E<CAPS>
  for (size_t pos : find_token(code, "define")) {
    if (pos < 1 || code[pos - 1] != '#') {
      // `#  define` also legal — scan back over whitespace to the '#'.
      size_t back = pos;
      while (back > 0 && (code[back - 1] == ' ' || code[back - 1] == '\t')) back--;
      if (back == 0 || code[back - 1] != '#') continue;
    }
    size_t p = pos + 6;
    while (p < code.size() && (code[p] == ' ' || code[p] == '\t')) p++;
    size_t end = p;
    while (end < code.size() &&
           (std::isalnum((unsigned char)code[end]) || code[end] == '_'))
      end++;
    std::string name = code.substr(p, end - p);
    if (name != "DS_OK" && !(name.rfind("DS_E", 0) == 0 && name.size() > 4 &&
                             std::isupper((unsigned char)name[4])))
      continue;
    if (annotated(src, pos, "lint: allow-status-code")) continue;
    out->push_back({rel, line_of(code, pos), "status-code",
                    "#define " + name +
                        " outside common/status_codes.h — extend the "
                        "DS_STATUS_CODES X-macro table instead"});
  }
  // (b) Code::kFoo and DS_OK/DS_E* on one line = a hand mapping.
  // (find_token can't see this: its boundary check treats ':' as part of an
  // identifier, so scan for the qualified spelling directly.)
  for (size_t pos = 0; (pos = code.find("Code::k", pos)) != std::string::npos; pos += 7) {
    bool left_ok = pos == 0 || (!std::isalnum((unsigned char)code[pos - 1]) &&
                                code[pos - 1] != '_');
    if (!left_ok) continue;
    size_t bol = code.rfind('\n', pos);
    bol = bol == std::string::npos ? 0 : bol + 1;
    size_t eol = code.find('\n', pos);
    eol = eol == std::string::npos ? code.size() : eol;
    if (!line_has_c_code_token(code, bol, eol)) continue;
    if (annotated(src, pos, "lint: allow-status-code")) continue;
    out->push_back({rel, line_of(code, pos), "status-code",
                    "hand mapping between Status::Code and DS_* on one line — "
                    "use errno_of()/code_from_wire()/wire_byte_of() generated "
                    "from common/status_codes.h"});
  }
}

}  // namespace lint
}  // namespace dstore

#endif  // DSTORE_TOOLS_LINT_RULES_H_
