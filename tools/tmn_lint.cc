// tmn_lint — project-specific static analysis for the TMN repository.
//
// A dependency-free, from-scratch linter that enforces the invariants the
// compiler cannot: every thread comes from the shared pool, library code
// never throws, all randomness flows through the seeded Rng, headers carry
// canonical include guards, the module layering DAG is acyclic and
// respected, Status results are consumed, and mutex-protected state is
// annotated for clang's thread-safety analysis. clang-tidy covers generic
// C++ bugs; this tool covers the rules that are specific to this
// codebase's design contracts (docs/STATIC_ANALYSIS.md).
//
// v2 architecture: a real C++ lexer (comments, string/char literals, raw
// strings, preprocessor directives and line splices handled at the
// character level) produces a token stream per file; analysis runs in two
// phases. Phase 1 walks every file once and collects the cross-file
// facts: the names of Status/StatusOr-returning functions and the
// #include edge list. Phase 2 re-walks each token stream with the full
// rule set: per-token pattern rules, statement-level discarded-Status
// detection, class-body lock-discipline checks and include-edge layering
// against the committed policy (tools/layering.toml).
//
// Usage:
//   tmn_lint [--list-rules] [--layering=FILE] [--report=FILE]
//            <file-or-dir>...
//
// Output is machine readable, one finding per line:
//   <file>:<line>: [<rule-id>] <message>
// Exit code: 0 clean, 1 findings, 2 usage/IO error.
//
// Suppressions use a structured comment marker; see docs/STATIC_ANALYSIS.md
// for the syntax. A marker suppresses matching findings on its own line
// (or, alone on a line, on the following line), extended across
// backslash-continuation lines of the same logical line. A marker that
// suppresses nothing is itself reported (rule stale-suppression), so
// suppressions cannot outlive the code they excuse.
//
// --report=FILE writes run metrics (files scanned, findings by rule, wall
// time) as a tmn.run_report/1 JSON document — the same schema the bench
// RunReports use, so tools/bench_compare can diff two lint runs. The
// emission here is hand-rolled to keep the linter a single dependency-free
// TU (the release lane compiles it alone, with no include path);
// the `lint_report_compare` ctest entry diffs two fresh reports through
// bench_compare, which pins the schema compatibility.

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string file;
  int line;
  std::string rule;
  std::string message;
};

// ---------------------------------------------------------------------------
// Rule catalogue. Kept as data so --list-rules, the docs and the tests stay
// in sync with one table.

struct RuleInfo {
  const char* id;
  const char* summary;
};

constexpr RuleInfo kRules[] = {
    {"raw-thread",
     "std::thread outside src/common/thread_pool.* (use the shared pool / "
     "ParallelFor)"},
    {"no-exceptions",
     "throw/try/catch in library code (the library is no-exceptions by "
     "design; invariants abort via TMN_CHECK)"},
    {"raw-rng",
     "rand()/srand()/std::random_device/std::mt19937 outside src/nn/rng.* "
     "(breaks bit-for-bit seeded determinism)"},
    {"stdout-io",
     "std::cout/printf in library code (library code must not write to "
     "stdout; diagnostics go to stderr, results to the caller)"},
    {"header-guard",
     "missing or non-canonical TMN_*_H_ include guard (guard must be the "
     "upper-cased path with the src/ prefix dropped)"},
    {"raw-alloc",
     "raw new/malloc in library code (use containers/std::make_shared; "
     "intentional leak-on-exit singletons need a suppression)"},
    {"raw-timing",
     "std::chrono in library code outside the sanctioned clock "
     "(src/common/clock.cc) and src/obs/ (time via common::MonotonicSeconds "
     "/ obs::ScopedTimer so instrumentation stays centralized)"},
    {"raw-file-write",
     "write-mode fopen or direct rename in library code outside "
     "src/common/io_util.cc (route writes through common::AtomicWriteFile "
     "so they are atomic and durable)"},
    {"raw-serve",
     "direct EncodeTrajectory / HnswIndex use outside src/serve, src/eval "
     "and src/index (online queries go through serve::SimilarityServer so "
     "deadlines, shedding and degradation apply)"},
    {"raw-simd",
     "SIMD intrinsics / immintrin.h outside src/nn/kernels/ (vector code "
     "goes behind the runtime-dispatched KernelTable so the scalar "
     "reference path and bitwise parity are preserved)"},
    {"layering",
     "#include edge that violates the module dependency DAG committed in "
     "tools/layering.toml (common at the bottom, obs above it, then the "
     "model/data/geometry band, the training/index band, serve, and the "
     "applications)"},
    {"must-use-status",
     "call whose Status/StatusOr result is discarded at statement level "
     "(handle the error or cast to void with a reason; function names are "
     "collected across every scanned file)"},
    {"lock-discipline",
     "member field of a mutex-holding class without a TMN_GUARDED_BY "
     "annotation (fields synchronized by other means need a suppression "
     "explaining why; see src/common/mutex.h)"},
    {"stale-suppression",
     "suppression marker that matches no finding on its target line — "
     "either the violation was fixed (delete the marker) or the rule id is "
     "misspelled"},
};

bool IsKnownRule(const std::string& id) {
  for (const RuleInfo& r : kRules) {
    if (id == r.id) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Path classification.

std::string NormalizePath(const fs::path& p) {
  std::string s = p.generic_string();
  while (s.rfind("./", 0) == 0) s.erase(0, 2);
  return s;
}

// True when `path` has `segment` as a whole path component.
bool HasSegment(const std::string& path, const std::string& segment) {
  size_t pos = 0;
  while ((pos = path.find(segment, pos)) != std::string::npos) {
    const bool start_ok = pos == 0 || path[pos - 1] == '/';
    const size_t end = pos + segment.size();
    const bool end_ok = end == path.size() || path[end] == '/';
    if (start_ok && end_ok) return true;
    ++pos;
  }
  return false;
}

// Library code lives under a src/ path segment; tests, benches and tools
// are application code where stdout, exceptions and raw allocation are
// acceptable.
bool IsLibraryPath(const std::string& path) { return HasSegment(path, "src"); }

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// True when `path` contains directory prefix `dir` ("src/obs/") starting
// at a component boundary.
bool HasDirPrefix(const std::string& path, const char* dir) {
  size_t pos = 0;
  while ((pos = path.find(dir, pos)) != std::string::npos) {
    if (pos == 0 || path[pos - 1] == '/') return true;
    ++pos;
  }
  return false;
}

// The sanctioned homes for the primitives the rules ban elsewhere.
bool IsThreadPoolSource(const std::string& path) {
  return EndsWith(path, "common/thread_pool.h") ||
         EndsWith(path, "common/thread_pool.cc");
}

bool IsRngSource(const std::string& path) {
  return EndsWith(path, "nn/rng.h") || EndsWith(path, "nn/rng.cc");
}

bool IsIoUtilSource(const std::string& path) {
  return EndsWith(path, "common/io_util.cc");
}

// src/common/clock.cc is the one sanctioned std::chrono read; src/obs/ is
// the instrumentation layer built on top of it (raw-timing rule).
bool IsTimingExemptSource(const std::string& path) {
  return EndsWith(path, "common/clock.cc") || HasDirPrefix(path, "src/obs/");
}

bool IsServeExemptSource(const std::string& path) {
  for (const char* dir : {"src/serve/", "src/eval/", "src/index/"}) {
    if (HasDirPrefix(path, dir)) return true;
  }
  return false;
}

bool IsKernelsSource(const std::string& path) {
  return HasDirPrefix(path, "src/nn/kernels/");
}

// Canonical guard symbol for a header: upper-cased path with '/' and '.'
// mapped to '_', prefixed TMN_, with everything up to and including the
// last src/ segment dropped (src/nn/tensor.h -> TMN_NN_TENSOR_H_,
// tools/flags.h -> TMN_TOOLS_FLAGS_H_). Falls back to the last two path
// components for absolute paths outside the repo layout.
std::string ExpectedGuard(const std::string& path) {
  std::string rel = path;
  size_t pos = rel.rfind("src/");
  if (pos != std::string::npos && (pos == 0 || rel[pos - 1] == '/')) {
    rel = rel.substr(pos + 4);
  } else {
    size_t slash = rel.rfind('/');
    if (slash != std::string::npos) {
      size_t prev = rel.rfind('/', slash - 1);
      rel = prev == std::string::npos ? rel : rel.substr(prev + 1);
    }
  }
  std::string guard = "TMN_";
  for (char c : rel) {
    if (c == '/' || c == '.') {
      guard += '_';
    } else {
      guard += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
  }
  guard += '_';
  return guard;
}

// Module a file belongs to for the layering rule. Files under a src/
// segment with a further directory component map to that component
// (src/nn/kernels/avx2.cc -> nn); otherwise the first path component is
// used (tests/..., bench/..., tools/..., examples/...). Returns "" when
// neither form applies.
std::string FileModule(const std::string& path) {
  size_t pos = path.rfind("src/");
  if (pos != std::string::npos && (pos == 0 || path[pos - 1] == '/')) {
    const size_t start = pos + 4;
    const size_t slash = path.find('/', start);
    if (slash != std::string::npos) return path.substr(start, slash - start);
  }
  const size_t slash = path.find('/');
  if (slash != std::string::npos && slash > 0) return path.substr(0, slash);
  return "";
}

// ---------------------------------------------------------------------------
// Lexer. Produces a token stream plus structured records for preprocessor
// directives and comments. Line splices (backslash-newline) are resolved
// at the character level — exactly translation phase 2 — so tokens,
// comments and directives that span spliced lines are seen whole, and the
// physical lines of one logical line are grouped for suppression scoping.

enum class Tok : uint8_t {
  kIdent,
  kNumber,
  kPunct,    // "::" and "->" are single tokens; all else one char.
  kString,   // text = literal contents without quotes.
  kChar,
};

struct Token {
  Tok kind;
  std::string text;
  int line = 0;
  bool in_directive = false;
};

struct Directive {
  std::string name;     // "include", "ifndef", "define", "pragma", ...
  std::string operand;  // First token after the name (guard symbol, ...).
  std::string include_path;  // For #include only.
  bool include_angled = false;
  int line = 0;
};

struct Comment {
  std::string text;
  int line = 0;      // Physical line the comment starts on.
  int end_line = 0;  // Physical line it ends on.
  bool own_line = false;  // No code before it on its starting line.
};

struct FileScan {
  std::string path;
  std::vector<Token> tokens;        // Code and directive tokens, in order.
  std::vector<Directive> directives;
  std::vector<Comment> comments;
  // Physical line -> first physical line of its logical (spliced) line.
  std::map<int, int> line_group;
  bool code_before_first_directive = false;  // For the header-guard check.
  bool io_error = false;
};

class Lexer {
 public:
  Lexer(std::string content, FileScan& out)
      : src_(std::move(content)), out_(out) {}

  void Run() {
    while (!AtEnd()) {
      const char c = Peek();
      if (c == '\n') {
        Get();
        at_line_start_ = true;
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
        Get();
        continue;
      }
      if (c == '/' && Peek(1) == '/') {
        LexLineComment();
        continue;
      }
      if (c == '/' && Peek(1) == '*') {
        LexBlockComment();
        continue;
      }
      if (c == '#' && at_line_start_) {
        LexDirective();
        continue;
      }
      LexToken();
    }
  }

 private:
  bool AtEnd() const { return pos_ >= src_.size(); }

  // Peek through line splices: a backslash-newline pair is invisible.
  char Peek(size_t ahead = 0) {
    size_t p = pos_;
    size_t skipped = 0;
    while (p < src_.size()) {
      if (src_[p] == '\\' && p + 1 < src_.size() &&
          (src_[p + 1] == '\n' ||
           (src_[p + 1] == '\r' && p + 2 < src_.size() &&
            src_[p + 2] == '\n'))) {
        p += src_[p + 1] == '\r' ? 3 : 2;
        continue;
      }
      if (skipped == ahead) return src_[p];
      ++skipped;
      ++p;
    }
    return '\0';
  }

  char Get() {
    while (pos_ < src_.size() && src_[pos_] == '\\' &&
           pos_ + 1 < src_.size() &&
           (src_[pos_ + 1] == '\n' ||
            (src_[pos_ + 1] == '\r' && pos_ + 2 < src_.size() &&
             src_[pos_ + 2] == '\n'))) {
      pos_ += src_[pos_ + 1] == '\r' ? 3 : 2;
      SpliceToNextLine();
    }
    if (pos_ >= src_.size()) return '\0';
    const char c = src_[pos_++];
    if (c == '\n') ++line_;
    return c;
  }

  void SpliceToNextLine() {
    const auto it = out_.line_group.find(line_);
    const int group = it == out_.line_group.end() ? line_ : it->second;
    ++line_;
    out_.line_group[line_] = group;
  }

  static bool IsIdentStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  }
  static bool IsIdentChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  }

  void Emit(Tok kind, std::string text, int at_line) {
    out_.tokens.push_back({kind, std::move(text), at_line, in_directive_});
    at_line_start_ = false;
    if (!in_directive_ && out_.directives.empty()) {
      // Track real code ahead of the first directive (header-guard rule).
      out_.code_before_first_directive = true;
    }
  }

  void LexLineComment() {
    const int start = line_;
    Get();
    Get();  // Consume "//". A splice inside extends the comment.
    std::string text;
    while (!AtEnd() && Peek() != '\n') text += Get();
    out_.comments.push_back({std::move(text), start, line_, at_line_start_});
  }

  void LexBlockComment() {
    const int start = line_;
    const bool own = at_line_start_;
    Get();
    Get();  // Consume "/*".
    std::string text;
    while (!AtEnd()) {
      if (Peek() == '*' && Peek(1) == '/') {
        Get();
        Get();
        break;
      }
      text += Get();
    }
    out_.comments.push_back({std::move(text), start, line_, own});
  }

  void LexDirective() {
    const int start = line_;
    Get();  // '#'
    in_directive_ = true;
    // Name.
    while (!AtEnd() && (Peek() == ' ' || Peek() == '\t')) Get();
    std::string name;
    while (!AtEnd() && IsIdentChar(Peek())) name += Get();
    Directive d;
    d.name = name;
    d.line = start;
    // Body: tokens until the (unspliced) end of line. Comments inside a
    // directive line are still comments.
    bool operand_set = false;
    while (!AtEnd() && Peek() != '\n') {
      const char c = Peek();
      if (c == ' ' || c == '\t' || c == '\r') {
        Get();
        continue;
      }
      if (c == '/' && Peek(1) == '/') {
        LexLineComment();
        break;
      }
      if (c == '/' && Peek(1) == '*') {
        LexBlockComment();
        continue;
      }
      if (name == "include" && c == '<') {
        Get();
        std::string path;
        while (!AtEnd() && Peek() != '>' && Peek() != '\n') path += Get();
        if (Peek() == '>') Get();
        d.include_path = path;
        d.include_angled = true;
        Emit(Tok::kString, path, line_);
        continue;
      }
      const size_t before = out_.tokens.size();
      LexToken();
      if (out_.tokens.size() > before) {
        const Token& t = out_.tokens.back();
        if (!operand_set && (t.kind == Tok::kIdent || t.kind == Tok::kNumber)) {
          d.operand = t.text;
          operand_set = true;
        }
        if (name == "include" && t.kind == Tok::kString &&
            d.include_path.empty()) {
          d.include_path = t.text;
          d.include_angled = false;
        }
      }
    }
    in_directive_ = false;
    at_line_start_ = true;
    out_.directives.push_back(std::move(d));
  }

  void LexToken() {
    const int at = line_;
    const char c = Peek();
    if (IsIdentStart(c)) {
      std::string ident;
      while (!AtEnd() && IsIdentChar(Peek())) ident += Get();
      // String-literal prefixes: u8"...", L"...", R"(...)", u8R"(...)".
      if (!AtEnd() && Peek() == '"') {
        const bool raw = !ident.empty() && ident.back() == 'R' &&
                         (ident == "R" || ident == "LR" || ident == "uR" ||
                          ident == "u8R" || ident == "UR");
        if (raw) {
          LexRawString(at);
          return;
        }
        if (ident == "u8" || ident == "u" || ident == "U" || ident == "L") {
          LexString(at);
          return;
        }
      }
      if (!AtEnd() && Peek() == '\'' &&
          (ident == "u8" || ident == "u" || ident == "U" || ident == "L")) {
        LexCharLiteral(at);
        return;
      }
      Emit(Tok::kIdent, std::move(ident), at);
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(Peek(1))))) {
      // pp-number: digits, idents, '.', digit separators and exponent
      // signs. Greedy is fine — we never interpret the value.
      std::string num;
      num += Get();
      while (!AtEnd()) {
        const char n = Peek();
        if (IsIdentChar(n) || n == '.') {
          num += Get();
        } else if (n == '\'' && IsIdentChar(Peek(1))) {
          num += Get();  // Digit separator, not a char literal.
        } else if ((n == '+' || n == '-') && !num.empty() &&
                   (num.back() == 'e' || num.back() == 'E' ||
                    num.back() == 'p' || num.back() == 'P')) {
          num += Get();
        } else {
          break;
        }
      }
      Emit(Tok::kNumber, std::move(num), at);
      return;
    }
    if (c == '"') {
      LexString(at);
      return;
    }
    if (c == '\'') {
      LexCharLiteral(at);
      return;
    }
    // Punctuation. "::" and "->" matter to the statement parser; emit them
    // as single tokens, everything else one character at a time.
    if (c == ':' && Peek(1) == ':') {
      Get();
      Get();
      Emit(Tok::kPunct, "::", at);
      return;
    }
    if (c == '-' && Peek(1) == '>') {
      Get();
      Get();
      Emit(Tok::kPunct, "->", at);
      return;
    }
    Emit(Tok::kPunct, std::string(1, Get()), at);
  }

  void LexString(int at) {
    Get();  // Opening quote.
    std::string text;
    while (!AtEnd()) {
      const char c = Peek();
      if (c == '\\') {
        text += Get();
        if (!AtEnd()) text += Get();
        continue;
      }
      if (c == '"' || c == '\n') {
        if (c == '"') Get();
        break;
      }
      text += Get();
    }
    Emit(Tok::kString, std::move(text), at);
  }

  void LexCharLiteral(int at) {
    Get();  // Opening quote.
    std::string text;
    while (!AtEnd()) {
      const char c = Peek();
      if (c == '\\') {
        text += Get();
        if (!AtEnd()) text += Get();
        continue;
      }
      if (c == '\'' || c == '\n') {
        if (c == '\'') Get();
        break;
      }
      text += Get();
    }
    Emit(Tok::kChar, std::move(text), at);
  }

  // R"delim( ... )delim" — no splicing and no escapes inside; scanned over
  // the raw bytes with manual line counting.
  void LexRawString(int at) {
    pos_ += 1;  // Opening quote (cannot be spliced mid-raw-literal intro).
    std::string delim;
    while (pos_ < src_.size() && src_[pos_] != '(') delim += src_[pos_++];
    if (pos_ < src_.size()) ++pos_;  // '('
    const std::string terminator = ")" + delim + "\"";
    std::string text;
    while (pos_ < src_.size() &&
           src_.compare(pos_, terminator.size(), terminator) != 0) {
      if (src_[pos_] == '\n') ++line_;
      text += src_[pos_++];
    }
    if (pos_ < src_.size()) pos_ += terminator.size();
    Emit(Tok::kString, std::move(text), at);
  }

  std::string src_;
  FileScan& out_;
  size_t pos_ = 0;
  int line_ = 1;
  bool at_line_start_ = true;
  bool in_directive_ = false;
};

// ---------------------------------------------------------------------------
// Suppressions. Markers are parsed out of comment text; each marker
// remembers which rules it allowed and whether any finding actually used
// it, which feeds the stale-suppression rule.

struct Marker {
  int line = 0;                 // Where the marker itself sits.
  std::set<int> covered_lines;  // Lines it applies to.
  std::set<std::string> rules;
  std::set<std::string> used;
};

class SuppressionTable {
 public:
  SuppressionTable(const FileScan& scan) {
    // Expand a physical line into every physical line of its logical
    // (spliced) line.
    std::map<int, std::vector<int>> groups;
    for (const auto& [l, g] : scan.line_group) groups[g].push_back(g);
    for (const auto& [l, g] : scan.line_group) groups[g].push_back(l);
    auto coverage = [&](int target) {
      std::set<int> lines = {target};
      auto it = scan.line_group.find(target);
      const int group = it == scan.line_group.end() ? target : it->second;
      auto git = groups.find(group);
      if (git != groups.end()) {
        lines.insert(git->second.begin(), git->second.end());
      }
      return lines;
    };
    for (const Comment& c : scan.comments) {
      std::set<std::string> rules = ParseMarker(c.text);
      if (rules.empty()) continue;
      Marker m;
      m.line = c.line;
      m.rules = std::move(rules);
      // Trailing marker: applies to its own logical line. Marker alone on
      // a line: applies to the next physical line's logical line.
      m.covered_lines = coverage(c.own_line ? c.end_line + 1 : c.line);
      markers_.push_back(std::move(m));
    }
  }

  // True (and marks usage) when `rule` is allowed on `line`.
  bool Suppress(int line, const std::string& rule) {
    bool hit = false;
    for (Marker& m : markers_) {
      if (m.rules.count(rule) != 0 && m.covered_lines.count(line) != 0) {
        m.used.insert(rule);
        hit = true;
      }
    }
    return hit;
  }

  // Stale markers: every (marker, rule) pair that never suppressed a
  // finding. Rule entries with characters outside [a-z-] are placeholders
  // (documentation templates) and are skipped.
  void ReportStale(const std::string& path, std::vector<Finding>& out) {
    for (Marker& m : markers_) {
      for (const std::string& rule : m.rules) {
        if (m.used.count(rule) != 0) continue;
        if (rule.find_first_not_of(
                "abcdefghijklmnopqrstuvwxyz-") != std::string::npos) {
          continue;
        }
        const std::string why =
            IsKnownRule(rule)
                ? "suppression for '" + rule +
                      "' matches no finding on its target line; delete it"
                : "suppression names unknown rule '" + rule +
                      "' (see --list-rules)";
        if (!Suppress(m.line, "stale-suppression")) {
          out.push_back({path, m.line, "stale-suppression", why});
        }
      }
    }
  }

  size_t used_count() const {
    size_t n = 0;
    for (const Marker& m : markers_) n += m.used.size();
    return n;
  }

 private:
  static std::set<std::string> ParseMarker(const std::string& comment) {
    std::set<std::string> rules;
    static const std::string kMarker = std::string("tmn-lint:") + " allow(";
    size_t pos = 0;
    while ((pos = comment.find(kMarker, pos)) != std::string::npos) {
      const size_t start = pos + kMarker.size();
      const size_t close = comment.find(')', start);
      if (close == std::string::npos) break;
      std::string current;
      for (size_t i = start; i <= close; ++i) {
        const char c = comment[i];
        if (c == ',' || c == ')') {
          if (!current.empty()) rules.insert(current);
          current.clear();
        } else if (c != ' ') {
          current += c;
        }
      }
      pos = close;
    }
    return rules;
  }

  std::vector<Marker> markers_;
};

// ---------------------------------------------------------------------------
// Layering policy: a minimal TOML subset — one [layers] table whose
// entries map a module name to the array of modules it may include.
// A value of ["*"] allows everything (application layers).

struct LayeringPolicy {
  std::map<std::string, std::set<std::string>> allowed;
  bool loaded = false;

  bool Knows(const std::string& module) const {
    return allowed.count(module) != 0;
  }

  bool Allows(const std::string& from, const std::string& to) const {
    const auto it = allowed.find(from);
    if (it == allowed.end()) return true;
    if (it->second.count("*") != 0) return true;
    return it->second.count(to) != 0;
  }
};

bool LoadLayeringPolicy(const std::string& path, LayeringPolicy& policy,
                        std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open layering policy: " + path;
    return false;
  }
  std::string line;
  bool in_layers = false;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const size_t b = line.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    const size_t e = line.find_last_not_of(" \t\r");
    line = line.substr(b, e - b + 1);
    if (line.front() == '[') {
      in_layers = line == "[layers]";
      continue;
    }
    if (!in_layers) continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      error = path + ":" + std::to_string(lineno) + ": expected 'name = [..]'";
      return false;
    }
    std::string name = line.substr(0, eq);
    name.erase(name.find_last_not_of(" \t") + 1);
    std::set<std::string> deps;
    std::string current;
    bool in_string = false;
    for (size_t i = eq + 1; i < line.size(); ++i) {
      const char c = line[i];
      if (c == '"') {
        if (in_string && !current.empty()) deps.insert(current);
        if (in_string) current.clear();
        in_string = !in_string;
      } else if (in_string) {
        current += c;
      }
    }
    policy.allowed[name] = std::move(deps);
  }
  policy.loaded = true;
  return true;
}

// ---------------------------------------------------------------------------
// Token helpers.

bool IsIdent(const Token& t, const char* text) {
  return t.kind == Tok::kIdent && t.text == text;
}

bool IsPunct(const Token& t, const char* text) {
  return t.kind == Tok::kPunct && t.text == text;
}

// Skips a balanced (...) / {...} / [...] run starting at `i` (which must
// index the opening token); returns the index just past the closer.
size_t SkipBalanced(const std::vector<Token>& toks, size_t i,
                    const char* open, const char* close) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (IsPunct(toks[i], open)) ++depth;
    if (IsPunct(toks[i], close) && --depth == 0) return i + 1;
  }
  return i;
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// ---------------------------------------------------------------------------
// Phase 1a: collect the names of functions returning Status / StatusOr<T>
// from declarations and definitions: `Status Name(`, `Status Class::Name(`,
// `StatusOr<...> Name(`. Name-based and cross-file: a discarded call to
// any collected name is a must-use-status finding in phase 2.

void CollectStatusFunctions(const FileScan& scan,
                            std::set<std::string>& names) {
  const std::vector<Token>& t = scan.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent ||
        (t[i].text != "Status" && t[i].text != "StatusOr")) {
      continue;
    }
    size_t j = i + 1;
    if (t[i].text == "StatusOr") {
      if (j >= t.size() || !IsPunct(t[j], "<")) continue;
      int depth = 0;
      for (; j < t.size(); ++j) {
        if (IsPunct(t[j], "<")) ++depth;
        if (IsPunct(t[j], ">") && --depth == 0) {
          ++j;
          break;
        }
      }
    }
    // Qualified declarator chain: Name, Class::Name, a::b::Name.
    std::string last;
    while (j + 1 < t.size() && t[j].kind == Tok::kIdent) {
      last = t[j].text;
      if (IsPunct(t[j + 1], "::")) {
        j += 2;
        continue;
      }
      ++j;
      break;
    }
    if (last.empty() || j >= t.size() || !IsPunct(t[j], "(")) continue;
    names.insert(last);
  }
}

// ---------------------------------------------------------------------------
// Phase 2 per-file analysis.

struct FileCheckContext {
  const std::set<std::string>* status_functions = nullptr;
  const LayeringPolicy* layering = nullptr;
};

class FileLinter {
 public:
  FileLinter(const FileScan& scan, const FileCheckContext& ctx)
      : scan_(scan),
        ctx_(ctx),
        suppressions_(scan),
        is_header_(EndsWith(scan.path, ".h")),
        library_(IsLibraryPath(scan.path)) {}

  std::vector<Finding> Run() {
    TokenRules();
    HeaderGuard();
    Layering();
    MustUseStatus();
    LockDiscipline();

    // Dedup per (line, rule) — several token hits on one line are one
    // finding — then apply suppressions and collect stale markers.
    std::sort(raw_.begin(), raw_.end(), [](const Finding& a, const Finding& b) {
      if (a.line != b.line) return a.line < b.line;
      return a.rule < b.rule;
    });
    std::vector<Finding> out;
    for (const Finding& f : raw_) {
      if (!out.empty() && out.back().line == f.line &&
          out.back().rule == f.rule) {
        // Duplicate: still mark the suppression as used.
        suppressions_.Suppress(f.line, f.rule);
        continue;
      }
      if (suppressions_.Suppress(f.line, f.rule)) continue;
      out.push_back(f);
    }
    suppressions_.ReportStale(scan_.path, out);
    std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
      if (a.line != b.line) return a.line < b.line;
      return a.rule < b.rule;
    });
    suppressions_used_ = suppressions_.used_count();
    return out;
  }

  size_t suppressions_used() const { return suppressions_used_; }

 private:
  void Report(int line, const char* rule, std::string message) {
    raw_.push_back({scan_.path, line, rule, std::move(message)});
  }

  // --- Simple token-pattern rules (the v1 rule set, over real tokens). ---

  void TokenRules() {
    const bool pool_source = IsThreadPoolSource(scan_.path);
    const bool rng_source = IsRngSource(scan_.path);
    const bool timing_exempt = IsTimingExemptSource(scan_.path);
    const bool io_util_source = IsIoUtilSource(scan_.path);
    const bool kernels_source = IsKernelsSource(scan_.path);
    const bool serve_scope =
        (library_ || HasSegment(scan_.path, "examples")) &&
        !IsServeExemptSource(scan_.path);

    const std::vector<Token>& t = scan_.tokens;
    for (size_t i = 0; i < t.size(); ++i) {
      const Token& tok = t[i];
      if (tok.kind != Tok::kIdent) continue;
      const bool stdq = i + 2 < t.size() && IsIdent(tok, "std") &&
                        IsPunct(t[i + 1], "::");
      const Token* member = stdq ? &t[i + 2] : nullptr;
      const bool call_after = [&](size_t at) {
        return at + 1 < t.size() && IsPunct(t[at + 1], "(");
      }(i);

      if (!pool_source && stdq && IsIdent(*member, "thread")) {
        Report(tok.line, "raw-thread",
               "raw std::thread; use tmn::common::ThreadPool / ParallelFor");
      }
      if (!rng_source) {
        if (stdq && (IsIdent(*member, "random_device") ||
                     IsIdent(*member, "mt19937"))) {
          Report(tok.line, "raw-rng",
                 "unseeded/global randomness; route through tmn::nn::Rng");
        }
        if ((tok.text == "rand" || tok.text == "srand") && call_after) {
          Report(tok.line, "raw-rng",
                 "unseeded/global randomness; route through tmn::nn::Rng");
        }
      }
      if (library_) {
        if (tok.text == "throw" || tok.text == "try" || tok.text == "catch") {
          Report(tok.line, "no-exceptions",
                 "exceptions in library code; abort via TMN_CHECK instead");
        }
        if ((stdq && IsIdent(*member, "cout")) ||
            (tok.text == "printf" && call_after)) {
          Report(tok.line, "stdout-io",
                 "stdout I/O in library code; use std::fprintf(stderr, ...) "
                 "for diagnostics");
        }
        if (tok.text == "new" || (tok.text == "malloc" && call_after)) {
          Report(tok.line, "raw-alloc",
                 "raw allocation in library code; use containers or "
                 "std::make_shared/std::make_unique");
        }
        if (!timing_exempt && stdq && IsIdent(*member, "chrono")) {
          Report(tok.line, "raw-timing",
                 "ad-hoc std::chrono timing; use common::MonotonicSeconds "
                 "or obs::ScopedTimer");
        }
        if (!io_util_source) {
          if (tok.text == "rename" && call_after) {
            Report(tok.line, "raw-file-write",
                   "direct rename in library code; route writes through "
                   "common::AtomicWriteFile (src/common/io_util.cc)");
          }
          if (tok.text == "fopen" && call_after && FopenWriteMode(i + 1)) {
            Report(tok.line, "raw-file-write",
                   "write-mode fopen in library code; route writes through "
                   "common::AtomicWriteFile (src/common/io_util.cc)");
          }
        }
      }
      if (!kernels_source &&
          (StartsWith(tok.text, "_mm") || StartsWith(tok.text, "__m128") ||
           StartsWith(tok.text, "__m256") || StartsWith(tok.text, "__m512"))) {
        Report(tok.line, "raw-simd",
               "SIMD intrinsics outside src/nn/kernels/; add the operation "
               "to the dispatched KernelTable instead");
      }
      if (serve_scope && (tok.text == "EncodeTrajectory" ||
                          tok.text == "HnswIndex")) {
        Report(tok.line, "raw-serve",
               "direct encode/ANN-index use; answer online queries through "
               "serve::SimilarityServer so deadlines, shedding and "
               "degradation apply");
      }
    }

    // Directive-level matches: banned includes.
    for (const Directive& d : scan_.directives) {
      if (d.name != "include") continue;
      if (!kernels_source && EndsWith(d.include_path, "immintrin.h")) {
        Report(d.line, "raw-simd",
               "SIMD intrinsics outside src/nn/kernels/; add the operation "
               "to the dispatched KernelTable instead");
      }
      if (library_ && !IsTimingExemptSource(scan_.path) &&
          d.include_path == "chrono") {
        Report(d.line, "raw-timing",
               "ad-hoc std::chrono timing; use common::MonotonicSeconds "
               "or obs::ScopedTimer");
      }
    }
  }

  // True when the call opened by the '(' at `open` passes a write/append
  // fopen mode: any short string argument made only of mode characters and
  // containing 'w', 'a' or '+'.
  bool FopenWriteMode(size_t open) {
    const std::vector<Token>& t = scan_.tokens;
    int depth = 0;
    for (size_t i = open; i < t.size(); ++i) {
      if (IsPunct(t[i], "(")) ++depth;
      if (IsPunct(t[i], ")") && --depth == 0) break;
      if (t[i].kind == Tok::kString) {
        const std::string& lit = t[i].text;
        if (!lit.empty() && lit.size() <= 3 &&
            lit.find_first_not_of("rwab+") == std::string::npos &&
            lit.find_first_of("wa+") != std::string::npos) {
          return true;
        }
      }
    }
    return false;
  }

  // --- Include guards (headers only). ------------------------------------

  void HeaderGuard() {
    if (!is_header_) return;
    const std::string expected = ExpectedGuard(scan_.path);
    // The guard must be the first directive (pragmas may precede it), with
    // its #define on the immediately following line and no code above.
    const Directive* guard = nullptr;
    const Directive* define = nullptr;
    for (const Directive& d : scan_.directives) {
      if (d.name == "pragma") continue;
      if (guard == nullptr) {
        if (d.name == "ifndef") {
          guard = &d;
          continue;
        }
        break;  // Some other directive before any guard.
      }
      define = &d;
      break;
    }
    if (guard == nullptr) {
      Report(1, "header-guard",
             "missing include guard; expected #ifndef " + expected);
      return;
    }
    if (guard->operand != expected || scan_.code_before_first_directive) {
      Report(guard->line, "header-guard",
             "include guard '" + guard->operand + "' should be '" + expected +
                 "'");
      return;
    }
    if (define == nullptr || define->name != "define" ||
        define->operand != expected || define->line != guard->line + 1) {
      Report(guard->line, "header-guard",
             "#ifndef " + expected + " not followed by a matching #define");
    }
  }

  // --- Layering (include DAG). -------------------------------------------

  void Layering() {
    if (ctx_.layering == nullptr || !ctx_.layering->loaded) return;
    const std::string from = FileModule(scan_.path);
    if (!ctx_.layering->Knows(from)) return;
    for (const Directive& d : scan_.directives) {
      if (d.name != "include" || d.include_angled || d.include_path.empty()) {
        continue;
      }
      const size_t slash = d.include_path.find('/');
      if (slash == std::string::npos) continue;
      const std::string to = d.include_path.substr(0, slash);
      if (to == from || !ctx_.layering->Knows(to)) continue;
      if (!ctx_.layering->Allows(from, to)) {
        Report(d.line, "layering",
               "module '" + from + "' may not include '" + d.include_path +
                   "': '" + to +
                   "' is not among its allowed dependencies in "
                   "tools/layering.toml");
      }
    }
  }

  // --- must-use-status: discarded call results. --------------------------
  //
  // Statement-level scan: at each statement start, a (possibly qualified /
  // chained) call expression followed directly by ';' discards its result.
  // `(void)Call();`, `return Call();` and `x = Call();` never match by
  // construction — the statement does not start with a bare call chain.

  void MustUseStatus() {
    if (ctx_.status_functions == nullptr) return;
    const std::vector<Token>& t = scan_.tokens;
    bool at_statement_start = true;
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].in_directive) continue;
      if (!at_statement_start) {
        if (t[i].kind == Tok::kPunct &&
            (t[i].text == ";" || t[i].text == "{" || t[i].text == "}")) {
          at_statement_start = true;
        }
        continue;
      }
      if (t[i].kind == Tok::kPunct) continue;  // Still at a boundary.
      // Unwrap single-statement control bodies: `if (x) Call();`.
      size_t s = i;
      while (s < t.size()) {
        if (IsIdent(t[s], "else") || IsIdent(t[s], "do")) {
          ++s;
          continue;
        }
        if ((IsIdent(t[s], "if") || IsIdent(t[s], "while") ||
             IsIdent(t[s], "for") || IsIdent(t[s], "switch")) &&
            s + 1 < t.size() && IsPunct(t[s + 1], "(")) {
          s = SkipBalanced(t, s + 1, "(", ")");
          continue;
        }
        if (IsIdent(t[s], "case")) {
          while (s < t.size() && !IsPunct(t[s], ":")) ++s;
          ++s;
          continue;
        }
        break;
      }
      i = s > i ? s : i;
      at_statement_start = false;
      if (i >= t.size() || t[i].kind != Tok::kIdent) continue;
      // Parse a call chain: ident (:: . -> ident)* '(' ... ')' [. -> more].
      size_t j = i;
      std::string last_called;
      int call_line = 0;
      while (j < t.size()) {
        if (t[j].kind != Tok::kIdent) break;
        std::string last = t[j].text;
        int line = t[j].line;
        ++j;
        while (j + 1 < t.size() && t[j].kind == Tok::kPunct &&
               (t[j].text == "::" || t[j].text == "." || t[j].text == "->") &&
               t[j + 1].kind == Tok::kIdent) {
          last = t[j + 1].text;
          line = t[j + 1].line;
          j += 2;
        }
        if (j >= t.size() || !IsPunct(t[j], "(")) {
          last_called.clear();
          break;
        }
        last_called = last;
        call_line = line;
        j = SkipBalanced(t, j, "(", ")");
        if (j < t.size() && t[j].kind == Tok::kPunct &&
            (t[j].text == "." || t[j].text == "->")) {
          ++j;  // Chained member call; keep parsing.
          continue;
        }
        break;
      }
      if (!last_called.empty() && j < t.size() && IsPunct(t[j], ";") &&
          ctx_.status_functions->count(last_called) != 0) {
        Report(call_line, "must-use-status",
               "result of '" + last_called +
                   "' (returns Status/StatusOr) is discarded; handle it or "
                   "cast to void with a reason");
      }
      if (j > i) i = j - 1;
    }
  }

  // --- lock-discipline: unannotated fields in mutex-holding classes. -----
  //
  // Heuristic member scanner: inside each class/struct body, member-field
  // statements are recognized by the project naming convention (fields end
  // in '_'). A class owning a mutex (common::Mutex, std::mutex or a lock
  // wrapper naming one) must annotate every other non-static, non-const,
  // non-atomic field with TMN_GUARDED_BY / TMN_PT_GUARDED_BY; fields
  // synchronized by other means carry a suppression with the reason.

  struct Scope {
    bool is_class = false;
    // Member statements: token ranges at this class's member depth.
    std::vector<std::pair<size_t, size_t>> statements;
  };

  void LockDiscipline() {
    if (!library_) return;
    const std::vector<Token>& t = scan_.tokens;

    std::vector<Scope> stack;
    size_t stmt_begin = std::string::npos;

    auto close_statement = [&](size_t end) {
      if (!stack.empty() && stack.back().is_class &&
          stmt_begin != std::string::npos && end > stmt_begin) {
        stack.back().statements.push_back({stmt_begin, end});
      }
      stmt_begin = std::string::npos;
    };

    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].in_directive) continue;
      const Token& tok = t[i];
      if ((IsIdent(tok, "class") || IsIdent(tok, "struct")) &&
          (i == 0 || !IsIdent(t[i - 1], "enum"))) {
        // Scan ahead: a '{' before ';'/'(' opens a class body.
        size_t j = i + 1;
        int angle = 0;
        bool opens = false;
        for (; j < t.size(); ++j) {
          if (IsPunct(t[j], "<")) ++angle;
          if (IsPunct(t[j], ">")) --angle;
          if (angle > 0) continue;
          if (IsPunct(t[j], ";") || IsPunct(t[j], "(") ||
              IsPunct(t[j], "=")) {
            break;
          }
          if (IsPunct(t[j], "{")) {
            opens = true;
            break;
          }
        }
        if (opens) {
          close_statement(i);
          stack.push_back({true, {}});
          stmt_begin = std::string::npos;
          i = j;  // Land on '{'; body tokens follow.
          continue;
        }
      }
      if (IsPunct(tok, "{")) {
        close_statement(i);
        if (!stack.empty() && stack.back().is_class) {
          // At class-member depth a '{' is a method body or a brace
          // initializer: skip it wholesale so only genuine member
          // declarations reach the statement list. (The declarator name
          // precedes an initializer brace, so nothing is lost.)
          i = SkipBalanced(t, i, "{", "}") - 1;
        } else {
          // Namespace / function / block scope: descend token-by-token so
          // classes declared inside it are still scanned.
          stack.push_back({false, {}});
        }
        continue;
      }
      if (IsPunct(tok, "}")) {
        close_statement(i);
        if (!stack.empty()) {
          if (stack.back().is_class) CheckClass(stack.back());
          stack.pop_back();
        }
        continue;
      }
      if (!stack.empty() && stack.back().is_class) {
        if (IsPunct(tok, ";")) {
          close_statement(i);
          continue;
        }
        if (IsPunct(tok, ":") && i > 0 &&
            (IsIdent(t[i - 1], "public") || IsIdent(t[i - 1], "private") ||
             IsIdent(t[i - 1], "protected"))) {
          stmt_begin = std::string::npos;
          continue;
        }
        if (stmt_begin == std::string::npos) stmt_begin = i;
      }
    }
  }

  // Decides which member statements of one class body are unannotated
  // mutable fields, and reports them when the class also owns a mutex.
  void CheckClass(const Scope& scope) {
    const std::vector<Token>& t = scan_.tokens;
    struct Field {
      int line;
      std::string name;
    };
    bool has_mutex = false;
    std::vector<Field> unguarded;
    for (const auto& [begin, end] : scope.statements) {
      bool exempt = false;
      bool is_mutex = false;
      bool annotated = false;
      for (size_t i = begin; i < end; ++i) {
        const Token& tok = t[i];
        if (tok.kind != Tok::kIdent) continue;
        if (tok.text == "static" || tok.text == "constexpr" ||
            tok.text == "const" || tok.text == "using" ||
            tok.text == "typedef" || tok.text == "friend" ||
            tok.text == "thread_local" || tok.text == "enum" ||
            tok.text == "condition_variable" ||
            tok.text == "condition_variable_any") {
          exempt = true;
        }
        if (tok.text == "atomic" && i >= 2 && IsIdent(t[i - 2], "std")) {
          exempt = true;
        }
        if (tok.text == "Mutex" || tok.text == "SharedMutex" ||
            tok.text == "mutex" || tok.text == "shared_mutex" ||
            tok.text == "recursive_mutex") {
          is_mutex = true;
        }
        if (tok.text == "TMN_GUARDED_BY" || tok.text == "TMN_PT_GUARDED_BY") {
          annotated = true;
        }
      }
      if (is_mutex) {
        has_mutex = true;
        continue;
      }
      if (exempt || annotated) continue;
      // Field shape: declarator name is the identifier before ';' or
      // before the '='/'{' initializer, and project style names fields
      // with a trailing underscore. A '(' directly after the candidate
      // name makes it a function declarator; any other paren group
      // (annotation arguments like TMN_REQUIRES(mu_)) is skipped whole.
      size_t name_at = std::string::npos;
      bool is_function = false;
      for (size_t i = begin; i < end; ++i) {
        if (IsPunct(t[i], "=")) break;
        if (IsPunct(t[i], "(")) {
          if (name_at == i - 1) {
            is_function = true;
            break;
          }
          i = SkipBalanced(t, i, "(", ")") - 1;
          continue;
        }
        if (t[i].kind == Tok::kIdent) name_at = i;
      }
      if (is_function || name_at == std::string::npos) continue;
      const std::string& name = t[name_at].text;
      if (name.size() < 2 || name.back() != '_') continue;
      if (name_at == begin) continue;  // Need at least a type ahead of it.
      unguarded.push_back({t[name_at].line, name});
    }
    if (!has_mutex) return;
    for (const Field& f : unguarded) {
      Report(f.line, "lock-discipline",
             "field '" + f.name +
                 "' shares a class with a mutex but has no TMN_GUARDED_BY "
                 "annotation (or a suppression explaining its "
                 "synchronization)");
    }
  }

  const FileScan& scan_;
  const FileCheckContext& ctx_;
  SuppressionTable suppressions_;
  const bool is_header_;
  const bool library_;
  std::vector<Finding> raw_;
  size_t suppressions_used_ = 0;
};

// ---------------------------------------------------------------------------
// Directory walk.

bool IsSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h";
}

// Directories never descended into while recursing (explicitly passed
// roots are always scanned, which is how the test fixtures are linted).
bool SkipDirectory(const std::string& name) {
  if (name.empty() || name[0] == '.') return true;
  if (name == "testdata") return true;
  if (name.rfind("build", 0) == 0) return true;
  return name == "third_party" || name == "external";
}

void CollectFiles(const fs::path& root, std::vector<std::string>& out,
                  bool& error) {
  std::error_code ec;
  if (fs::is_regular_file(root, ec)) {
    if (IsSourceFile(root)) out.push_back(NormalizePath(root));
    return;
  }
  if (!fs::is_directory(root, ec)) {
    std::fprintf(stderr, "tmn_lint: no such file or directory: %s\n",
                 root.string().c_str());
    error = true;
    return;
  }
  std::vector<fs::path> stack = {root};
  while (!stack.empty()) {
    const fs::path dir = stack.back();
    stack.pop_back();
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      const fs::path& p = entry.path();
      if (entry.is_directory()) {
        if (!SkipDirectory(p.filename().string())) stack.push_back(p);
      } else if (entry.is_regular_file() && IsSourceFile(p)) {
        out.push_back(NormalizePath(p));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Run-report emission (tmn.run_report/1, hand-rolled; see file comment).

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

struct LintMetrics {
  size_t files_scanned = 0;
  size_t findings_total = 0;
  size_t suppressions_used = 0;
  std::map<std::string, size_t> findings_by_rule;  // Every rule, even 0.
  double wall_seconds = 0.0;
};

bool WriteRunReport(const std::string& path, const LintMetrics& m,
                    const std::string& roots,
                    const std::string& layering_path) {
  // Stable counters first-class: same tree in, same numbers out, so
  // bench_compare can hard-gate two lint runs against each other. Only
  // the wall-clock gauge is unstable.
  std::map<std::string, std::pair<std::string, uint64_t>> counters;
  counters["tmn.lint.files_scanned"] = {"stable", m.files_scanned};
  counters["tmn.lint.findings_total"] = {"stable", m.findings_total};
  counters["tmn.lint.suppressions_used"] = {"stable", m.suppressions_used};
  for (const auto& [rule, count] : m.findings_by_rule) {
    counters["tmn.lint.findings." + rule] = {"stable", count};
  }

  std::string out = "{\n";
  out += "  \"schema\": \"tmn.run_report/1\",\n";
  out += "  \"name\": \"lint\",\n";
  out += "  \"build\": {\"build_type\": \"standalone\", \"compiler\": \"" +
         JsonEscape(__VERSION__) +
         "\", \"dchecks\": false, \"sanitizer\": \"\"},\n";
  out += "  \"config\": {\"layering_policy\": \"" + JsonEscape(layering_path) +
         "\", \"roots\": \"" + JsonEscape(roots) + "\"},\n";
  out += "  \"metrics\": [\n";
  bool first = true;
  char buf[64];
  for (const auto& [name, entry] : counters) {
    if (!first) out += ",\n";
    first = false;
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(entry.second));
    out += "    {\"name\": \"" + name + "\", \"type\": \"counter\", " +
           "\"stability\": \"" + entry.first + "\", \"value\": " + buf + "}";
  }
  std::snprintf(buf, sizeof(buf), "%.17g", m.wall_seconds);
  out += ",\n    {\"name\": \"tmn.lint.wall_seconds\", \"type\": \"gauge\", "
         "\"stability\": \"unstable\", \"value\": " +
         std::string(buf) + "}";
  out += "\n  ]\n}\n";

  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << out;
  return static_cast<bool>(f.flush());
}

}  // namespace

int main(int argc, char** argv) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::string> roots;
  std::string report_path;
  std::string layering_path;
  bool layering_explicit = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const RuleInfo& r : kRules) {
        std::printf("%-17s %s\n", r.id, r.summary);
      }
      return 0;
    }
    if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: tmn_lint [--list-rules] [--layering=FILE] "
          "[--report=FILE] <file-or-dir>...\n");
      return 0;
    }
    if (arg.rfind("--report=", 0) == 0) {
      report_path = arg.substr(9);
      continue;
    }
    if (arg.rfind("--layering=", 0) == 0) {
      layering_path = arg.substr(11);
      layering_explicit = true;
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "tmn_lint: unknown option: %s\n", arg.c_str());
      return 2;
    }
    roots.push_back(arg);
  }
  if (roots.empty()) {
    std::fprintf(stderr,
                 "usage: tmn_lint [--list-rules] [--layering=FILE] "
                 "[--report=FILE] <file-or-dir>...\n");
    return 2;
  }

  LayeringPolicy layering;
  if (layering_path.empty() && fs::exists("tools/layering.toml")) {
    layering_path = "tools/layering.toml";
  }
  if (!layering_path.empty()) {
    std::string error;
    if (!LoadLayeringPolicy(layering_path, layering, error)) {
      std::fprintf(stderr, "tmn_lint: %s\n", error.c_str());
      if (layering_explicit) return 2;
      layering = {};
    }
  }

  bool io_error = false;
  std::vector<std::string> files;
  for (const std::string& r : roots) CollectFiles(r, files, io_error);
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  // Lex every file once, then run the two analysis phases over the scans.
  std::vector<FileScan> scans;
  scans.reserve(files.size());
  for (const std::string& f : files) {
    FileScan scan;
    scan.path = f;
    std::ifstream in(f, std::ios::binary);
    if (!in) {
      scan.io_error = true;
    } else {
      std::ostringstream content;
      content << in.rdbuf();
      Lexer(content.str(), scan).Run();
    }
    scans.push_back(std::move(scan));
  }

  std::set<std::string> status_functions;
  for (const FileScan& scan : scans) {
    CollectStatusFunctions(scan, status_functions);
  }

  FileCheckContext ctx;
  ctx.status_functions = &status_functions;
  ctx.layering = &layering;

  LintMetrics metrics;
  for (const RuleInfo& r : kRules) metrics.findings_by_rule[r.id] = 0;

  std::vector<Finding> findings;
  for (const FileScan& scan : scans) {
    if (scan.io_error) {
      findings.push_back({scan.path, 0, "io-error", "cannot open file"});
      continue;
    }
    FileLinter linter(scan, ctx);
    std::vector<Finding> file_findings = linter.Run();
    metrics.suppressions_used += linter.suppressions_used();
    findings.insert(findings.end(), file_findings.begin(),
                    file_findings.end());
  }

  for (const Finding& f : findings) {
    std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
    ++metrics.findings_by_rule[f.rule];
  }
  metrics.files_scanned = files.size();
  metrics.findings_total = findings.size();
  metrics.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (!report_path.empty()) {
    std::string joined;
    for (const std::string& r : roots) {
      if (!joined.empty()) joined += ' ';
      joined += r;
    }
    if (!WriteRunReport(report_path, metrics, joined, layering_path)) {
      std::fprintf(stderr, "tmn_lint: cannot write report: %s\n",
                   report_path.c_str());
      return 2;
    }
  }

  if (io_error) return 2;
  if (!findings.empty()) {
    std::fprintf(stderr, "tmn_lint: %zu finding(s) in %zu file(s) scanned\n",
                 findings.size(), files.size());
    return 1;
  }
  return 0;
}
