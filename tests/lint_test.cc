// End-to-end tests for tools/tmn_lint.cc: every rule fires on its seeded
// fixture (tests/testdata/lint), suppression comments silence findings
// (including multi-rule markers and backslash-continuation lines), stale
// suppressions are themselves findings, the layering policy rejects
// DAG-inverting includes, the rule catalogue matches the docs, --report
// emits a tmn.run_report/1 document, and the real repository is
// lint-clean. The clang thread-safety lane is exercised too: the
// annotated fixture compiles under -Wthread-safety -Werror and the
// deliberately unlocked one fails (skipped when clang++ is absent).
//
// The binary path and repo root come from compile definitions set in
// tests/CMakeLists.txt, so the test works from any build directory.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;
};

// Runs `cmd` from the repo root and captures stdout. popen is fine here:
// this is test code, not library code.
LintRun RunCommand(const std::string& cmd) {
  const std::string full =
      std::string("cd ") + TMN_REPO_ROOT + " && " + cmd + " 2>/dev/null";
  LintRun result;
  FILE* pipe = popen(full.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buf;
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) {
    result.output += buf.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

// Runs tmn_lint on `args` (paths relative to the repo root).
LintRun RunLint(const std::string& args) {
  return RunCommand(std::string(TMN_LINT_BIN) + " " + args);
}

bool HaveClang() {
  return std::system("command -v clang++ >/dev/null 2>&1") == 0;
}

// Parses "file:line: [rule] message" lines into file -> rule ids.
std::multimap<std::string, std::string> ParseFindings(
    const std::string& output) {
  std::multimap<std::string, std::string> findings;
  std::istringstream in(output);
  std::string line;
  while (std::getline(in, line)) {
    const size_t open = line.find(" [");
    const size_t close = line.find("] ", open);
    const size_t colon = line.find(':');
    if (open == std::string::npos || close == std::string::npos ||
        colon == std::string::npos) {
      continue;
    }
    std::string file = line.substr(0, colon);
    const size_t slash = file.rfind('/');
    if (slash != std::string::npos) file = file.substr(slash + 1);
    findings.emplace(file, line.substr(open + 2, close - open - 2));
  }
  return findings;
}

// Rule ids from --list-rules output (first whitespace-delimited token of
// every line).
std::vector<std::string> ListedRules() {
  const LintRun run = RunLint("--list-rules");
  std::vector<std::string> rules;
  std::istringstream in(run.output);
  std::string line;
  while (std::getline(in, line)) {
    const size_t space = line.find(' ');
    if (space != std::string::npos && space > 0) {
      rules.push_back(line.substr(0, space));
    }
  }
  return rules;
}

TEST(LintTest, FixtureCorpusReportsExactRuleIds) {
  const LintRun run = RunLint("tests/testdata/lint");
  ASSERT_EQ(run.exit_code, 1) << run.output;

  const auto findings = ParseFindings(run.output);
  const std::multimap<std::string, std::string> expected = {
      {"fixture_raw_thread.cc", "raw-thread"},
      {"fixture_no_exceptions.cc", "no-exceptions"},
      {"fixture_raw_rng.cc", "raw-rng"},
      {"fixture_stdout_io.cc", "stdout-io"},
      {"fixture_bad_guard.h", "header-guard"},
      {"fixture_raw_alloc.cc", "raw-alloc"},
      // The include line and the usage line each fire raw-timing.
      {"fixture_raw_timing.cc", "raw-timing"},
      {"fixture_raw_timing.cc", "raw-timing"},
      {"fixture_raw_file_write.cc", "raw-file-write"},
      {"fixture_raw_file_write.cc", "raw-file-write"},
      {"fixture_raw_serve.cc", "raw-serve"},
      {"fixture_raw_serve.cc", "raw-serve"},
      {"fixture_raw_simd.cc", "raw-simd"},
      {"fixture_raw_simd.cc", "raw-simd"},
      {"fixture_layering.cc", "layering"},
      // One finding per class: hits_ beside a std::mutex, misses_ beside
      // a common::SharedMutex.
      {"fixture_lock_discipline.cc", "lock-discipline"},
      {"fixture_lock_discipline.cc", "lock-discipline"},
      {"fixture_stale_suppression.cc", "stale-suppression"},
      {"fixture_must_use_status.cc", "must-use-status"},
      {"fixture_must_use_status.cc", "must-use-status"},
      {"fixture_must_use_status.cc", "must-use-status"},
  };
  EXPECT_EQ(findings, expected) << run.output;
}

TEST(LintTest, SuppressedFixtureIsSilent) {
  const LintRun run = RunLint("tests/testdata/lint/src/fixture_suppressed.cc");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(run.output, "");
}

// One marker listing two rules silences both violations on its line, and
// both entries count as used (no stale-suppression either).
TEST(LintTest, MultiRuleMarkerSuppressesEveryListedRule) {
  const LintRun run =
      RunLint("tests/testdata/lint/src/fixture_multi_rule_allow.cc");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(run.output, "");
}

// A logical line includes every physical line a backslash splice glues
// onto it, so an own-line marker above a multi-line macro covers the
// violation on the continuation line.
TEST(LintTest, SuppressionCoversContinuationLines) {
  const LintRun run = RunLint("tests/testdata/lint/src/fixture_continuation.cc");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(run.output, "");
}

// A marker whose rule never fires on its target line is itself a finding.
TEST(LintTest, StaleSuppressionIsReported) {
  const LintRun run =
      RunLint("tests/testdata/lint/src/fixture_stale_suppression.cc");
  ASSERT_EQ(run.exit_code, 1) << run.output;
  EXPECT_TRUE(run.output.find("fixture_stale_suppression.cc:6: "
                              "[stale-suppression]") != std::string::npos)
      << run.output;
}

// The layering policy rejects the DAG-inverting include (geo -> serve)
// and stays silent on the legal downward edge (geo -> common) in the
// same file.
TEST(LintTest, LayeringRejectsInvertedInclude) {
  const LintRun run = RunLint("tests/testdata/lint/layering");
  ASSERT_EQ(run.exit_code, 1) << run.output;
  const auto findings = ParseFindings(run.output);
  const std::multimap<std::string, std::string> expected = {
      {"fixture_layering.cc", "layering"},
  };
  EXPECT_EQ(findings, expected) << run.output;
  EXPECT_TRUE(run.output.find("serve") != std::string::npos) << run.output;
}

// Status-returning names collected from the header are enforced at call
// sites in the companion source file: the bare call, the member call and
// the braceless-if body are findings; assignment and void-casts are not.
TEST(LintTest, MustUseStatusFindsDiscardedCallsAcrossFiles) {
  const LintRun run = RunLint("tests/testdata/lint/statuslib");
  ASSERT_EQ(run.exit_code, 1) << run.output;
  for (const char* want :
       {"fixture_must_use_status.cc:11: [must-use-status]",
        "fixture_must_use_status.cc:12: [must-use-status]",
        "fixture_must_use_status.cc:17: [must-use-status]"}) {
    EXPECT_TRUE(run.output.find(want) != std::string::npos)
        << want << "\n" << run.output;
  }
  EXPECT_EQ(ParseFindings(run.output).size(), 3u) << run.output;
}

// In a class that owns a mutex, the annotated member passes and the bare
// member is a finding — for std::mutex and common::SharedMutex alike.
TEST(LintTest, LockDisciplineFlagsUnannotatedField) {
  const LintRun run =
      RunLint("tests/testdata/lint/src/fixture_lock_discipline.cc");
  ASSERT_EQ(run.exit_code, 1) << run.output;
  EXPECT_TRUE(run.output.find("fixture_lock_discipline.cc:16: "
                              "[lock-discipline]") != std::string::npos)
      << run.output;
  EXPECT_TRUE(run.output.find("hits_") != std::string::npos) << run.output;
  EXPECT_TRUE(run.output.find("misses_") != std::string::npos) << run.output;
  EXPECT_EQ(ParseFindings(run.output).size(), 2u) << run.output;
}

// The observability layer is library code — src/obs/ must satisfy every
// rule, including raw-timing, raw-thread and stdout-io.
TEST(LintTest, ObservabilityLayerIsClean) {
  const LintRun run = RunLint("src/obs");
  EXPECT_EQ(run.exit_code, 0) << "src/obs has lint findings:\n"
                              << run.output;
  EXPECT_EQ(run.output, "");
}

// The full tree — library, tests, benches, the linter's own source under
// tools/ and the examples — is clean under every rule, including the
// cross-file layering and must-use-status passes.
TEST(LintTest, RepositoryIsClean) {
  const LintRun run = RunLint("src tests bench tools examples");
  EXPECT_EQ(run.exit_code, 0) << "repository has lint findings:\n"
                              << run.output;
  EXPECT_EQ(run.output, "");
}

TEST(LintTest, OutputIsMachineReadable) {
  const LintRun run = RunLint("tests/testdata/lint/src/fixture_raw_thread.cc");
  ASSERT_EQ(run.exit_code, 1);
  // file:line: [rule] message
  EXPECT_TRUE(run.output.find(
                  "fixture_raw_thread.cc:5: [raw-thread]") !=
              std::string::npos)
      << run.output;
}

TEST(LintTest, ListRulesCoversCatalogue) {
  const std::vector<std::string> rules = ListedRules();
  const std::vector<std::string> expected = {
      "raw-thread",      "no-exceptions",  "raw-rng",
      "stdout-io",       "header-guard",   "raw-alloc",
      "raw-timing",      "raw-file-write", "raw-serve",
      "raw-simd",        "layering",       "must-use-status",
      "lock-discipline", "stale-suppression"};
  EXPECT_EQ(rules, expected);
}

// docs/STATIC_ANALYSIS.md documents every rule the binary knows about —
// the catalogue cannot drift from the docs unnoticed.
TEST(LintTest, DocsCoverEveryListedRule) {
  std::ifstream docs(std::string(TMN_REPO_ROOT) + "/docs/STATIC_ANALYSIS.md");
  ASSERT_TRUE(docs.is_open());
  std::ostringstream content;
  content << docs.rdbuf();
  const std::string text = content.str();
  const std::vector<std::string> rules = ListedRules();
  ASSERT_FALSE(rules.empty());
  for (const std::string& rule : rules) {
    EXPECT_TRUE(text.find("`" + rule + "`") != std::string::npos)
        << "docs/STATIC_ANALYSIS.md does not document rule " << rule;
  }
}

// --report writes a tmn.run_report/1 document with the per-rule finding
// counters; stable counters must be deterministic for the same tree, so
// a second run over the same input produces identical counters.
TEST(LintTest, ReportWritesRunReportJson) {
  const std::string path = ::testing::TempDir() + "tmn_lint_report.json";
  const LintRun run =
      RunLint("--report=" + path + " tests/testdata/lint/statuslib");
  ASSERT_EQ(run.exit_code, 1) << run.output;
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::ostringstream content;
  content << in.rdbuf();
  const std::string report = content.str();
  for (const char* want :
       {"\"schema\": \"tmn.run_report/1\"",
        "\"name\": \"lint\"",
        "\"tmn.lint.files_scanned\", \"type\": \"counter\", "
        "\"stability\": \"stable\", \"value\": 2",
        "\"tmn.lint.findings_total\", \"type\": \"counter\", "
        "\"stability\": \"stable\", \"value\": 3",
        "\"tmn.lint.findings.must-use-status\", \"type\": \"counter\", "
        "\"stability\": \"stable\", \"value\": 3",
        "\"tmn.lint.findings.raw-thread\", \"type\": \"counter\", "
        "\"stability\": \"stable\", \"value\": 0",
        "\"tmn.lint.wall_seconds\", \"type\": \"gauge\", "
        "\"stability\": \"unstable\""}) {
    EXPECT_TRUE(report.find(want) != std::string::npos)
        << "missing: " << want << "\n" << report;
  }
}

TEST(LintTest, UsageErrorOnNoArguments) {
  const LintRun run = RunLint("");
  EXPECT_EQ(run.exit_code, 2);
}

TEST(LintTest, MissingPathIsAnError) {
  const LintRun run = RunLint("no/such/dir");
  EXPECT_EQ(run.exit_code, 2);
}

TEST(LintTest, MissingExplicitLayeringPolicyIsAnError) {
  const LintRun run = RunLint("--layering=no/such/policy.toml src/obs");
  EXPECT_EQ(run.exit_code, 2);
}

// --- clang thread-safety lane -------------------------------------------
//
// gcc compiles the TMN_GUARDED_BY annotations away, so these two tests
// only prove anything under clang; they skip (with a notice) when clang++
// is not installed. CI installs clang, so its release lane runs them.

constexpr char kThreadSafetyFlags[] =
    "-std=c++20 -fsyntax-only -Isrc -Wthread-safety -Werror ";

TEST(ThreadSafetyTest, AnalysisAcceptsAnnotatedCode) {
  if (!HaveClang()) GTEST_SKIP() << "clang++ not installed";
  const LintRun run =
      RunCommand(std::string("clang++ ") + kThreadSafetyFlags +
                 "tests/testdata/threadsafety/ts_good.cc");
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(ThreadSafetyTest, AnalysisRejectsUnlockedGuardedAccess) {
  if (!HaveClang()) GTEST_SKIP() << "clang++ not installed";
  const LintRun run =
      RunCommand(std::string("clang++ ") + kThreadSafetyFlags +
                 "tests/testdata/threadsafety/ts_bad.cc");
  EXPECT_NE(run.exit_code, 0)
      << "the deliberate unlocked access compiled clean — the "
         "thread-safety analysis is not biting";
}

}  // namespace
