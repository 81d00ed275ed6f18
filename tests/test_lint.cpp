// Self-test corpus for the mpsoc_lint static checker (tools/mpsoc_lint.cpp).
//
// tests/lint/ holds one directory per rule.  Each directory contains a
// deliberately-bad fixture (`bad.*`) whose findings are pinned below, plus an
// `allowed.*` twin where the identical defect carries an
// `// mpsoc-lint: allow(<rule>)` annotation and must be silent.  A rule with
// more than one bad shape pins each in its own fixture (shared-static:
// namespace-scope `bad.cpp` and evaluate()-local `bad_evaluate.cpp`).
// tests/lint/clean/ collects near-misses (static_assert, `static const`,
// ordered std::map iteration) that must not fire at all; the unmanifested-state corpus keeps its near-misses (auto-exempt
// references/const, dotted foreign entries, WITH_BASE base argument) in its
// own clean.hpp next to the rigs.
//
// The fixtures live under a nested src/ (and src/stbus) so the path-scoped
// rules see them as kernel / protocol code; the whole-tree lint invocations
// exclude the corpus with `--skip tests/lint/`.
//
// The test shells out to the real binary (MPSOC_LINT_BIN, injected by CMake)
// and diffs the parsed findings against the expected set — rule name, file
// and line must all match exactly, so a rule that drifts (fires on a new
// line, stops firing, or double-reports) fails here before it pollutes a
// whole-tree run.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <regex>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#ifndef MPSOC_LINT_BIN
#error "MPSOC_LINT_BIN must point at the mpsoc_lint executable"
#endif
#ifndef MPSOC_LINT_FIXTURES
#error "MPSOC_LINT_FIXTURES must point at tests/lint"
#endif

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;
  // Findings parsed from `path:line: [rule] message` lines, keyed as
  // (path-relative-to-fixture-root, line, rule).
  std::set<std::tuple<std::string, int, std::string>> findings;
};

LintRun runLint(const std::string& args) {
  LintRun run;
  const std::string cmd =
      std::string(MPSOC_LINT_BIN) + " " + args + " 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    run.output = "popen failed for: " + cmd;
    return run;
  }
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    run.output.append(buf.data(), n);
  }
  const int status = ::pclose(pipe);
  run.exit_code = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status)
                                                     : status;

  static const std::regex finding_re(R"(^(.+):(\d+): \[([\w-]+)\])");
  std::size_t pos = 0;
  const std::string root = std::string(MPSOC_LINT_FIXTURES) + "/";
  while (pos < run.output.size()) {
    std::size_t eol = run.output.find('\n', pos);
    if (eol == std::string::npos) eol = run.output.size();
    const std::string line = run.output.substr(pos, eol - pos);
    pos = eol + 1;
    std::smatch m;
    if (!std::regex_search(line, m, finding_re)) continue;
    std::string path = m[1].str();
    if (path.rfind(root, 0) == 0) path.erase(0, root.size());
    run.findings.emplace(path, std::stoi(m[2].str()), m[3].str());
  }
  return run;
}

std::string fixtureDir(const std::string& rule) {
  return std::string(MPSOC_LINT_FIXTURES) + "/" + rule;
}

// One pinned fixture: a rule's directory must report exactly the (file, line)
// locations of its cases — and nothing else, which also proves the allow()
// twin fixtures stay silent.
struct RuleCase {
  const char* rule;
  const char* file;               // relative to tests/lint/
  std::vector<int> lines;         // every expected finding line in `file`
};

const std::vector<RuleCase>& ruleCases() {
  static const std::vector<RuleCase> cases = {
      {"bare-assert", "bare-assert/src/bad.cpp", {5}},
      {"nondeterminism", "nondeterminism/src/bad.cpp", {5}},
      {"unordered-iter", "unordered-iter/src/bad.cpp", {8}},
      {"commit-in-evaluate", "commit-in-evaluate/src/bad.cpp", {5}},
      {"monitor-registration", "monitor-registration/src/stbus/bad.hpp", {6}},
      {"raw-txn-fifo", "raw-txn-fifo/src/bad.hpp", {5}},
      {"idle-busy-poll", "idle-busy-poll/src/bad.cpp", {4}},
      {"shared-static", "shared-static/src/bad.cpp", {4}},
      // A mutable static inside evaluate() is shared by concurrent sweep
      // workers just the same.
      {"shared-static", "shared-static/src/bad_evaluate.cpp", {4}},
      // Line 9: member in no manifest.  Line 10: duplicate entry and a typo'd
      // name (two findings, one pinned location).  Line 13: a Component
      // subclass with state but no manifest at all.
      {"unmanifested-state", "unmanifested-state/src/bad.hpp", {9, 10, 13}},
      // Line 6: first loosely-timed hook in a file with no LT-EQUIV: tag.
      // The allowed.hpp / clean.hpp twins (annotation, evidence tag) must
      // both stay silent.
      {"lt-equiv-tag", "lt-equiv-tag/src/bad.hpp", {6}},
  };
  return cases;
}

// Pinned findings of every fixture of `rule` (of all rules when empty).
std::set<std::tuple<std::string, int, std::string>> expectedFindings(
    const std::string& rule = "") {
  std::set<std::tuple<std::string, int, std::string>> out;
  for (const RuleCase& rc : ruleCases()) {
    if (!rule.empty() && rule != rc.rule) continue;
    for (int line : rc.lines) out.emplace(rc.file, line, rc.rule);
  }
  return out;
}

}  // namespace

// Every rule directory: the bad fixtures yield exactly the pinned findings
// (exit 1), and the allow()-annotated twins contribute none.
TEST(Lint, RuleFixturesMatchExpectedFindings) {
  std::set<std::string> rules;
  for (const RuleCase& rc : ruleCases()) rules.insert(rc.rule);
  for (const std::string& rule : rules) {
    SCOPED_TRACE(rule);
    const LintRun run = runLint(fixtureDir(rule));
    EXPECT_EQ(run.exit_code, 1) << run.output;
    EXPECT_EQ(run.findings, expectedFindings(rule)) << run.output;
  }
}

// The near-miss corpus must be entirely clean: lookalikes of the rule
// triggers (static_assert, `static const`, ordered-map range-for) are not
// findings.
TEST(Lint, CleanCorpusHasNoFindings) {
  const LintRun run = runLint(fixtureDir("clean"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_TRUE(run.findings.empty()) << run.output;
}

// Deterministic report: two invocations over the whole corpus produce
// byte-identical output (findings are emitted in sorted file order).
TEST(Lint, ReportIsDeterministic) {
  const LintRun a = runLint(std::string(MPSOC_LINT_FIXTURES));
  const LintRun b = runLint(std::string(MPSOC_LINT_FIXTURES));
  EXPECT_EQ(a.exit_code, 1);
  EXPECT_EQ(a.output, b.output);
  // Exactly the union of the per-rule expectations — nothing extra hides in
  // a fixture meant for another rule.
  EXPECT_EQ(a.findings, expectedFindings()) << a.output;
}

// --skip excludes matching paths: skipping the corpus root leaves nothing to
// lint, so the run is clean.  This is the mechanism the mpsoc_lint ctest
// relies on to keep the deliberately-bad fixtures out of whole-tree runs.
TEST(Lint, SkipExcludesCorpus) {
  const LintRun run =
      runLint("--skip tests/lint/ " + std::string(MPSOC_LINT_FIXTURES));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_TRUE(run.findings.empty()) << run.output;
}

// --list-rules documents every rule the corpus exercises: a rule added
// without registering it in the kRules table fails here.
TEST(Lint, ListRulesCoversEveryExercisedRule) {
  const LintRun run = runLint("--list-rules");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  for (const RuleCase& rc : ruleCases()) {
    EXPECT_NE(run.output.find(std::string(rc.rule) + " - "),
              std::string::npos)
        << "rule '" << rc.rule << "' missing from --list-rules:\n"
        << run.output;
  }
}

// --json mirrors the human report as a machine-readable document: the same
// pinned findings appear as {"file", "line", "rule"} objects, and the exit
// code semantics are unchanged.
TEST(Lint, JsonReportCarriesPinnedFindings) {
  const LintRun run = runLint("--json " + fixtureDir("unmanifested-state"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("\"files\": 3"), std::string::npos) << run.output;
  for (int line : {9, 10, 13}) {
    const std::string needle = "\"line\": " + std::to_string(line) +
                               ", \"rule\": \"unmanifested-state\"";
    EXPECT_NE(run.output.find(needle), std::string::npos)
        << needle << " not in:\n"
        << run.output;
  }
  // A clean run still emits a (finding-free) document.
  const LintRun clean = runLint("--json " + fixtureDir("clean"));
  EXPECT_EQ(clean.exit_code, 0) << clean.output;
  EXPECT_NE(clean.output.find("\"findings\": []"), std::string::npos)
      << clean.output;
}
