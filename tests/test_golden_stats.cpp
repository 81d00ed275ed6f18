// Golden-stats regression net: every shipped scenario and one small config
// per paper figure is locked to a canonical digest in tests/golden/.  The
// digest covers every figure-bearing metric at round-trip double precision
// (core/digest.hpp), so a single-cycle deviation anywhere fails here with a
// field-level diff.
//
// The shipped scenarios run fully checked: protocol monitors and transaction
// auditor attached (`verify`) and the checkpoint-equivalence oracle on
// (`statecheck`).  A match therefore also proves both oracles are green on
// every shipped platform and leave its results untouched.
//
// Updating the goldens after an *intentional* behaviour change:
//
//   MPSOC_UPDATE_GOLDEN=1 ctest -L golden     # or run mpsoc_golden_tests
//   git diff tests/golden/                    # review every changed metric
//
// The update path rewrites the files and still reports the old/new fields,
// so the review happens in the git diff, not from memory.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/digest.hpp"
#include "core/experiment.hpp"
#include "platform/scenario_parser.hpp"

#ifndef MPSOC_GOLDEN_DIR
#error "MPSOC_GOLDEN_DIR must point at tests/golden"
#endif
#ifndef MPSOC_SCENARIO_DIR
#error "MPSOC_SCENARIO_DIR must point at tools/scenarios"
#endif

namespace {

using namespace mpsoc;

// --- golden case registry -------------------------------------------------

struct GoldenCase {
  std::string name;  ///< golden file stem and gtest parameter name
  core::ScenarioResult (*run)();
};

// Print a case by name.  gtest's default dumps the object's raw bytes,
// heap and code addresses included, into the `# GetParam() = ...` suffix
// that gtest_discover_tests folds into the ctest test name, so every
// discovery run would name these tests differently.
void PrintTo(const GoldenCase& gc, std::ostream* os) { *os << gc.name; }

core::ScenarioResult runScenarioFile(const char* stem) {
  auto sc =
      platform::loadScenario(std::string(MPSOC_SCENARIO_DIR) + "/" + stem);
  sc.config.verify = true;
  sc.config.statecheck = true;
  return core::runScenario(sc.config, sc.name);
}

// Small per-figure configs: the figure's characteristic operating point at a
// reduced workload scale, so the whole golden suite stays fast while still
// exercising every subsystem the figure depends on.

core::ScenarioResult runFig3Small() {
  platform::PlatformConfig cfg;
  cfg.protocol = platform::Protocol::Stbus;
  cfg.topology = platform::Topology::Full;
  cfg.memory = platform::MemoryKind::OnChip;
  cfg.onchip_wait_states = 1;
  cfg.workload_scale = 0.25;
  return core::runScenario(cfg, "fig3-small");
}

core::ScenarioResult runFig4Small() {
  platform::PlatformConfig cfg;
  cfg.protocol = platform::Protocol::Stbus;
  cfg.topology = platform::Topology::Collapsed;
  cfg.memory = platform::MemoryKind::OnChip;
  cfg.onchip_wait_states = 8;
  cfg.agent_outstanding_override = 1;
  cfg.agent_burst_override_beats = 4;
  cfg.workload_scale = 0.25;
  return core::runScenario(cfg, "fig4-small");
}

core::ScenarioResult runFig5Small() {
  platform::PlatformConfig cfg;
  cfg.protocol = platform::Protocol::Stbus;
  cfg.topology = platform::Topology::Full;
  cfg.memory = platform::MemoryKind::Lmi;
  cfg.workload_scale = 0.25;
  return core::runScenario(cfg, "fig5-small");
}

core::ScenarioResult runFig6Small() {
  platform::PlatformConfig cfg;
  cfg.protocol = platform::Protocol::Stbus;
  cfg.topology = platform::Topology::Full;
  cfg.memory = platform::MemoryKind::Lmi;
  cfg.lmi.clock_divider = 3;
  cfg.two_phase_workload = true;
  cfg.phase1_end_ps = 100'000'000;  // shortened two-regime run
  cfg.phase2_end_ps = 200'000'000;
  return core::runScenarioFor(cfg, "fig6-small", cfg.phase2_end_ps);
}

const std::vector<GoldenCase>& goldenCases() {
  static const std::vector<GoldenCase> cases = {
      {"fig3_full_stbus", [] { return runScenarioFile("fig3_full_stbus.scn"); }},
      {"fig3_full_ahb", [] { return runScenarioFile("fig3_full_ahb.scn"); }},
      {"fig5_collapsed_axi",
       [] { return runScenarioFile("fig5_collapsed_axi.scn"); }},
      {"record_use_case",
       [] { return runScenarioFile("record_use_case.scn"); }},
      {"noc_mesh", [] { return runScenarioFile("noc_mesh.scn"); }},
      {"fig3_small", runFig3Small},
      {"fig4_small", runFig4Small},
      {"fig5_small", runFig5Small},
      {"fig6_small", runFig6Small},
  };
  return cases;
}

// --- golden file I/O ------------------------------------------------------

using FieldMap = std::map<std::string, std::string>;

/// digestText() is `key=value` lines; split into an ordered map for
/// field-level diffs.
FieldMap fieldsOf(const core::ScenarioResult& r) {
  FieldMap fields;
  std::istringstream is(core::digestText(r));
  std::string line;
  while (std::getline(is, line)) {
    const auto eq = line.find('=');
    if (eq != std::string::npos) {
      fields[line.substr(0, eq)] = line.substr(eq + 1);
    }
  }
  return fields;
}

std::string goldenPath(const std::string& name) {
  return std::string(MPSOC_GOLDEN_DIR) + "/" + name + ".json";
}

/// Serialize as JSON with one field per line: stable, diff-friendly, and
/// parseable with a line scanner (no value ever contains a quote).
std::string toGoldenJson(const std::string& name,
                         const core::ScenarioResult& r) {
  std::ostringstream os;
  os << "{\n  \"name\": \"" << name << "\",\n  \"digest\": \""
     << core::digestHex(r) << "\",\n  \"fields\": {\n";
  const FieldMap fields = fieldsOf(r);
  std::size_t i = 0;
  for (const auto& [k, v] : fields) {
    os << "    \"" << k << "\": \"" << v << "\""
       << (++i < fields.size() ? "," : "") << "\n";
  }
  os << "  }\n}\n";
  return os.str();
}

/// Parse the golden file's digest and field map (line scanner, see writer).
bool loadGolden(const std::string& path, std::string& digest,
                FieldMap& fields) {
  std::ifstream ifs(path);
  if (!ifs) return false;
  std::string line;
  while (std::getline(ifs, line)) {
    const auto k0 = line.find('"');
    if (k0 == std::string::npos) continue;
    const auto k1 = line.find('"', k0 + 1);
    const auto colon = line.find(':', k1);
    if (k1 == std::string::npos || colon == std::string::npos) continue;
    const auto v0 = line.find('"', colon);
    const auto v1 = line.rfind('"');
    if (v0 == std::string::npos || v1 <= v0) continue;
    const std::string key = line.substr(k0 + 1, k1 - k0 - 1);
    const std::string value = line.substr(v0 + 1, v1 - v0 - 1);
    if (key == "digest") {
      digest = value;
    } else if (key != "name" && key != "fields") {
      fields[key] = value;
    }
  }
  return true;
}

bool updateMode() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once during single-threaded
  // test setup; nothing in this process calls setenv/putenv.
  const char* v = std::getenv("MPSOC_UPDATE_GOLDEN");
  return v != nullptr && std::string(v) == "1";
}

// --- the test -------------------------------------------------------------

class GoldenStats : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenStats, MatchesGolden) {
  const GoldenCase& gc = GetParam();
  const core::ScenarioResult r = gc.run();
  const std::string path = goldenPath(gc.name);

  if (updateMode()) {
    std::ofstream ofs(path);
    ASSERT_TRUE(ofs) << "cannot write " << path;
    ofs << toGoldenJson(gc.name, r);
    std::cout << "[golden] updated " << path << " (digest "
              << core::digestHex(r) << ")\n";
    return;
  }

  std::string golden_digest;
  FieldMap golden_fields;
  ASSERT_TRUE(loadGolden(path, golden_digest, golden_fields))
      << "missing golden file " << path
      << "\nGenerate it with:  MPSOC_UPDATE_GOLDEN=1 ctest -L golden";

  const FieldMap fields = fieldsOf(r);
  for (const auto& [k, v] : golden_fields) {
    const auto it = fields.find(k);
    if (it == fields.end()) {
      ADD_FAILURE() << gc.name << ": field '" << k
                    << "' in golden but absent from live result";
    } else if (it->second != v) {
      ADD_FAILURE() << gc.name << ": field '" << k << "' golden=" << v
                    << " live=" << it->second;
    }
  }
  for (const auto& [k, v] : fields) {
    if (!golden_fields.count(k)) {
      ADD_FAILURE() << gc.name << ": new field '" << k << "'=" << v
                    << " not in golden (regenerate after review)";
    }
  }
  EXPECT_EQ(core::digestHex(r), golden_digest)
      << gc.name << ": digest mismatch (field diffs above, if any; "
      << "MPSOC_UPDATE_GOLDEN=1 regenerates after review)";
}

INSTANTIATE_TEST_SUITE_P(All, GoldenStats, ::testing::ValuesIn(goldenCases()),
                         [](const ::testing::TestParamInfo<GoldenCase>& info) {
                           return info.param.name;
                         });

}  // namespace
