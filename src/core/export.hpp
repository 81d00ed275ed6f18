#pragma once
// Machine-readable export of experiment results: CSV rows for spreadsheet
// plotting and a small hand-rolled JSON encoding for downstream tooling.

#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/sweep.hpp"

namespace mpsoc::core {

/// One header line plus one row per scenario.
std::string toCsv(const std::vector<ScenarioResult>& results);

/// A single scenario as a JSON object (phases included).
std::string toJson(const ScenarioResult& r, int indent = 0);

/// A scenario list as a JSON array.
std::string toJson(const std::vector<ScenarioResult>& results);

/// A sweep outcome as a JSON object (the sweep JSON schema): per-point
/// status, canonical digest, wall-clock and simulation throughput, plus the
/// full scenario metrics of every successful point.
std::string toSweepJson(const SweepOutcome& sweep, unsigned jobs);

}  // namespace mpsoc::core
