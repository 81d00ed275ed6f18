#pragma once
// Canonical digests of scenario results, the anchor of the golden-stats
// regression net.  A digest is computed from a canonical text serialization
// of every figure-bearing metric (executed cycles and edges, retirements,
// byte counts, latency moments and tails, LMI counters, FIFO state fractions,
// per-master latency spread).  Doubles are rendered with round-trip precision
// (%.17g), so two results digest equal iff every metric is bit-identical —
// a single-cycle deviation in a locked scenario changes the digest.
//
// Used by:
//   * tests/test_golden_stats.cpp — diffs live runs against tests/golden/;
//   * the -j1-vs-jN determinism tests;
//   * mpsoc_run --sweep, which prints a digest per point.

#include <cstdint>
#include <string>

#include "core/experiment.hpp"

namespace mpsoc::core {

/// Canonical one-line-per-field serialization of every locked metric.
/// Stable across platforms for identical results; meant for exact string
/// comparison and for human-readable golden-file diffs.
std::string digestText(const ScenarioResult& r);

/// FNV-1a over digestText().
std::uint64_t digestValue(const ScenarioResult& r);

/// digestValue() as fixed-width lowercase hex ("0f3a...").
std::string digestHex(const ScenarioResult& r);

}  // namespace mpsoc::core
