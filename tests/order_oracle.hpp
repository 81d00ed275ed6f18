#pragma once
// Lockstep state comparison of two simulators built from the same platform
// description, and the order oracle built on it.
//
// The two-phase kernel promises that results do not depend on the order in
// which components are registered.  The order oracle checks that promise
// directly: it steps one copy of a platform in forward order and a second
// copy with Simulator::setReverseOrder(true), edge by edge, and after every
// edge compares every updatable's checkpointDigest() (FIFO contents, not just
// occupancy).  Every kFullCompareEvery edges and at the end it also compares
// all stateDigestItems() — every component manifest, the kernel time state
// and the registered checkpointables.  The first holder that differs is named
// with the edge number and instant.
//
// runLockstep() is the same comparison with no order switch, for pairs that
// differ in another kernel setting (activity gating on versus off).
// runPlatformOrderOracle() builds a platform configuration twice and runs the
// order oracle over it.

#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "platform/config.hpp"
#include "platform/platform.hpp"
#include "sim/clock.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace mpsoc::testutil {

/// Edges between two comparisons of every labelled state digest; the FIFO
/// digests are compared after every edge.
inline constexpr std::uint64_t kFullCompareEvery = 1024;

struct LockstepReport {
  std::uint64_t edges = 0;  ///< edges stepped (the diverging one included)
  sim::Picos t = 0;         ///< instant of the last edge stepped
  bool diverged = false;
  std::string holder;       ///< FIFO name or state-item label that differed
  std::string what;         ///< one-line human-readable report
};

namespace detail {

inline void noteDivergence(LockstepReport& r, std::string holder,
                           std::uint64_t a, std::uint64_t b) {
  r.diverged = true;
  r.holder = std::move(holder);
  std::ostringstream os;
  os << "state divergence at edge " << r.edges << " (t=" << r.t << " ps): '"
     << r.holder << "' digests 0x" << std::hex << a << " vs 0x" << b;
  r.what = os.str();
}

/// Compare the committed contents of every updatable, domain by domain.
inline bool compareUpdatables(const sim::Simulator& a, const sim::Simulator& b,
                              LockstepReport& r) {
  if (a.domains().size() != b.domains().size()) {
    noteDivergence(r, "kernel:domains", a.domains().size(),
                   b.domains().size());
    return false;
  }
  for (std::size_t d = 0; d < a.domains().size(); ++d) {
    const auto& ua = a.domains()[d]->updatables();
    const auto& ub = b.domains()[d]->updatables();
    if (ua.size() != ub.size()) {
      noteDivergence(r, a.domains()[d]->name() + ":updatables", ua.size(),
                     ub.size());
      return false;
    }
    for (std::size_t i = 0; i < ua.size(); ++i) {
      const std::uint64_t da = ua[i]->checkpointDigest();
      const std::uint64_t db = ub[i]->checkpointDigest();
      if (da != db) {
        noteDivergence(r, ua[i]->updatableName(), da, db);
        return false;
      }
    }
  }
  return true;
}

/// Compare every labelled state digest (components, updatables, kernel time,
/// checkpointables).
inline bool compareStateItems(const sim::Simulator& a, const sim::Simulator& b,
                              LockstepReport& r) {
  std::vector<std::pair<std::string, std::uint64_t>> ia;
  std::vector<std::pair<std::string, std::uint64_t>> ib;
  a.stateDigestItems(ia);
  b.stateDigestItems(ib);
  if (ia.size() != ib.size()) {
    noteDivergence(r, "kernel:state-items", ia.size(), ib.size());
    return false;
  }
  for (std::size_t i = 0; i < ia.size(); ++i) {
    if (ia[i].second != ib[i].second) {
      noteDivergence(r, ia[i].first, ia[i].second, ib[i].second);
      return false;
    }
  }
  return true;
}

}  // namespace detail

/// Step `a` and `b` one edge at a time until `stop()` returns true or `a`
/// has reached `until` (both checked between edges), comparing state after
/// every edge.  Stops at the first divergence.
inline LockstepReport runLockstep(
    sim::Simulator& a, sim::Simulator& b,
    sim::Picos until = std::numeric_limits<sim::Picos>::max(),
    const std::function<bool()>& stop = nullptr) {
  LockstepReport r;
  while (a.now() < until && !(stop && stop())) {
    const bool stepped_a = a.step();
    const bool stepped_b = b.step();
    if (!stepped_a || !stepped_b) break;
    ++r.edges;
    r.t = a.now();
    if (a.now() != b.now()) {
      detail::noteDivergence(r, "kernel:now", a.now(), b.now());
      return r;
    }
    if (!detail::compareUpdatables(a, b, r)) return r;
    if (r.edges % kFullCompareEvery == 0 &&
        !detail::compareStateItems(a, b, r)) {
      return r;
    }
  }
  detail::compareStateItems(a, b, r);
  return r;
}

/// The order oracle: `rev` evaluates in reverse order, `fwd` as registered.
inline LockstepReport runOrderOracle(
    sim::Simulator& fwd, sim::Simulator& rev,
    sim::Picos until = std::numeric_limits<sim::Picos>::max(),
    const std::function<bool()>& stop = nullptr) {
  rev.setReverseOrder(true);
  return runLockstep(fwd, rev, until, stop);
}

/// The order oracle on a full platform: builds `cfg` twice and steps both
/// copies until each has finished its workload and gone quiet, or until
/// `until`.  With `cfg.verify` the monitors watch both copies, and the leak
/// audit runs at the end when no state diverged.
inline LockstepReport runPlatformOrderOracle(
    const platform::PlatformConfig& cfg,
    sim::Picos until = 50'000'000'000ull) {
  platform::Platform fwd(cfg);
  platform::Platform rev(cfg);
  auto quiet = [](platform::Platform& p) {
    return p.allDone() && !p.simulator().anyComponentBusy();
  };
  LockstepReport r = runOrderOracle(fwd.simulator(), rev.simulator(), until,
                                    [&] { return quiet(fwd) && quiet(rev); });
  if (!r.diverged && fwd.verifyContext() != nullptr) {
    fwd.verifyContext()->finish(fwd.allDone());
    rev.verifyContext()->finish(rev.allDone());
  }
  return r;
}

}  // namespace mpsoc::testutil
