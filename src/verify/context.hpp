#pragma once
// VerifyContext: the per-platform registry that owns every attached protocol
// monitor plus the transaction-conservation auditor.
//
// A platform (or rig) that opts into verification creates one VerifyContext,
// walks its components calling attachMonitors(ctx) / setAuditor(), and calls
// finish() at the end of the run.  Monitors raise ProtocolViolation the
// instant a rule is broken; finish() performs the teardown audits (stuck
// transactions in monitors, leaks in the auditor).

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "txn/audit.hpp"
#include "verify/monitor.hpp"

namespace mpsoc::verify {

/// The context is itself a sim::Checkpointable: registering it with the
/// simulator (Simulator::addCheckpointable) rewinds every owned monitor and
/// the conservation auditor together with a state restore, so the statecheck
/// oracle's replayed timeline is not flagged against stale observer books.
class VerifyContext : public sim::Checkpointable {
 public:
  VerifyContext();
  ~VerifyContext();

  VerifyContext(const VerifyContext&) = delete;
  VerifyContext& operator=(const VerifyContext&) = delete;

  /// Construct a monitor in place; the context owns it.  Returns a reference
  /// so callers can wire observers (e.g. the SDRAM command observer).
  template <class M, class... Args>
  M& add(Args&&... args) {
    auto m = std::make_unique<M>(std::forward<Args>(args)...);
    M& ref = *m;
    monitors_.push_back(std::move(m));
    return ref;
  }

  /// Conservation auditor masters report issue/retire to.
  txn::TxnAuditor& auditor() { return auditor_; }
  const txn::TxnAuditor& auditor() const { return auditor_; }

  std::size_t monitorCount() const { return monitors_.size(); }

  /// Total port/command events checked across all monitors.  Clean-run tests
  /// assert this is non-zero to prove the monitors actually observed traffic.
  std::uint64_t eventsObserved() const;

  /// Teardown audit: every monitor's finish() plus the conservation audit.
  /// `expect_drained` = the workload ran to completion, so anything still in
  /// flight is a leak; pass false after bounded (runFor-style) runs.
  void finish(bool expect_drained) const;

  void saveCheckpoint() override;
  void restoreCheckpoint() override;
  std::string checkpointName() const override { return "verify"; }

 private:
  std::vector<std::unique_ptr<Monitor>> monitors_;
  txn::TxnAuditor auditor_;
};

}  // namespace mpsoc::verify
