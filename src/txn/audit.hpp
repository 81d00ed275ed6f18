#pragma once
// Transaction-conservation auditor: end-to-end bookkeeping of every
// transaction a master issues, independent of the interconnect engines'
// own tracking tables.  The auditor proves three global properties the
// paper's results silently rely on:
//
//   no loss         — every issued, awaited transaction eventually retires
//                     (checked at sim teardown via finish());
//   no duplication  — no transaction id is ever issued twice, and no
//                     transaction retires twice;
//   no spurious completion — a retirement always matches a live issue.
//
// Masters report through the hooks in MasterBase::issue()
// and MasterBase::collectResponses(); bridges forward their master sides, so
// re-issued clones are audited as first-class transactions.  The auditor is
// deliberately dumb — a map of live ids — precisely so it cannot share a bug
// with the interconnect inflight tables it cross-checks.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "sim/check.hpp"
#include "txn/transaction.hpp"

namespace mpsoc::txn {

class TxnAuditor {
 public:
  /// Record an issue.  `fire_and_forget` marks posted writes, which retire
  /// at issue and must never see a response.
  void onIssue(const sim::ClockDomain& clk, const Request& req,
               bool fire_and_forget);

  /// Record a retirement (response delivered back to the issuing master).
  void onRetire(const sim::ClockDomain& clk, const Response& rsp);

  std::uint64_t issued() const { return issued_; }
  std::uint64_t retired() const { return retired_; }
  std::size_t inFlight() const { return live_.size(); }

  /// End-of-run audit.  When `expect_drained` is set (finite workloads run
  /// to completion) any still-live transaction is reported as a leak; for
  /// bounded runFor()-style runs pass false and only the counters are
  /// reconciled.
  void finish(bool expect_drained) const;

  /// Checkpoint hooks (replayCheck oracles): the rewound timeline re-issues the
  /// same transactions, which the no-duplication books would flag unless the
  /// ledger is wound back with the simulation.
  void saveCheckpoint() {
    ckpt_live_ = live_;
    ckpt_completed_ = completed_;
    ckpt_issued_ = issued_;
    ckpt_retired_ = retired_;
  }
  void restoreCheckpoint() {
    live_ = ckpt_live_;
    completed_ = ckpt_completed_;
    issued_ = ckpt_issued_;
    retired_ = ckpt_retired_;
  }

 private:
  struct Live {
    std::string source;
    std::uint64_t addr = 0;
    sim::Picos issued_ps = 0;
  };

  std::unordered_map<std::uint64_t, Live> live_;
  std::unordered_set<std::uint64_t> completed_;
  std::uint64_t issued_ = 0;
  std::uint64_t retired_ = 0;
  std::unordered_map<std::uint64_t, Live> ckpt_live_;
  std::unordered_set<std::uint64_t> ckpt_completed_;
  std::uint64_t ckpt_issued_ = 0;
  std::uint64_t ckpt_retired_ = 0;
};

}  // namespace mpsoc::txn
