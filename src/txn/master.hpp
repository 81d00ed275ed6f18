#pragma once
// MasterBase: shared issue/retire machinery for every transaction source
// (IPTG agents, the ST220 core, bridge master sides).
//
// Tracks outstanding transactions against a configurable limit — the
// "multiple outstanding transaction capability of bus master interfaces" that
// the paper identifies as precondition (i) for distributed architectures to
// win (guideline 3).  Posted writes are fire-and-forget: they retire when the
// request is pushed and never occupy an outstanding slot.

#include <cstdint>
#include <string>

#include "sim/component.hpp"
#include "stats/probes.hpp"
#include "txn/ports.hpp"
#include "txn/transaction.hpp"

namespace mpsoc::txn {

class TxnAuditor;

class MasterBase : public sim::Component {
 public:
  MasterBase(sim::ClockDomain& clk, std::string name, InitiatorPort& port,
             unsigned max_outstanding);

  /// True when a new non-posted transaction may be issued this cycle.
  bool canIssue() const;
  /// True when a posted write may be issued this cycle (port space only).
  bool canIssuePosted() const;

  /// Stamp, count and push a request.  The caller must have checked
  /// canIssue()/canIssuePosted().
  void issue(const RequestPtr& req);

  /// Drain the response FIFO; updates outstanding counts and latency stats.
  /// Calls onResponse() for each retired transaction.
  void collectResponses();

  unsigned outstanding() const { return outstanding_; }
  unsigned maxOutstanding() const { return max_outstanding_; }
  std::uint64_t issued() const { return issued_; }
  std::uint64_t retired() const { return retired_; }
  std::uint64_t bytesRead() const { return bytes_read_; }
  std::uint64_t bytesWritten() const { return bytes_written_; }
  const stats::LatencyProbe& latency() const { return latency_; }

  // --- loosely-timed (approximate) traffic accounting -----------------------
  //
  // Traffic committed by the fast-forward engine (src/sim/fastforward.hpp)
  // never traverses the ports, so it is booked in these separate counters:
  // the accurate issued_/retired_/bytes_* counters and the canonical result
  // digest (core::digestText) only ever see cycle-accurate traffic.
  std::uint64_t ltIssued() const { return lt_issued_; }
  std::uint64_t ltRetired() const { return lt_retired_; }
  std::uint64_t ltBytesRead() const { return lt_bytes_read_; }
  std::uint64_t ltBytesWritten() const { return lt_bytes_written_; }

  /// Report every issue/retire to a transaction-conservation auditor
  /// (src/txn/audit.hpp).  Unset (the default), the hooks are a null test.
  void setAuditor(TxnAuditor* auditor) { auditor_ = auditor; }

 protected:
  /// Hook for subclasses (e.g. unblocking a stalled CPU, advancing an agent).
  virtual void onResponse(const ResponsePtr& rsp) { (void)rsp; }

  /// Book one quantum's worth of loosely-timed traffic (retired at commit —
  /// LT transactions never occupy an outstanding slot).
  void ltRecord(std::uint64_t transactions, std::uint64_t read_bytes,
                std::uint64_t write_bytes) {
    lt_issued_ += transactions;
    lt_retired_ += transactions;
    lt_bytes_read_ += read_bytes;
    lt_bytes_written_ += write_bytes;
  }

  InitiatorPort& port_;

 private:
  unsigned max_outstanding_;
  TxnAuditor* auditor_ = nullptr;
  unsigned outstanding_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t retired_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t lt_issued_ = 0;
  std::uint64_t lt_retired_ = 0;
  std::uint64_t lt_bytes_read_ = 0;
  std::uint64_t lt_bytes_written_ = 0;
  stats::LatencyProbe latency_;

  SIM_STATE_MEMBERS(outstanding_, issued_, retired_, bytes_read_,
                    bytes_written_, lt_issued_, lt_retired_, lt_bytes_read_,
                    lt_bytes_written_, latency_);
  SIM_STATE_EXEMPT(max_outstanding_, "immutable configuration");
  SIM_STATE_EXEMPT(auditor_, "cached auditor pointer (observer wiring)");
};

}  // namespace mpsoc::txn
