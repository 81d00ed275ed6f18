#include "verify/port_monitor.hpp"

#include <algorithm>
#include <sstream>

namespace mpsoc::verify {

// ---------------------------------------------------------------------------
// InitiatorMonitor

InitiatorMonitor::InitiatorMonitor(std::string name,
                                   const sim::ClockDomain* clk,
                                   txn::InitiatorPort& port,
                                   InitiatorRules rules)
    : Monitor(std::move(name), clk), rules_(std::move(rules)) {
  port.req.addPushTap([this](const txn::RequestPtr& r) { onReqPush(r); });
  port.req.addPopTap([this](const txn::RequestPtr& r) { onReqPop(r); });
  port.rsp.addPushTap([this](const txn::ResponsePtr& r) { onRspPush(r); });
}

void InitiatorMonitor::onReqPush(const txn::RequestPtr& r) {
  countEvent();
  MPSOC_MON_CHECK(r != nullptr, "null request pushed into initiator port");
  MPSOC_MON_CHECK(r->beats >= 1 && r->beats <= rules_.max_burst_beats,
                  "illegal burst length " << r->beats << " (legal: 1.."
                                          << rules_.max_burst_beats << ")");
  MPSOC_MON_CHECK(r->bytes_per_beat >= 1 && r->bytes_per_beat <= 128,
                  "illegal beat width " << r->bytes_per_beat << " bytes");
  MPSOC_MON_CHECK(!r->posted || r->op == txn::Opcode::Write,
                  "posted attribute on a " << toString(r->op)
                                           << " request (only writes may be "
                                              "posted)");
  for (const auto& e : queued_) {
    MPSOC_MON_CHECK(e.id != r->id, "request id " << r->id
                                                 << " issued while already "
                                                    "queued at this port");
  }
  for (const auto& e : accepted_) {
    MPSOC_MON_CHECK(e.id != r->id, "request id " << r->id
                                                 << " re-issued while still "
                                                    "outstanding");
  }
  queued_.push_back(Entry{r->id, r});
}

void InitiatorMonitor::onReqPop(const txn::RequestPtr& r) {
  countEvent();
  MPSOC_MON_CHECK(r != nullptr, "null request granted from initiator port");
  auto it = std::find_if(queued_.begin(), queued_.end(),
                         [&](const Entry& e) { return e.id == r->id; });
  MPSOC_MON_CHECK(it != queued_.end(),
                  "bus accepted request id "
                      << r->id << " that was never issued through this port");
  MPSOC_MON_CHECK(it->req == r, "request id " << r->id
                                              << " changed object identity "
                                                 "between issue and grant");
  queued_.erase(it);
  if (r->posted && r->op == txn::Opcode::Write) return;  // fire-and-forget
  accepted_.push_back(Entry{r->id, r});
  MPSOC_MON_CHECK(rules_.max_outstanding == 0 ||
                      accepted_.size() <= rules_.max_outstanding,
                  "initiator exceeds its outstanding cap: "
                      << accepted_.size() << " in flight, limit "
                      << rules_.max_outstanding);
  if (rules_.ledger) {
    ++rules_.ledger->count;
    MPSOC_MON_CHECK(rules_.ledger->count <= rules_.ledger->cap,
                    "layer granted " << rules_.ledger->count
                                     << " concurrent non-posted transactions, "
                                        "shared limit "
                                     << rules_.ledger->cap);
  }
}

void InitiatorMonitor::onRspPush(const txn::ResponsePtr& r) {
  countEvent();
  MPSOC_MON_CHECK(r != nullptr && r->req != nullptr,
                  "response without a request delivered to initiator port");
  auto it = std::find_if(accepted_.begin(), accepted_.end(),
                         [&](const Entry& e) { return e.id == r->req->id; });
  MPSOC_MON_CHECK(it != accepted_.end(),
                  "response for request id "
                      << r->req->id
                      << " with no matching accepted request (duplicate "
                         "response, never-granted request, or posted write)");
  MPSOC_MON_CHECK(it->req == r->req,
                  "response for request id "
                      << r->req->id
                      << " carries a different Request object than was "
                         "granted");
  if (rules_.in_order) {
    MPSOC_MON_CHECK(it == accepted_.begin(),
                    "out-of-order response: request id "
                        << r->req->id << " completed before oldest id "
                        << accepted_.front().id
                        << " on an in-order protocol");
  }
  if (r->req->op == txn::Opcode::Read) {
    MPSOC_MON_CHECK(r->beats == r->req->beats,
                    "read response carries " << r->beats
                                             << " beats, request asked for "
                                             << r->req->beats);
  } else {
    MPSOC_MON_CHECK(r->beats == 1, "write acknowledge carries "
                                       << r->beats << " beats, expected 1");
  }
  accepted_.erase(it);
  if (rules_.ledger) {
    MPSOC_MON_CHECK(rules_.ledger->count > 0,
                    "shared-layer ledger underflow on response for id "
                        << r->req->id);
    --rules_.ledger->count;
  }
}

void InitiatorMonitor::finish(bool expect_drained) const {
  if (!expect_drained) return;
  if (queued_.empty() && accepted_.empty()) return;
  std::ostringstream oss;
  oss << "port not drained at end of run:";
  for (const auto& e : queued_) oss << " queued(" << e.id << ")";
  for (const auto& e : accepted_) oss << " outstanding(" << e.id << ")";
  fail(__FILE__, __LINE__, oss.str());
}

// ---------------------------------------------------------------------------
// TargetMonitor

TargetMonitor::TargetMonitor(std::string name, const sim::ClockDomain* clk,
                             txn::TargetPort& port)
    : Monitor(std::move(name), clk) {
  port.req.addPushTap([this](const txn::RequestPtr& r) { onReqPush(r); });
  port.req.addPopTap([this](const txn::RequestPtr& r) { onReqPop(r); });
  port.rsp.addPushTap([this](const txn::ResponsePtr& r) { onRspPush(r); });
}

void TargetMonitor::onReqPush(const txn::RequestPtr& r) {
  countEvent();
  MPSOC_MON_CHECK(r != nullptr, "null request forwarded to target port");
  MPSOC_MON_CHECK(r->beats >= 1, "zero-beat request id " << r->id
                                                         << " reached target");
  for (const auto& e : pending_) {
    MPSOC_MON_CHECK(e.id != r->id, "request id " << r->id
                                                 << " delivered to the target "
                                                    "twice (duplication)");
  }
  Entry e;
  e.id = r->id;
  e.req = r;
  e.expects_rsp = !(r->posted && r->op == txn::Opcode::Write);
  pending_.push_back(e);
}

void TargetMonitor::onReqPop(const txn::RequestPtr& r) {
  countEvent();
  MPSOC_MON_CHECK(r != nullptr, "null request consumed from target port");
  auto it = std::find_if(
      pending_.begin(), pending_.end(),
      [&](const Entry& e) { return e.id == r->id && !e.in_service; });
  MPSOC_MON_CHECK(it != pending_.end(),
                  "target consumed request id "
                      << r->id
                      << " that was never delivered (or consumed it twice)");
  if (!it->expects_rsp) {
    pending_.erase(it);  // posted write: done once the slave consumes it
    return;
  }
  it->in_service = true;
}

void TargetMonitor::onRspPush(const txn::ResponsePtr& r) {
  countEvent();
  MPSOC_MON_CHECK(r != nullptr && r->req != nullptr,
                  "response without a request pushed by target");
  auto it = std::find_if(pending_.begin(), pending_.end(), [&](const Entry& e) {
    return e.id == r->req->id;
  });
  MPSOC_MON_CHECK(it != pending_.end(),
                  "target produced a response for request id "
                      << r->req->id
                      << " it does not hold (spurious or duplicate response)");
  MPSOC_MON_CHECK(it->expects_rsp, "target responded to posted write id "
                                       << r->req->id
                                       << " (posted writes take no response)");
  MPSOC_MON_CHECK(it->in_service,
                  "target responded to request id "
                      << r->req->id
                      << " before consuming it from the request FIFO");
  MPSOC_MON_CHECK(it->req == r->req,
                  "response for request id "
                      << r->req->id
                      << " carries a different Request object than delivered");
  if (r->req->op == txn::Opcode::Read) {
    MPSOC_MON_CHECK(r->beats == r->req->beats,
                    "read response carries " << r->beats
                                             << " beats, request asked for "
                                             << r->req->beats);
    if (r->beats > 1) {
      MPSOC_MON_CHECK(r->sched.beat_period > 0,
                      "multi-beat read response with non-positive beat "
                      "period "
                          << r->sched.beat_period << " ps");
    }
  } else {
    MPSOC_MON_CHECK(r->beats == 1, "write acknowledge carries "
                                       << r->beats << " beats, expected 1");
  }
  MPSOC_MON_CHECK(r->sched.first_beat >= clk_->simulator().now(),
                  "acausal beat schedule: first beat at "
                      << r->sched.first_beat << " ps, now is "
                      << clk_->simulator().now() << " ps");
  pending_.erase(it);
}

void TargetMonitor::finish(bool expect_drained) const {
  if (!expect_drained) return;
  if (pending_.empty()) return;
  std::ostringstream oss;
  oss << "target still holds unfinished requests at end of run:";
  for (const auto& e : pending_) {
    oss << " id(" << e.id << (e.in_service ? ",in-service)" : ",queued)");
  }
  fail(__FILE__, __LINE__, oss.str());
}

}  // namespace mpsoc::verify
