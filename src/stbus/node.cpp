#include "stbus/node.hpp"

#include "sim/check.hpp"
#include "verify/context.hpp"
#include "verify/port_monitor.hpp"
#include <limits>

namespace mpsoc::stbus {

using txn::Opcode;
using txn::RequestPtr;
using txn::ResponsePtr;

StbusNode::StbusNode(sim::ClockDomain& clk, std::string name,
                     StbusNodeConfig cfg)
    : txn::InterconnectBase(clk, std::move(name)), cfg_(cfg) {
  if (cfg_.type == StbusType::T1) cfg_.max_outstanding_per_initiator = 1;
}

void StbusNode::attachMonitors(verify::VerifyContext& ctx) {
  verify::InitiatorRules rules;
  rules.in_order = cfg_.type != StbusType::T3;
  rules.max_outstanding = cfg_.max_outstanding_per_initiator;
  for (std::size_t i = 0; i < initiators_.size(); ++i) {
    ctx.add<verify::InitiatorMonitor>(name_ + ".mon.i" + std::to_string(i),
                                      &clk_, *initiators_[i], rules);
  }
}

void StbusNode::finalize() {
  if (finalized_) return;
  finalized_ = true;
  const std::size_t nreq = cfg_.shared_bus ? 1 : numTargets();
  const std::size_t nrsp = cfg_.shared_bus ? 1 : numInitiators();
  req_engines_.resize(nreq);
  rsp_engines_.resize(nrsp);
  for (auto& e : req_engines_) e.arb = txn::Arbiter(cfg_.arb);
}

void StbusNode::evaluate() {
  finalize();
  // Responses first: a response retiring this cycle unlocks its Type-1 path
  // and frees an outstanding slot in the *same* cycle — the model of STBus's
  // asynchronous target-to-initiator grant propagation that makes handover
  // free (Section 4.1.2).
  responsePath();
  requestPath();
  // Fully drained (no streams, nothing inflight, all request queues empty):
  // quiesce until a port push wakes us (wired in addInitiator/addTarget).
  // The O(1) inflight test keeps the full idle() scan off busy cycles.
  if (!anyInflight() && idle()) sleep();
}

bool StbusNode::idle() const {
  for (const auto& e : req_engines_) {
    if (e.streaming) return false;
  }
  if (anyInflight()) return false;
  for (const auto* p : initiators_) {
    if (!p->req.empty()) return false;
  }
  return true;
}

void StbusNode::requestPath() {
  for (std::size_t i = 0; i < req_engines_.size(); ++i) {
    runReqEngine(req_engines_[i],
                 cfg_.shared_bus ? std::nullopt : std::make_optional(i));
  }
}

void StbusNode::responsePath() {
  for (std::size_t i = 0; i < rsp_engines_.size(); ++i) {
    auto& e = rsp_engines_[i];
    if (!e.stream.active()) {
      selectResponse(e, cfg_.shared_bus ? std::nullopt : std::make_optional(i));
    }
    if (e.stream.active()) {
      const std::size_t tgt = e.stream.target;
      if (streamBeat(e.stream, e.chan) && cfg_.type == StbusType::T1) {
        auto& re = cfg_.shared_bus ? req_engines_[0] : req_engines_[tgt];
        re.locked = false;
      }
    }
  }
}

bool StbusNode::eligible(std::size_t initiator, const RequestPtr& front,
                         std::size_t target) const {
  if (!targets_[target]->req.canPush()) return false;
  const bool fire_and_forget = front->posted && front->op == Opcode::Write;
  if (!fire_and_forget &&
      inflightCount(initiator) >= cfg_.max_outstanding_per_initiator) {
    return false;
  }
  return true;
}

void StbusNode::runReqEngine(ReqEngine& e,
                             std::optional<std::size_t> fixed_target) {
  // Phase A: continue an in-progress request packet (one beat per cycle).
  auto advance = [&] {
    e.chan.markTransfer();
    --e.beats_left;
    if (e.beats_left == 0) finishStream(e);
  };
  if (e.streaming) {
    advance();
    return;
  }
  if (e.locked) return;  // Type 1: path locked until the response retires

  // Phase B: arbitration.  Message-granularity grant holding first: as long
  // as the previously granted initiator presents the next request of the
  // same message, it keeps the channel without re-arbitration.
  if (cfg_.message_arbitration && e.has_last && e.last_msg != 0) {
    auto* p = initiators_[e.last_initiator];
    if (!p->req.empty()) {
      const RequestPtr& f = p->req.front();
      const std::size_t t = route(f->addr);
      const bool same_channel = !fixed_target || t == *fixed_target;
      if (same_channel && f->msg_id == e.last_msg &&
          eligible(e.last_initiator, f, t)) {
        startStream(e, e.last_initiator, t);
        advance();
        return;
      }
    }
  }

  std::vector<txn::Arbiter::Candidate> cands;
  for (std::size_t i = 0; i < initiators_.size(); ++i) {
    auto* p = initiators_[i];
    if (p->req.empty()) continue;
    const RequestPtr& f = p->req.front();
    const std::size_t t = route(f->addr);
    if (fixed_target && t != *fixed_target) continue;
    if (!eligible(i, f, t)) continue;
    cands.push_back({i, f->priority});
  }
  auto winner = e.arb.pick(cands, initiators_.size(), now());
  if (!winner) return;
  const std::size_t t = route(initiators_[*winner]->req.front()->addr);
  startStream(e, *winner, t);
  advance();
}

void StbusNode::startStream(ReqEngine& e, std::size_t initiator,
                            std::size_t target) {
  RequestPtr req = initiators_[initiator]->req.pop();
  // Channel occupancy of the request packet:
  //  * writes carry their payload: `beats` cycles on every type;
  //  * Type 3 shaped read packets are a single header cell;
  //  * Types 1/2 express a read burst as one request cell per datum.
  std::uint32_t cycles = req->beats;
  if (req->op == Opcode::Read && cfg_.type == StbusType::T3) cycles = 1;
  e.streaming = req;
  e.beats_left = cycles;
  e.stream_target = target;
  e.has_last = true;
  e.last_initiator = initiator;
  e.last_msg = req->msg_id;
  trackAccept(req, initiator, target);
}

void StbusNode::finishStream(ReqEngine& e) {
  SIM_CHECK_CTX(e.streaming != nullptr, name_, &clk_,
                "finishStream() with no request streaming");
  e.streaming->accepted_ps = clk_.simulator().now();
  targets_[e.stream_target]->req.push(e.streaming);
  if (cfg_.type == StbusType::T1) e.locked = true;
  e.streaming.reset();
}

void StbusNode::selectResponse(RspEngine& e,
                               std::optional<std::size_t> fixed_initiator) {
  ResponsePtr best;
  std::size_t best_target = 0;
  std::size_t best_ini = 0;
  sim::Picos best_key = std::numeric_limits<sim::Picos>::max();

  for (std::size_t t = 0; t < targets_.size(); ++t) {
    auto& fifo = targets_[t]->rsp;
    // Types 1/2: targets deliver in production order, so only the front of
    // each target FIFO is a candidate.  Type 3 supports out-of-order
    // delivery and may pick any queued response.
    const std::size_t depth = cfg_.type == StbusType::T3 ? fifo.size()
                              : (fifo.empty() ? 0 : 1);
    for (std::size_t k = 0; k < depth; ++k) {
      const ResponsePtr& rsp = fifo.at(k);
      const std::size_t ini = initiatorOf(rsp);
      if (fixed_initiator && ini != *fixed_initiator) continue;
      if (cfg_.type != StbusType::T3 && rsp->req->id != oldestInflight(ini)) {
        continue;  // in-order delivery per initiator
      }
      if (rsp->sched.first_beat < best_key) {
        best = rsp;
        best_key = rsp->sched.first_beat;
        best_target = t;
        best_ini = ini;
      }
    }
  }
  if (best) {
    e.stream.rsp = best;
    e.stream.target = best_target;
    e.stream.initiator = best_ini;
    e.stream.next_beat = 0;
  }
}

}  // namespace mpsoc::stbus
