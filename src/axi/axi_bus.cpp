#include "axi/axi_bus.hpp"

#include <algorithm>
#include "sim/check.hpp"
#include "verify/context.hpp"
#include "verify/port_monitor.hpp"

namespace mpsoc::axi {

using txn::Opcode;
using txn::RequestPtr;
using txn::ResponsePtr;

AxiBus::AxiBus(sim::ClockDomain& clk, std::string name, AxiBusConfig cfg)
    : txn::InterconnectBase(clk, std::move(name)), cfg_(cfg) {}

void AxiBus::attachMonitors(verify::VerifyContext& ctx) {
  verify::InitiatorRules rules;
  rules.in_order = false;  // transaction IDs allow out-of-order completion
  rules.max_outstanding = cfg_.max_outstanding_per_initiator;
  for (std::size_t i = 0; i < initiators_.size(); ++i) {
    ctx.add<verify::InitiatorMonitor>(name_ + ".mon.i" + std::to_string(i),
                                      &clk_, *initiators_[i], rules);
  }
}

void AxiBus::finalize() {
  if (finalized_) return;
  finalized_ = true;
  ar_.resize(numTargets());
  aw_.resize(numTargets());
  r_.resize(numInitiators());
  for (auto& e : ar_) e.arb = txn::Arbiter(cfg_.arb);
  for (auto& e : aw_) e.arb = txn::Arbiter(cfg_.arb);
  reserved_.assign(numTargets(), 0);
  ar_issued_.assign(numInitiators(), false);
  w_granted_.assign(numInitiators(), false);
}

void AxiBus::evaluate() {
  finalize();
  std::fill(ar_issued_.begin(), ar_issued_.end(), false);
  std::fill(w_granted_.begin(), w_granted_.end(), false);
  responsePath();
  readRequestPath();
  writeRequestPath();
  // All channels drained and nothing inflight: quiesce until a port push
  // wakes us (wired in addInitiator/addTarget).  The O(1) inflight test
  // keeps the full idle() scan off busy cycles.
  if (!anyInflight() && idle()) sleep();
}

bool AxiBus::outstandingOk(std::size_t initiator,
                           const RequestPtr& r) const {
  if (r->posted && r->op == Opcode::Write) return true;
  return inflightCount(initiator) < cfg_.max_outstanding_per_initiator;
}

int AxiBus::findInWindow(std::size_t initiator, Opcode op,
                         std::size_t target) const {
  const auto& q = initiators_[initiator]->req;
  const std::size_t depth =
      std::min<std::size_t>(q.size(), cfg_.request_window);
  for (std::size_t k = 0; k < depth; ++k) {
    const RequestPtr& r = q.at(k);
    if (r->op == op && route(r->addr) == target) return static_cast<int>(k);
  }
  return -1;
}

void AxiBus::readRequestPath() {
  for (std::size_t t = 0; t < targets_.size(); ++t) {
    auto& eng = ar_[t];
    if (!targets_[t]->req.canPush(reserved_[t] + 1)) continue;

    std::vector<txn::Arbiter::Candidate> cands;
    std::vector<int> window_idx(initiators_.size(), -1);
    for (std::size_t i = 0; i < initiators_.size(); ++i) {
      if (ar_issued_[i]) continue;  // one AR per master port per cycle
      int k = findInWindow(i, Opcode::Read, t);
      if (k < 0) continue;
      const RequestPtr& r = initiators_[i]->req.at(static_cast<std::size_t>(k));
      if (!outstandingOk(i, r)) continue;
      cands.push_back({i, r->priority});
      window_idx[i] = k;
    }
    auto winner = eng.arb.pick(cands, initiators_.size(), now());
    if (!winner) continue;

    RequestPtr req = initiators_[*winner]->req.popAt(
        static_cast<std::size_t>(window_idx[*winner]));
    eng.chan.markTransfer();  // a burst issues only its first address
    ar_issued_[*winner] = true;
    trackAccept(req, *winner, t);
    req->accepted_ps = clk_.simulator().now();
    targets_[t]->req.push(req);
  }
}

void AxiBus::writeRequestPath() {
  for (std::size_t t = 0; t < targets_.size(); ++t) {
    auto& eng = aw_[t];
    if (eng.streaming) {
      eng.chan.markTransfer();
      if (--eng.beats_left == 0) {
        eng.streaming->accepted_ps = clk_.simulator().now();
        targets_[t]->req.push(eng.streaming);
        eng.streaming.reset();
        SIM_CHECK_CTX(reserved_[t] > 0, name_, &clk_,
                      "write-stream completion on target " << t
                          << " with no reserved slot");
        --reserved_[t];
      }
      continue;
    }
    if (!targets_[t]->req.canPush(reserved_[t] + 1)) continue;

    std::vector<txn::Arbiter::Candidate> cands;
    std::vector<int> window_idx(initiators_.size(), -1);
    for (std::size_t i = 0; i < initiators_.size(); ++i) {
      if (w_granted_[i]) continue;
      int k = findInWindow(i, Opcode::Write, t);
      if (k < 0) continue;
      const RequestPtr& r = initiators_[i]->req.at(static_cast<std::size_t>(k));
      if (!outstandingOk(i, r)) continue;
      cands.push_back({i, r->priority});
      window_idx[i] = k;
    }
    auto winner = eng.arb.pick(cands, initiators_.size(), now());
    if (!winner) continue;

    RequestPtr req = initiators_[*winner]->req.popAt(
        static_cast<std::size_t>(window_idx[*winner]));
    w_granted_[*winner] = true;
    trackAccept(req, *winner, t);
    ++reserved_[t];  // the slot is claimed until the payload finishes
    eng.streaming = req;
    eng.beats_left = req->beats;
    eng.stream_target = t;
    // First data beat moves this cycle (AW and the first W beat overlap).
    eng.chan.markTransfer();
    if (--eng.beats_left == 0) {
      eng.streaming->accepted_ps = clk_.simulator().now();
      targets_[t]->req.push(eng.streaming);
      eng.streaming.reset();
      --reserved_[t];
    }
  }
}

void AxiBus::harvestResponses(std::size_t initiator, REngine& eng) {
  for (std::size_t t = 0; t < targets_.size(); ++t) {
    auto& fifo = targets_[t]->rsp;
    for (std::size_t k = 0; k < fifo.size(); ++k) {
      const ResponsePtr& rsp = fifo.at(k);
      if (initiatorOf(rsp) != initiator) continue;
      bool known = false;
      for (const auto& s : eng.active) {
        if (s.rsp == rsp) {
          known = true;
          break;
        }
      }
      if (!known) {
        RspStream s;
        s.rsp = rsp;
        s.target = t;
        s.initiator = initiator;
        s.next_beat = 0;
        eng.active.push_back(s);
      }
    }
  }
}

void AxiBus::responsePath() {
  const sim::Picos now = clk_.simulator().now();
  for (std::size_t i = 0; i < r_.size(); ++i) {
    auto& eng = r_[i];
    harvestResponses(i, eng);
    if (eng.active.empty()) continue;

    // Fine-granularity link arbitration: pick a stream with a due beat, with
    // preference for the one served last (minimises switching) and otherwise
    // round-robin.  If interleaving is disabled the engine behaves like a
    // packet-granular channel: it sticks to stream 0 until completion.
    std::size_t pick = eng.active.size();
    if (cfg_.r_channel_interleaving) {
      for (std::size_t off = 0; off < eng.active.size(); ++off) {
        std::size_t idx = (eng.last_pick + off) % eng.active.size();
        if (eng.active[idx].beatDue(now)) {
          pick = idx;
          break;
        }
      }
    } else {
      if (eng.active[0].beatDue(now)) pick = 0;
    }
    if (pick == eng.active.size()) {
      // No beat due anywhere: in AXI the link is simply free this cycle (it
      // is not reserved by a stalled burst) unless interleaving is off.
      if (!cfg_.r_channel_interleaving) eng.chan.markHeld();
      continue;
    }
    eng.last_pick = pick;
    if (streamBeat(eng.active[pick], eng.chan)) {
      eng.active.erase(eng.active.begin() +
                       static_cast<std::ptrdiff_t>(pick));
      eng.last_pick = 0;
    }
  }
}

bool AxiBus::idle() const {
  for (const auto& e : aw_) {
    if (e.streaming) return false;
  }
  for (const auto& e : r_) {
    if (!e.active.empty()) return false;
  }
  if (anyInflight()) return false;
  for (const auto* p : initiators_) {
    if (!p->req.empty()) return false;
  }
  return true;
}

}  // namespace mpsoc::axi
