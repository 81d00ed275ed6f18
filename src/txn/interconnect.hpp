#pragma once
// InterconnectBase: common structure shared by the STBus node, AHB layer and
// AXI interconnect engines — port registries, address decoding, outstanding
// transaction tracking, and the response-beat streaming helper that turns a
// memory's BeatSchedule into cycle-by-cycle channel occupancy.

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/check.hpp"
#include "sim/component.hpp"
#include "sim/fastforward.hpp"
#include "stats/probes.hpp"
#include "txn/ports.hpp"
#include "txn/transaction.hpp"

namespace mpsoc::verify {
class VerifyContext;
}  // namespace mpsoc::verify

namespace mpsoc::txn {

class InterconnectBase : public sim::Component, public sim::LtChannel {
 public:
  InterconnectBase(sim::ClockDomain& clk, std::string name)
      : sim::Component(clk, std::move(name)) {}

  // --- loosely-timed channel model (fast-forward mode) -----------------------
  //
  // As an LT route channel the engine is an analytic pipe: a per-protocol
  // traversal latency (ltLatencyPs, each engine supplies its cycle count) and
  // a bandwidth cap of one data beat per cycle.  The engine itself does not
  // know its physical beat width (ports carry bytes_per_beat per request), so
  // the platform sets the width hint at wiring time.
  // LT-EQUIV: tests/test_fastforward.cpp (FfHandoffOracle digest gate)
  void setLtBeatBytes(std::uint32_t bytes) { lt_beat_bytes_ = bytes; }
  std::uint32_t ltBeatBytes() const { return lt_beat_bytes_; }
  double ltBytesPerPs() const override {
    return static_cast<double>(lt_beat_bytes_) /
           static_cast<double>(clk_.period());
  }

  /// Register a master-side port.  Returns its initiator index.
  std::size_t addInitiator(InitiatorPort& p) {
    initiators_.push_back(&p);
    // Activity protocol: a request arriving on any initiator port is a wake
    // event for the engine (it may have slept with all queues drained).
    p.req.wakeOnPush(this);
    return initiators_.size() - 1;
  }

  /// Register a slave-side port covering [base, base+size).  Returns its
  /// target index.
  std::size_t addTarget(TargetPort& p, std::uint64_t base, std::uint64_t size) {
    targets_.push_back(&p);
    amap_.add(base, size, targets_.size() - 1);
    // A response surfacing on a target port must wake the engine too.
    p.rsp.wakeOnPush(this);
    return targets_.size() - 1;
  }

  std::size_t numInitiators() const { return initiators_.size(); }
  std::size_t numTargets() const { return targets_.size(); }
  const AddressMap& addressMap() const { return amap_; }

  /// Decode; unmapped addresses are a configuration error.
  std::size_t route(std::uint64_t addr) const {
    auto t = amap_.lookup(addr);
    SIM_CHECK_CTX(t.has_value(), name_, &clk_,
                  "address 0x" << std::hex << addr << std::dec
                               << " does not decode to any target");
    return *t;
  }

  /// Total number of requests accepted from initiators.
  std::uint64_t grantsIssued() const { return grants_; }

  /// Attach protocol monitors for this engine's initiator-side ports (each
  /// engine knows its own ordering/outstanding rules).  Call after every
  /// addInitiator()/addTarget().  Overridden by each protocol engine.
  virtual void attachMonitors(verify::VerifyContext& ctx) { (void)ctx; }

 protected:
  /// One in-flight (accepted, response pending) transaction.
  struct Inflight {
    std::uint64_t req_id;
    std::size_t initiator;
    std::size_t target;

    auto simStateMembers() { return std::tie(req_id, initiator, target); }
    /// req_id is a volatile transaction id (see state.hpp "Digest canon").
    void simStateDigest(sim::state::Digest& d) const {
      d.add(initiator);
      d.add(target);
    }
  };

  /// Record acceptance of a non-posted request; posted writes are not
  /// tracked (no response will ever arrive).
  void trackAccept(const RequestPtr& req, std::size_t initiator,
                   std::size_t target) {
    ++grants_;
    if (req->posted && req->op == Opcode::Write) return;
    inflight_initiator_[req->id] = initiator;
    order_[initiator].push_back(Inflight{req->id, initiator, target});
  }

  /// Initiator a response must return to.
  std::size_t initiatorOf(const ResponsePtr& rsp) const {
    auto it = inflight_initiator_.find(rsp->req->id);
    SIM_CHECK_CTX(it != inflight_initiator_.end(), name_, &clk_,
                  "response for unknown request id " << rsp->req->id);
    return it->second;
  }

  /// Oldest outstanding request id for an initiator (in-order delivery rule
  /// of STBus Type 2), or 0 when none.
  std::uint64_t oldestInflight(std::size_t initiator) const {
    auto it = order_.find(initiator);
    if (it == order_.end() || it->second.empty()) return 0;
    return it->second.front().req_id;
  }

  std::size_t inflightCount(std::size_t initiator) const {
    auto it = order_.find(initiator);
    return it == order_.end() ? 0 : it->second.size();
  }

  bool anyInflight() const { return !inflight_initiator_.empty(); }

  /// Retire a delivered response from the tracking tables.
  void retire(const ResponsePtr& rsp) {
    auto it = inflight_initiator_.find(rsp->req->id);
    SIM_CHECK_CTX(it != inflight_initiator_.end(), name_, &clk_,
                  "retiring response for untracked request id "
                      << rsp->req->id);
    std::size_t ini = it->second;
    inflight_initiator_.erase(it);
    auto& dq = order_[ini];
    for (auto i = dq.begin(); i != dq.end(); ++i) {
      if (i->req_id == rsp->req->id) {
        dq.erase(i);
        break;
      }
    }
  }

  /// An in-progress response transfer on a response channel.
  struct RspStream {
    ResponsePtr rsp;
    std::size_t target = 0;     ///< source target port
    std::size_t initiator = 0;  ///< destination initiator port
    std::uint32_t next_beat = 0;

    auto simStateMembers() {
      return std::tie(rsp, target, initiator, next_beat);
    }

    bool active() const { return rsp != nullptr; }
    bool beatDue(sim::Picos now) const {
      return now >= rsp->sched.beatTime(next_beat);
    }
    bool lastBeat() const { return next_beat + 1 == rsp->beats; }
  };

  /// Advance a response stream by at most one beat this cycle.
  ///
  /// Returns true if the stream completed (response delivered to the
  /// initiator and removed from the target FIFO).  `chan` records transfer /
  /// held cycles.  The caller guarantees `s.rsp` is still resident in
  /// `targets_[s.target]->rsp` (front or deeper; it is located by identity on
  /// completion).
  bool streamBeat(RspStream& s, stats::ChannelUtilization& chan) {
    const sim::Picos now = clk_.simulator().now();
    if (!s.beatDue(now)) {
      chan.markHeld();
      return false;
    }
    if (s.lastBeat()) {
      auto& ini = *initiators_[s.initiator];
      if (!ini.rsp.canPush()) {
        chan.markHeld();  // back-pressure from the master's response queue
        return false;
      }
      chan.markTransfer();
      popResponseByIdentity(s.target, s.rsp);
      ini.rsp.push(s.rsp);
      retire(s.rsp);
      s.rsp.reset();
      return true;
    }
    chan.markTransfer();
    ++s.next_beat;
    return false;
  }

  void popResponseByIdentity(std::size_t target, const ResponsePtr& rsp) {
    auto& fifo = targets_[target]->rsp;
    for (std::size_t i = 0; i < fifo.size(); ++i) {
      if (fifo.at(i) == rsp) {
        fifo.popAt(i);
        return;
      }
    }
    SIM_CHECK_CTX(false, name_, &clk_,
                  "response for request id " << rsp->req->id
                                             << " vanished from target FIFO");
  }

  std::vector<InitiatorPort*> initiators_;
  std::vector<TargetPort*> targets_;
  AddressMap amap_;
  std::uint64_t grants_ = 0;

 private:
  std::unordered_map<std::uint64_t, std::size_t> inflight_initiator_;
  std::unordered_map<std::size_t, std::deque<Inflight>> order_;
  std::uint32_t lt_beat_bytes_ = 8;

  SIM_STATE_MEMBERS(grants_, inflight_initiator_, order_);
  SIM_STATE_EXEMPT(initiators_, "wiring (port registry)");
  SIM_STATE_EXEMPT(targets_, "wiring (port registry)");
  SIM_STATE_EXEMPT(amap_, "immutable configuration (address map)");
  SIM_STATE_EXEMPT(lt_beat_bytes_, "immutable configuration (LT width hint)");
};

}  // namespace mpsoc::txn
