#pragma once
// STBus node model (STMicroelectronics proprietary interconnect).
//
// Two physical channels per path — one for initiator requests, one for target
// responses — with split transaction support: while one initiator receives
// data, another can issue a request to a different target (crossbar mode) or
// queue behind the first (shared-bus mode).  Protocol types:
//
//   Type 1 — peripheral protocol: no split, one outstanding transaction per
//            initiator, the granted target path stays locked until the
//            response completes.
//   Type 2 — split + pipelined transactions, posted writes, priority/source
//            labelling, in-order response delivery per initiator.
//   Type 3 — Type 2 plus shaped request packets (a read burst occupies the
//            request channel for a single header cycle) and out-of-order
//            response delivery.
//
// Arbitration is priority- or round-robin-based and can operate at *message*
// granularity: consecutive requests carrying the same msg_id from the granted
// initiator keep the grant, so sequences the memory controller can optimise
// reach it unfragmented (Section 3 of the paper).
//
// Grant handover is hidden: the arbiter re-evaluates every cycle, and with
// the registered target FIFOs a queued next request is already at the memory
// interface when the previous access retires, so a 1-wait-state memory keeps
// its response channel at exactly 50% efficiency (Section 4.1.2).

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "stats/probes.hpp"
#include "txn/arbiter.hpp"
#include "txn/interconnect.hpp"

namespace mpsoc::stbus {

enum class StbusType : std::uint8_t { T1 = 1, T2 = 2, T3 = 3 };

struct StbusNodeConfig {
  StbusType type = StbusType::T3;
  txn::ArbPolicy arb = txn::ArbPolicy::FixedPriority;
  /// Hold the grant while the same initiator keeps presenting requests with
  /// the same non-zero msg_id.
  bool message_arbitration = true;
  /// Outstanding (accepted, not yet responded) transactions the node tracks
  /// per initiator.  Forced to 1 for Type 1.
  unsigned max_outstanding_per_initiator = 8;
  /// false: full crossbar (per-target request channel, per-initiator response
  /// channel).  true: one shared request/response channel pair.
  bool shared_bus = false;
};

class StbusNode final : public txn::InterconnectBase {
 public:
  StbusNode(sim::ClockDomain& clk, std::string name, StbusNodeConfig cfg);

  void evaluate() override;
  bool idle() const override;

  const StbusNodeConfig& config() const { return cfg_; }

  /// LT traversal latency: request decode/arbitration + response launch (two
  /// node cycles); Type 1 adds the lock cycle of its unsplit handshake.
  /// LT-EQUIV: tests/test_fastforward.cpp (FfHandoffOracle digest gate)
  sim::Picos ltLatencyPs() const override {
    const sim::Cycle cycles = cfg_.type == StbusType::T1 ? 3 : 2;
    return static_cast<sim::Picos>(cycles) * clk_.period();
  }

  /// Request channel stats: one per target (crossbar) or a single shared one.
  const stats::ChannelUtilization& reqChannel(std::size_t i = 0) const {
    return req_engines_[i].chan;
  }
  /// Response channel stats: one per initiator (crossbar) or a single one.
  const stats::ChannelUtilization& rspChannel(std::size_t i = 0) const {
    return rsp_engines_[i].chan;
  }

  /// Call once all ports are registered (builds per-channel engines).
  void finalize();

  /// One InitiatorMonitor per initiator port: in-order delivery for T1/T2,
  /// out-of-order allowed for T3, per-initiator outstanding cap from config.
  void attachMonitors(verify::VerifyContext& ctx) override;

 private:
  struct ReqEngine {
    txn::RequestPtr streaming;
    std::uint32_t beats_left = 0;
    std::size_t stream_target = 0;  ///< routed target of `streaming`
    txn::Arbiter arb;
    bool has_last = false;
    std::size_t last_initiator = 0;
    std::uint64_t last_msg = 0;
    bool locked = false;  ///< Type 1: locked until the response retires
    stats::ChannelUtilization chan;

    auto simStateMembers() {
      return std::tie(streaming, beats_left, stream_target, arb, has_last,
                      last_initiator, last_msg, locked, chan);
    }
  };

  struct RspEngine {
    RspStream stream;
    stats::ChannelUtilization chan;

    auto simStateMembers() { return std::tie(stream, chan); }
  };

  /// Response candidate of one response engine: the earliest deliverable
  /// response seen so far this edge (target-major order breaks first-beat
  /// ties).
  struct RspPick {
    txn::ResponsePtr rsp;
    sim::Picos key = std::numeric_limits<sim::Picos>::max();
    std::size_t target = 0;
    std::size_t initiator = 0;
  };

  void requestPath();
  void responsePath();
  void runReqEngine(ReqEngine& e, std::optional<std::size_t> fixed_target);
  /// Offer a queued response of target `t` to the engine of its channel
  /// unless that engine is busy, runs before `first_engine` this edge, or
  /// (Types 1/2) the response is not its initiator's oldest.
  void offerResponse(std::size_t t, const txn::ResponsePtr& rsp,
                     std::size_t first_engine);

  bool eligible(std::size_t initiator, const txn::RequestPtr& front,
                std::size_t target) const;
  void startStream(ReqEngine& e, std::size_t initiator, std::size_t target);
  void finishStream(ReqEngine& e);

  StbusNodeConfig cfg_;
  std::vector<ReqEngine> req_engines_;
  std::vector<RspEngine> rsp_engines_;
  bool finalized_ = false;
  std::vector<txn::Arbiter::Candidate> req_cands_;
  std::vector<RspPick> rsp_picks_;

  SIM_STATE_MEMBERS_WITH_BASE(txn::InterconnectBase, req_engines_,
                              rsp_engines_, finalized_);
  SIM_STATE_EXEMPT(cfg_, "immutable configuration");
  SIM_STATE_EXEMPT(req_cands_, "per-edge scratch");
  SIM_STATE_EXEMPT(rsp_picks_, "per-edge scratch");
};

}  // namespace mpsoc::stbus
