#pragma once
// AMBA AXI interconnect model.
//
// AXI is a point-to-point protocol with five largely independent
// monodirectional channels: read address (AR), write address (AW), write data
// (W), read data (R) and write response (B).  The model captures the features
// the paper's analysis leans on:
//
//  * reads and writes to the same slave proceed on *separate* request
//    channels (AR vs AW+W), unlike STBus's single request channel;
//  * multiple outstanding transactions per master with out-of-order
//    completion (transaction IDs);
//  * burst transactions issue only the first address (one AR cycle per burst);
//  * fine-granularity data-link arbitration: the per-master R channel
//    re-arbitrates cycle by cycle and may interleave beats of different
//    in-flight responses, so a stalled response does not reserve the link.
//
// The last two points are what make AXI "more robust to traffic congestion"
// above ~80% bus utilisation in the many-to-many study (Section 4.1.1), while
// in many-to-one scenarios burst overlapping merely matches the simpler
// protocols (Section 4.1.2).
//
// A master's single request queue is scanned through a small window to find
// the first read and the first write, emulating the independent read/write
// paths of a real AXI master interface.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "stats/probes.hpp"
#include "txn/arbiter.hpp"
#include "txn/interconnect.hpp"

namespace mpsoc::axi {

struct AxiBusConfig {
  txn::ArbPolicy arb = txn::ArbPolicy::RoundRobin;
  unsigned max_outstanding_per_initiator = 8;
  /// How deep the engine looks into each master's request queue for a
  /// read/write to dispatch (models the independent AR and AW+W paths).
  unsigned request_window = 4;
  /// true: the per-master R link may interleave beats of different responses
  /// (fine-granularity arbitration).  false degrades R to packet granularity.
  bool r_channel_interleaving = true;
};

class AxiBus final : public txn::InterconnectBase {
 public:
  AxiBus(sim::ClockDomain& clk, std::string name, AxiBusConfig cfg = {});

  void evaluate() override;
  bool idle() const override;

  void finalize();

  /// LT traversal latency: one address-channel cycle per burst (AR/AW issue;
  /// data beats overlap under the bandwidth cap).
  /// LT-EQUIV: tests/test_fastforward.cpp (FfHandoffOracle digest gate)
  sim::Picos ltLatencyPs() const override { return clk_.period(); }

  /// One InitiatorMonitor per initiator port: out-of-order completion is
  /// legal (transaction IDs), outstanding cap from config.
  void attachMonitors(verify::VerifyContext& ctx) override;

  const stats::ChannelUtilization& arChannel(std::size_t target) const {
    return ar_[target].chan;
  }
  const stats::ChannelUtilization& wChannel(std::size_t target) const {
    return aw_[target].chan;
  }
  const stats::ChannelUtilization& rChannel(std::size_t initiator) const {
    return r_[initiator].chan;
  }

 private:
  /// Read-address channel engine (per target): one cycle per burst.
  struct ArEngine {
    txn::Arbiter arb;
    stats::ChannelUtilization chan;

    auto simStateMembers() { return std::tie(arb, chan); }
  };
  /// Write address+data engine (per target): 1 + beats cycles per burst.
  struct AwEngine {
    txn::Arbiter arb;
    txn::RequestPtr streaming;
    std::uint32_t beats_left = 0;
    std::size_t stream_target = 0;
    stats::ChannelUtilization chan;

    auto simStateMembers() {
      return std::tie(arb, streaming, beats_left, stream_target, chan);
    }
  };
  /// Per-initiator read-data link with optional beat interleaving.
  struct REngine {
    std::vector<RspStream> active;
    std::size_t last_pick = 0;
    stats::ChannelUtilization chan;

    auto simStateMembers() { return std::tie(active, last_pick, chan); }
  };

  void readRequestPath();
  void writeRequestPath();
  void responsePath();
  /// Append every newly visible target response to its initiator's engine.
  void harvestResponses();
  /// Arbitrate target `t`'s address channel among the initiators whose
  /// request window holds an `op` routed to it; returns the winner and the
  /// window slot of its request.
  std::optional<std::pair<std::size_t, std::size_t>> pickRequest(
      txn::Arbiter& arb, std::size_t t, txn::Opcode op,
      const std::vector<bool>& issued);

  /// Index (within the visible window of initiator i's queue) of the first
  /// request with the given opcode routed anywhere, or -1.
  int findInWindow(std::size_t initiator, txn::Opcode op,
                   std::size_t target) const;

  bool outstandingOk(std::size_t initiator, const txn::RequestPtr& r) const;

  AxiBusConfig cfg_;
  std::vector<ArEngine> ar_;
  std::vector<AwEngine> aw_;
  std::vector<REngine> r_;
  /// Per-target request-FIFO slots claimed by in-flight write payloads.
  std::vector<unsigned> reserved_;
  /// Per-initiator one-request-per-channel-per-cycle guards.
  std::vector<bool> ar_issued_;
  std::vector<bool> w_granted_;
  bool finalized_ = false;
  std::vector<txn::Arbiter::Candidate> cands_;
  std::vector<std::size_t> window_idx_;

  SIM_STATE_MEMBERS_WITH_BASE(txn::InterconnectBase, ar_, aw_, r_, reserved_,
                              ar_issued_, w_granted_, finalized_);
  SIM_STATE_EXEMPT(cfg_, "immutable configuration");
  SIM_STATE_EXEMPT(cands_, "per-edge scratch");
  SIM_STATE_EXEMPT(window_idx_, "per-edge scratch");
};

}  // namespace mpsoc::axi
