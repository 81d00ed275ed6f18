#pragma once
// Hybrid bridge (Fig. 2 of the paper): a target side on bus A, an initiator
// side on bus B, and asynchronous FIFOs in between providing clock-domain
// crossing.  One parameterised implementation covers every protocol pair
// (AHB-AHB, AXI-AXI, AHB-STBus, AXI-STBus, AHB-AXI, STBus-AHB, STBus-AXI) as
// well as the highly optimised STBus-STBus "GenConv" converter, because the
// behaviours the paper shows to matter are *policies*, not protocol syntax:
//
//  * writes are handled store-and-forward: the payload is absorbed on side A
//    (acknowledged early unless configured otherwise) and re-issued on side B;
//  * the target side may be *blocking* on reads — while a read is in flight
//    the bridge accepts nothing else — which is the lightweight-bridge
//    behaviour that nullifies AXI's advanced features in the distributed
//    platforms of Figs. 3 and 5;
//  * alternatively it supports split/non-blocking reads with multiple
//    outstanding transactions (the GenConv behaviour that lets STBus
//    multi-layer platforms fill the memory controller FIFO);
//  * data-width conversion (e.g. the ST220's 32 -> 64 bit upsize) and
//    frequency conversion (e.g. 400 -> 250 MHz) with tunable latency.
//
// Responses are always delivered on side A in request-acceptance order, so a
// bridge is a safe target even for in-order protocols (STBus Type 2).

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>

#include "sim/component.hpp"
#include "sim/fastforward.hpp"
#include "sim/fifo.hpp"
#include "txn/master.hpp"
#include "txn/ports.hpp"

namespace mpsoc::verify {
class VerifyContext;
}  // namespace mpsoc::verify

namespace mpsoc::bridge {

struct BridgeConfig {
  /// false: blocking target side — while a read is in flight nothing else is
  /// accepted (lightweight hybrid bridge).  true: split/non-blocking reads.
  bool split_reads = false;
  /// Concurrent in-flight reads when split_reads is true.
  unsigned max_outstanding_reads = 8;
  /// true: acknowledge writes on side A as soon as the payload is absorbed
  /// (store-and-forward).  false: wait for the side-B acknowledge.
  bool early_write_ack = true;
  /// Pipeline latency added to each traversal, in cycles of each side.
  unsigned latency_a_cycles = 1;
  unsigned latency_b_cycles = 1;
  /// Interface widths; payloads are repacked when they differ.
  std::uint32_t width_a_bytes = 4;
  std::uint32_t width_b_bytes = 4;
  /// Issue writes on side B as posted (typical for STBus side B).
  bool posted_writes_b = true;
  /// Internal asynchronous FIFO depths and synchroniser stages.
  std::size_t fwd_depth = 4;
  std::size_t bwd_depth = 4;
  unsigned sync_stages = 2;
  /// Depth of the side-A target-port request FIFO (bus-visible buffering).
  std::size_t a_req_depth = 2;
};

/// Canned configurations for the bridge family of Section 3.2.
BridgeConfig lightweightBridgeConfig(std::uint32_t width_a,
                                     std::uint32_t width_b);
/// The proprietary, highly optimised STBus-STBus converter.
BridgeConfig genConvConfig(std::uint32_t width_a, std::uint32_t width_b,
                           unsigned outstanding = 8);

class Bridge : public sim::LtChannel {
 public:
  Bridge(sim::ClockDomain& clk_a, sim::ClockDomain& clk_b, std::string name,
         BridgeConfig cfg);
  ~Bridge();

  Bridge(const Bridge&) = delete;
  Bridge& operator=(const Bridge&) = delete;

  /// Attach to bus A with InterconnectBase::addTarget().
  txn::TargetPort& slavePort() { return a_port_; }
  /// Attach to bus B with InterconnectBase::addInitiator().
  txn::InitiatorPort& masterPort() { return b_port_; }

  const BridgeConfig& config() const { return cfg_; }
  const std::string& name() const { return name_; }

  std::uint64_t readsForwarded() const { return reads_fwd_; }
  std::uint64_t writesForwarded() const { return writes_fwd_; }

  /// Attach the end-to-end fidelity monitor (no loss / duplication /
  /// corruption across the crossing).
  void attachMonitors(verify::VerifyContext& ctx);
  /// Conservation auditing for the side-B clones the master side issues.
  void setAuditor(txn::TxnAuditor* auditor);

  bool idle() const;  // plain method; Bridge is not a Component

  // --- loosely-timed channel model (fast-forward mode) -----------------------
  //
  // Traversal latency: the A-side pipeline + synchroniser stages at clk_a
  // plus the B-side pipeline + synchroniser stages at clk_b.  Bandwidth: the
  // narrower side's width over its period; a blocking (non-split) bridge
  // halves it, since reads serialise the crossing end to end.
  // LT-EQUIV: tests/test_fastforward.cpp (FfHandoffOracle digest gate)
  sim::Picos ltLatencyPs() const override {
    return static_cast<sim::Picos>(cfg_.latency_a_cycles + cfg_.sync_stages) *
               clk_a_.period() +
           static_cast<sim::Picos>(cfg_.latency_b_cycles + cfg_.sync_stages) *
               clk_b_.period();
  }
  double ltBytesPerPs() const override {
    const double a = static_cast<double>(cfg_.width_a_bytes) /
                     static_cast<double>(clk_a_.period());
    const double b = static_cast<double>(cfg_.width_b_bytes) /
                     static_cast<double>(clk_b_.period());
    const double bw = a < b ? a : b;
    return cfg_.split_reads ? bw : bw * 0.5;
  }

 private:
  /// A read accepted on side A, awaiting its side-B data.
  struct PendingRead {
    txn::RequestPtr original;
    bool data_ready = false;  ///< side-B response arrived (via bwd FIFO)

    auto simStateMembers() { return std::tie(original, data_ready); }
  };
  /// A request absorbed on side A, waiting out the A-side latency before
  /// entering the forward FIFO.
  struct Staged {
    txn::RequestPtr req;
    sim::Picos ready_at;

    auto simStateMembers() { return std::tie(req, ready_at); }
  };

  class SlaveSide;
  class MasterSide;

  void slaveEvaluate();
  /// Side-A-local idleness (never reads master-side state mid-edge).
  bool slaveIdle() const;

  std::string name_;
  BridgeConfig cfg_;
  sim::ClockDomain& clk_a_;
  sim::ClockDomain& clk_b_;

  txn::TargetPort a_port_;
  txn::InitiatorPort b_port_;
  sim::AsyncFifo<txn::RequestPtr> fwd_;  ///< originals, A -> B
  sim::AsyncFifo<txn::RequestPtr> bwd_;  ///< completed originals, B -> A

  std::deque<Staged> staged_a_;        ///< A-side latency line
  std::deque<PendingRead> pending_;    ///< reads in flight, acceptance order
  std::deque<txn::RequestPtr> acks_;   ///< writes awaiting a late A-side ack
  unsigned reads_in_flight_ = 0;
  /// Non-split mode: the bridge is handling one transaction end-to-end
  /// (read: until its data is delivered on side A; write: until the payload
  /// enters the forward FIFO) and its target side accepts nothing else.
  bool busy_ = false;
  /// Non-split mode: instant at which the in-progress read's last data beat
  /// has streamed on bus A (the transaction is only then "completed").
  sim::Picos busy_until_ = 0;
  std::uint64_t reads_fwd_ = 0;
  std::uint64_t writes_fwd_ = 0;

  std::unique_ptr<SlaveSide> slave_side_;
  std::unique_ptr<MasterSide> master_side_;
};

}  // namespace mpsoc::bridge
