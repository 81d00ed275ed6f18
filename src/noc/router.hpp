#pragma once
// 2D-mesh router: five ports (North/East/South/West/Local), dimension-order
// (XY) routing, round-robin output arbitration, input-buffered with
// per-packet link serialisation (one flit per cycle per link) and a
// configurable pipeline latency per hop.
//
// Evaluation is input-driven: each edge routes every input's head packet
// once (a table lookup), arbitrates only the outputs some head wants, and
// returns at once when no input holds a packet and no link is busy.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "noc/packet.hpp"
#include "sim/component.hpp"
#include "sim/fifo.hpp"
#include "stats/probes.hpp"

namespace mpsoc::noc {

enum class Dir : std::uint8_t { North = 0, East, South, West, Local };
constexpr std::size_t kDirs = 5;

struct RouterConfig {
  std::size_t input_fifo_depth = 4;  ///< packets per input port
  unsigned pipeline_latency = 2;     ///< cycles from grant to first flit out
  /// true (virtual cut-through): the packet is handed downstream as soon as
  /// its header has crossed, while the link stays busy for the whole
  /// serialisation — per-hop latency is pipeline+1, throughput is
  /// flit-limited.  false: store-and-forward (the whole packet crosses
  /// before the next hop starts), as a pessimistic ablation.
  bool cut_through = true;
  /// Hold an output-port grant while the same input keeps presenting packets
  /// of the same non-zero msg_id — the NoC equivalent of STBus message
  /// arbitration, preserving memory-controller-friendly trains end-to-end
  /// (without it, round-robin routers interleave everything and the LMI's
  /// merge/row-hit optimisations starve; see bench_noc_outlook).
  bool message_locking = false;
};

class Router final : public sim::Component {
 public:
  using PacketFifo = sim::SyncFifo<NocPacketPtr>;

  Router(sim::ClockDomain& clk, std::string name, unsigned x, unsigned y,
         unsigned mesh_w, unsigned mesh_h, RouterConfig cfg);

  unsigned x() const { return x_; }
  unsigned y() const { return y_; }
  NodeId nodeId() const { return static_cast<NodeId>(y_ * mesh_w_ + x_); }

  /// Input FIFO for a given direction (upstream neighbours / the local
  /// adapter push into it).
  PacketFifo& input(Dir d) { return *in_[static_cast<std::size_t>(d)]; }

  /// Wire the downstream sink of an output port: the neighbour router's
  /// opposite input, or the local adapter's egress FIFO.
  void connectOutput(Dir d, PacketFifo* sink) {
    out_[static_cast<std::size_t>(d)].sink = sink;
  }

  void evaluate() override;
  bool idle() const override;

  std::uint64_t packetsRouted() const { return routed_; }
  const stats::ChannelUtilization& linkStats(Dir d) const {
    return out_[static_cast<std::size_t>(d)].chan;
  }

  /// XY route: which output port a packet to `dst` takes from this router
  /// (a lookup in the route table built at construction).
  Dir routeTo(NodeId dst) const;

 private:
  /// Output each input's head packet routes to this edge, kNoRoute for an
  /// empty input.  Evaluate-local: rebuilt every edge, never state.
  using HeadRoutes = std::array<std::uint8_t, kDirs>;
  static constexpr std::uint8_t kNoRoute = kDirs;

  struct OutputEngine {
    PacketFifo* sink = nullptr;
    /// Packet on the link.  Held until its tail has crossed, also after a
    /// cut-through handoff, so it is set exactly while the link is busy.
    NocPacketPtr streaming;
    std::uint32_t cycles_left = 0;  ///< link occupancy remaining
    std::uint32_t push_in = 0;      ///< cycles until handoff downstream
    std::size_t last_input = 0;     ///< round-robin pointer
    std::uint64_t last_msg = 0;     ///< message-locking state
    bool has_last = false;
    stats::ChannelUtilization chan;

    /// sink is wiring (downstream FIFO pointer), everything else mutates.
    auto simStateMembers() {
      return std::tie(streaming, cycles_left, push_in, last_input, last_msg,
                      has_last, chan);
    }
  };

  std::uint8_t headRoute(std::size_t i) const;
  void tickEngine(OutputEngine& e);
  /// Grant free output `d` to the next input whose head routes to it; a
  /// granted input's entry in `want` (and the `wanted` output mask) is
  /// refreshed from its next head.
  void arbitrate(std::size_t d, HeadRoutes& want, unsigned& wanted);

  unsigned x_, y_, mesh_w_, mesh_h_;
  RouterConfig cfg_;
  std::vector<Dir> route_;  ///< destination node -> output port
  std::array<std::unique_ptr<PacketFifo>, kDirs> in_;
  std::array<OutputEngine, kDirs> out_;
  std::uint64_t routed_ = 0;

  SIM_STATE_MEMBERS(out_, routed_);
  SIM_STATE_EXEMPT(x_, "immutable configuration (mesh coordinate)");
  SIM_STATE_EXEMPT(y_, "immutable configuration (mesh coordinate)");
  SIM_STATE_EXEMPT(mesh_w_, "immutable configuration (mesh size)");
  SIM_STATE_EXEMPT(mesh_h_, "immutable configuration (mesh size)");
  SIM_STATE_EXEMPT(cfg_, "immutable configuration");
  SIM_STATE_EXEMPT(route_, "immutable configuration (XY route table)");
  SIM_STATE_EXEMPT(in_, "registered Updatables (kernel checkpoints FIFOs)");
};

}  // namespace mpsoc::noc
