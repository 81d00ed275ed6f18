#include "noc/router.hpp"

#include <algorithm>

#include "sim/check.hpp"

namespace mpsoc::noc {

Router::Router(sim::ClockDomain& clk, std::string name, unsigned x, unsigned y,
               unsigned mesh_w, unsigned mesh_h, RouterConfig cfg)
    : sim::Component(clk, std::move(name)), x_(x), y_(y), mesh_w_(mesh_w),
      mesh_h_(mesh_h), cfg_(cfg) {
  static const char* dir_names[kDirs] = {"N", "E", "S", "W", "L"};
  for (std::size_t d = 0; d < kDirs; ++d) {
    in_[d] = std::make_unique<PacketFifo>(
        clk_, this->name() + ".in" + dir_names[d], cfg_.input_fifo_depth);
  }
  // XY routing: x first, then y, Local at home.
  route_.reserve(static_cast<std::size_t>(mesh_w_) * mesh_h_);
  for (unsigned dy = 0; dy < mesh_h_; ++dy) {
    for (unsigned dx = 0; dx < mesh_w_; ++dx) {
      route_.push_back(dx > x_   ? Dir::East
                       : dx < x_ ? Dir::West
                       : dy > y_ ? Dir::South
                       : dy < y_ ? Dir::North
                                 : Dir::Local);
    }
  }
}

Dir Router::routeTo(NodeId dst) const {
  SIM_CHECK_CTX(dst < route_.size(), name_, &clk_,
                "destination node " << dst << " outside the "
                    << mesh_w_ << "x" << mesh_h_ << " mesh");
  return route_[dst];
}

std::uint8_t Router::headRoute(std::size_t i) const {
  const PacketFifo& fifo = *in_[i];
  return fifo.empty() ? kNoRoute
                      : static_cast<std::uint8_t>(routeTo(fifo.front()->dst));
}

void Router::evaluate() {
  HeadRoutes want;
  unsigned wanted = 0;  // bit d: some head routes to output d
  bool busy = false;
  for (std::size_t i = 0; i < kDirs; ++i) {
    want[i] = headRoute(i);
    if (want[i] != kNoRoute) wanted |= 1u << want[i];
    busy = busy || out_[i].streaming;
  }
  // Idle edge: no packet to grant and no link to advance.
  if (wanted == 0 && !busy) return;

  for (std::size_t d = 0; d < kDirs; ++d) {
    if (out_[d].streaming) {
      tickEngine(out_[d]);
    } else if ((wanted >> d) & 1u) {
      arbitrate(d, want, wanted);
    }
  }
}

void Router::tickEngine(OutputEngine& e) {
  e.chan.markTransfer();
  --e.cycles_left;
  if (e.push_in > 0 && --e.push_in == 0) {
    e.sink->push(e.streaming);
    ++routed_;
    // Cut-through: the link stays busy until the tail has crossed even
    // though the packet object is already downstream.
    if (e.cycles_left == 0) e.streaming.reset();
  } else if (e.cycles_left == 0 && e.push_in == 0) {
    e.streaming.reset();
  }
}

void Router::arbitrate(std::size_t d, HeadRoutes& want, unsigned& wanted) {
  OutputEngine& e = out_[d];
  // Reserve the downstream slot for the whole serialisation.
  if (!e.sink || !e.sink->canPush()) return;

  // Message locking: the previously granted input keeps the port while it
  // presents the next packet of the same message.
  std::size_t i = e.last_input;
  bool held = false;
  if (cfg_.message_locking && e.has_last && e.last_msg != 0 && want[i] == d) {
    const NocPacketPtr& pkt = in_[i]->front();
    held = pkt->req && pkt->req->msg_id == e.last_msg;
  }
  if (!held) {
    // Round-robin from the input after the last grant.
    std::size_t n = 0;
    do {
      if (++i == kDirs) i = 0;
    } while (want[i] != d && ++n < kDirs);
    if (want[i] != d) return;
  }

  e.streaming = in_[i]->pop();
  const std::uint32_t total = cfg_.pipeline_latency + e.streaming->flits;
  e.cycles_left = total;
  e.push_in = cfg_.cut_through
                  ? std::min<std::uint32_t>(cfg_.pipeline_latency + 1, total)
                  : total;
  e.last_input = i;
  e.has_last = true;
  e.last_msg = e.streaming->req ? e.streaming->req->msg_id : 0;
  tickEngine(e);

  // The pop exposes the input's next head at once: it may win a later
  // output on this same edge.
  want[i] = headRoute(i);
  if (want[i] != kNoRoute) wanted |= 1u << want[i];
}

bool Router::idle() const {
  for (std::size_t d = 0; d < kDirs; ++d) {
    if (out_[d].streaming) return false;
    if (in_[d] && !in_[d]->empty()) return false;
  }
  return true;
}

}  // namespace mpsoc::noc
