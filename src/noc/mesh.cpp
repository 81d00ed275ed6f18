#include "noc/mesh.hpp"

#include "sim/check.hpp"
#include <cmath>
#include <unordered_set>

namespace mpsoc::noc {

using txn::Opcode;
using txn::RequestPtr;
using txn::ResponsePtr;

// --------------------------------------------------------------------------

class NocMesh::MasterAdapter final : public sim::Component {
 public:
  MasterAdapter(sim::ClockDomain& clk, std::string name, NocMesh& mesh,
                txn::InitiatorPort& port, NodeId at,
                Router::PacketFifo& egress)
      : sim::Component(clk, std::move(name)), mesh_(mesh), port_(port),
        at_(at), egress_(egress),
        local_in_(mesh.routers_[at]->input(Dir::Local)) {}

  void evaluate() override {
    // Deliver arrived responses to the master.  A node hosting several
    // adapters shares its egress FIFO: each adapter consumes only response
    // packets for requests it injected (outstanding_), leaving request
    // packets and co-located masters' responses at the head for their owner
    // (all of a node's adapters share one eval lane, so the owner drains the
    // head on this or the next edge).
    while (!egress_.empty() &&
           egress_.front()->kind == NocPacket::Kind::Response &&
           outstanding_.count(egress_.front()->req->id) != 0 &&
           port_.rsp.canPush()) {
      NocPacketPtr pkt = egress_.pop();
      outstanding_.erase(pkt->req->id);
      auto rsp = std::make_shared<txn::Response>();
      rsp->req = pkt->req;
      rsp->beats = pkt->req->op == Opcode::Read ? pkt->req->beats : 1;
      rsp->sched.first_beat = clk_.simulator().now() + clk_.period();
      rsp->sched.beat_period = clk_.period();
      port_.rsp.push(rsp);
    }
    // Inject one request per cycle into the local router port.
    if (!port_.req.empty() && local_in_.canPush()) {
      RequestPtr r = port_.req.pop();
      auto pkt = std::make_shared<NocPacket>();
      pkt->kind = NocPacket::Kind::Request;
      pkt->req = r;
      pkt->src = at_;
      pkt->dst = mesh_.routeAddr(r->addr);
      pkt->flits = NocPacket::requestFlits(*r);
      // Posted writes produce no response packet (see SlaveAdapter).
      if (!(r->posted && r->op == Opcode::Write)) outstanding_.insert(r->id);
      local_in_.push(pkt);
    }
  }

  bool idle() const override {
    return egress_.empty() && port_.req.empty();
  }

  NodeId at() const { return at_; }

 private:
  NocMesh& mesh_;
  txn::InitiatorPort& port_;
  NodeId at_;
  Router::PacketFifo& egress_;
  Router::PacketFifo& local_in_;  ///< the node router's Local input
  std::unordered_set<std::uint64_t> outstanding_;

  SIM_STATE_MEMBERS(outstanding_);
  SIM_STATE_EXEMPT(at_, "immutable configuration (node id)");
};

// --------------------------------------------------------------------------

class NocMesh::SlaveAdapter final : public sim::Component {
 public:
  SlaveAdapter(sim::ClockDomain& clk, std::string name, NocMesh& mesh,
               txn::TargetPort& port, NodeId at, Router::PacketFifo& egress)
      : sim::Component(clk, std::move(name)), port_(port), at_(at),
        egress_(egress), local_in_(mesh.routers_[at]->input(Dir::Local)) {}

  void evaluate() override {
    const sim::Picos now = clk_.simulator().now();
    // Requests off the network into the memory model (see MasterAdapter for
    // the shared-egress kind filtering).  The LMI controller popAt()s this
    // FIFO out of order: canPushThisEdge() keeps the check independent of
    // which of the two evaluates first.
    while (!egress_.empty() &&
           egress_.front()->kind == NocPacket::Kind::Request &&
           port_.req.canPushThisEdge()) {
      NocPacketPtr pkt = egress_.pop();
      // Posted writes produce no response: nothing to route back.
      if (!(pkt->req->posted && pkt->req->op == Opcode::Write)) {
        origin_[pkt->req->id] = pkt->src;
      }
      port_.req.push(pkt->req);
    }
    // Responses whose data has fully left the memory go back as packets.
    if (!port_.rsp.empty() && local_in_.canPush()) {
      const ResponsePtr& rsp = port_.rsp.front();
      if (rsp->sched.lastBeat(rsp->beats) <= now) {
        ResponsePtr done = port_.rsp.pop();
        auto it = origin_.find(done->req->id);
        SIM_CHECK_CTX(it != origin_.end(), name_, &clk_,
                      "response for request id " << done->req->id
                          << " with no recorded origin node");
        auto pkt = std::make_shared<NocPacket>();
        pkt->kind = NocPacket::Kind::Response;
        pkt->req = done->req;
        pkt->src = at_;
        pkt->dst = it->second;
        pkt->flits = NocPacket::responseFlits(*done->req);
        origin_.erase(it);
        local_in_.push(pkt);
      }
    }
  }

  bool idle() const override {
    return egress_.empty() && port_.rsp.empty() && origin_.empty();
  }

  NodeId at() const { return at_; }

 private:
  txn::TargetPort& port_;
  NodeId at_;
  Router::PacketFifo& egress_;
  Router::PacketFifo& local_in_;  ///< the node router's Local input
  std::unordered_map<std::uint64_t, NodeId> origin_;

  SIM_STATE_MEMBERS(origin_);
  SIM_STATE_EXEMPT(at_, "immutable configuration (node id)");
};

// --------------------------------------------------------------------------

NocMesh::NocMesh(sim::ClockDomain& clk, std::string name, MeshConfig cfg)
    : name_(std::move(name)), cfg_(cfg), clk_(clk) {
  routers_.reserve(static_cast<std::size_t>(cfg_.width) * cfg_.height);
  for (unsigned y = 0; y < cfg_.height; ++y) {
    for (unsigned x = 0; x < cfg_.width; ++x) {
      routers_.push_back(std::make_unique<Router>(
          clk_, name_ + ".r" + std::to_string(x) + std::to_string(y), x, y,
          cfg_.width, cfg_.height, cfg_.router));
    }
  }
  // Wire the mesh links: output of one router -> opposite input of neighbour.
  for (unsigned y = 0; y < cfg_.height; ++y) {
    for (unsigned x = 0; x < cfg_.width; ++x) {
      Router& r = *routers_[node(x, y)];
      if (y > 0) r.connectOutput(Dir::North,
                                 &routers_[node(x, y - 1)]->input(Dir::South));
      if (x + 1 < cfg_.width)
        r.connectOutput(Dir::East, &routers_[node(x + 1, y)]->input(Dir::West));
      if (y + 1 < cfg_.height)
        r.connectOutput(Dir::South,
                        &routers_[node(x, y + 1)]->input(Dir::North));
      if (x > 0) r.connectOutput(Dir::West,
                                 &routers_[node(x - 1, y)]->input(Dir::East));
    }
  }
  egress_.resize(routers_.size());
}

NocMesh::~NocMesh() = default;

NodeId NocMesh::routeAddr(std::uint64_t addr) const {
  auto t = amap_.lookup(addr);
  SIM_CHECK(t.has_value(), "address 0x" << std::hex << addr << std::dec
                                        << " does not map to any NoC node");
  return static_cast<NodeId>(*t);
}

void NocMesh::attachMaster(txn::InitiatorPort& port, NodeId at) {
  SIM_CHECK(at < routers_.size(),
            "attachMaster at node " << at << " outside mesh of "
                                    << routers_.size() << " routers");
  if (!egress_[at]) {
    egress_[at] = std::make_unique<Router::PacketFifo>(
        clk_, name_ + ".eg" + std::to_string(at), cfg_.adapter_fifo_depth);
    routers_[at]->connectOutput(Dir::Local, egress_[at].get());
  }
  masters_.push_back(std::make_unique<MasterAdapter>(
      clk_, name_ + ".ma" + std::to_string(at), *this, port, at,
      *egress_[at]));
}

void NocMesh::attachSlave(txn::TargetPort& port, NodeId at, std::uint64_t base,
                          std::uint64_t size) {
  SIM_CHECK(at < routers_.size(),
            "attachSlave at node " << at << " outside mesh of "
                                   << routers_.size() << " routers");
  if (!egress_[at]) {
    egress_[at] = std::make_unique<Router::PacketFifo>(
        clk_, name_ + ".eg" + std::to_string(at), cfg_.adapter_fifo_depth);
    routers_[at]->connectOutput(Dir::Local, egress_[at].get());
  }
  amap_.add(base, size, at);
  slaves_.push_back(std::make_unique<SlaveAdapter>(
      clk_, name_ + ".sa" + std::to_string(at), *this, port, at,
      *egress_[at]));
}

std::uint32_t NocMesh::assignEvalLanes(std::uint32_t first_lane) {
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    routers_[i]->setEvalLane(first_lane + static_cast<std::uint32_t>(i));
  }
  adapter_lane_base_ =
      first_lane + static_cast<std::uint32_t>(routers_.size());
  for (auto& m : masters_) m->setEvalLane(adapterLane(m->at()));
  for (auto& s : slaves_) s->setEvalLane(adapterLane(s->at()));
  return adapter_lane_base_ + static_cast<std::uint32_t>(routers_.size());
}

std::uint64_t NocMesh::totalHops() const {
  std::uint64_t hops = 0;
  for (const auto& r : routers_) hops += r->packetsRouted();
  return hops;
}

unsigned NocMesh::hopDistance(NodeId a, NodeId b) const {
  const int ax = static_cast<int>(a % cfg_.width);
  const int ay = static_cast<int>(a / cfg_.width);
  const int bx = static_cast<int>(b % cfg_.width);
  const int by = static_cast<int>(b / cfg_.width);
  return static_cast<unsigned>(std::abs(ax - bx) + std::abs(ay - by));
}

}  // namespace mpsoc::noc
