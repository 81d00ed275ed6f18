// NoC substrate tests: XY routing, end-to-end transactions over the mesh,
// placement effects, saturation behaviour and conservation.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <ostream>
#include <tuple>
#include <vector>

#include "iptg/iptg.hpp"
#include "mem/simple_memory.hpp"
#include "noc/mesh.hpp"
#include "order_oracle.hpp"
#include "platform/platform.hpp"
#include "sim/check.hpp"
#include "sim/simulator.hpp"
#include "txn/ports.hpp"

namespace {

using namespace mpsoc;

TEST(NocRouter, XyRoutingPicksDimensionOrder) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("noc", 500.0);
  noc::Router r(clk, "r11", 1, 1, 3, 3, {});
  // From (1,1): east first when x differs, regardless of y.
  EXPECT_EQ(r.routeTo(/*node (2,2)=*/8), noc::Dir::East);
  EXPECT_EQ(r.routeTo(/*node (0,2)=*/6), noc::Dir::West);
  EXPECT_EQ(r.routeTo(/*node (1,0)=*/1), noc::Dir::North);
  EXPECT_EQ(r.routeTo(/*node (1,2)=*/7), noc::Dir::South);
  EXPECT_EQ(r.routeTo(/*node (1,1)=*/4), noc::Dir::Local);

  // The route table of every router of several mesh shapes, degenerate rows
  // and columns included: x first, then y, Local at home.
  const std::pair<unsigned, unsigned> shapes[] = {
      {1, 4}, {4, 1}, {3, 3}, {4, 3}, {5, 2}};
  for (const auto& [w, h] : shapes) {
    for (unsigned y = 0; y < h; ++y) {
      for (unsigned x = 0; x < w; ++x) {
        noc::Router rxy(clk, "r", x, y, w, h, {});
        for (unsigned dy = 0; dy < h; ++dy) {
          for (unsigned dx = 0; dx < w; ++dx) {
            noc::Dir want = noc::Dir::Local;
            if (dx != x) {
              want = dx > x ? noc::Dir::East : noc::Dir::West;
            } else if (dy != y) {
              want = dy > y ? noc::Dir::South : noc::Dir::North;
            }
            EXPECT_EQ(rxy.routeTo(static_cast<noc::NodeId>(dy * w + dx)), want)
                << w << "x" << h << " mesh, router (" << x << "," << y
                << ") to (" << dx << "," << dy << ")";
          }
        }
      }
    }
  }
}

TEST(NocRouter, RouteOutsideMeshThrowsNamingRouter) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("noc", 500.0);
  noc::Router r(clk, "noc.r21", 2, 1, 4, 3, {});
  for (noc::NodeId dst : {noc::NodeId{12}, noc::NodeId{13}, noc::NodeId{400}}) {
    try {
      (void)r.routeTo(dst);
      ADD_FAILURE() << "routeTo(" << dst << ") did not throw";
    } catch (const sim::InvariantViolation& e) {
      EXPECT_EQ(e.context().who, "noc.r21");
      EXPECT_NE(std::string(e.what()).find("noc.r21"), std::string::npos);
      EXPECT_NE(e.detail().find("outside the 4x3 mesh"), std::string::npos)
          << e.detail();
    }
  }
}

// ---------------------------------------------------------------------------
// Same-edge arbitration, hand-driven: one router at (1,1) of a 3x3 mesh, a
// feeder that pushes scripted packets into its inputs on edge 0, and a drain
// that empties every output sink each edge and records (edge the packet
// became visible downstream, output, tag).  The expected edges follow from
// the router timing: a packet granted on edge g with pipeline latency 2 and
// f flits occupies its link for 2+f edges and, cut-through, is pushed
// downstream on edge g+2 (visible on g+3).
// ---------------------------------------------------------------------------

struct Scripted {
  noc::Dir in;
  noc::NodeId dst;
  std::uint16_t tag;
  std::uint32_t flits = 1;
  std::uint64_t msg_id = 0;
};

struct Arrival {
  std::uint64_t edge;
  noc::Dir out;
  std::uint16_t tag;

  bool operator==(const Arrival&) const = default;
  friend std::ostream& operator<<(std::ostream& os, const Arrival& a) {
    return os << "{edge " << a.edge << ", out " << static_cast<int>(a.out)
              << ", tag " << a.tag << "}";
  }
  auto simStateMembers() { return std::tie(edge, out, tag); }
};

std::vector<Arrival> runHandDriven(const std::vector<Scripted>& script,
                                   noc::RouterConfig cfg) {
  struct Feeder : sim::Component {
    noc::Router& r;
    const std::vector<Scripted>& script;
    bool fed = false;
    Feeder(sim::ClockDomain& c, noc::Router& router,
           const std::vector<Scripted>& s)
        : sim::Component(c, "feeder"), r(router), script(s) {}
    void evaluate() override {
      if (fed) return;
      fed = true;
      for (const Scripted& p : script) {
        auto pkt = std::make_shared<noc::NocPacket>();
        pkt->dst = p.dst;
        pkt->src = p.tag;  // routers never read src: use it as the tag
        pkt->flits = p.flits;
        pkt->req = std::make_shared<txn::Request>();
        pkt->req->msg_id = p.msg_id;
        r.input(p.in).push(pkt);
      }
    }
    SIM_STATE_MEMBERS(fed);
    SIM_STATE_EXEMPT(r, "wiring");
    SIM_STATE_EXEMPT(script, "immutable configuration");
  };
  struct Drain : sim::Component {
    std::vector<std::unique_ptr<noc::Router::PacketFifo>>& sinks;
    std::vector<Arrival> seen;
    std::uint64_t edge = 0;
    Drain(sim::ClockDomain& c,
          std::vector<std::unique_ptr<noc::Router::PacketFifo>>& s)
        : sim::Component(c, "drain"), sinks(s) {}
    void evaluate() override {
      for (std::size_t d = 0; d < noc::kDirs; ++d) {
        while (!sinks[d]->empty()) {
          seen.push_back(
              {edge, static_cast<noc::Dir>(d), sinks[d]->pop()->src});
        }
      }
      ++edge;
    }
    SIM_STATE_MEMBERS(seen, edge);
    SIM_STATE_EXEMPT(sinks, "wiring (kernel checkpoints FIFOs)");
  };

  struct Rig {
    sim::Simulator s;
    sim::ClockDomain& clk = s.addClockDomain("noc", 400.0);
    noc::Router r;
    std::vector<std::unique_ptr<noc::Router::PacketFifo>> sinks;
    Feeder feeder;
    Drain drain;
    Rig(const std::vector<Scripted>& script, noc::RouterConfig cfg)
        : r(clk, "r11", 1, 1, 3, 3, cfg),
          sinks(makeSinks(clk, r)),
          feeder(clk, r, script),
          drain(clk, sinks) {}
    static std::vector<std::unique_ptr<noc::Router::PacketFifo>> makeSinks(
        sim::ClockDomain& clk, noc::Router& r) {
      std::vector<std::unique_ptr<noc::Router::PacketFifo>> v;
      for (std::size_t d = 0; d < noc::kDirs; ++d) {
        v.push_back(std::make_unique<noc::Router::PacketFifo>(
            clk, "sink" + std::to_string(d), 16));
        r.connectOutput(static_cast<noc::Dir>(d), v.back().get());
      }
      return v;
    }
  };

  // A reverse-order copy steps in lockstep: the arbitration must not depend
  // on evaluation order.
  Rig fwd(script, cfg);
  Rig rev(script, cfg);
  const testutil::LockstepReport rep = testutil::runOrderOracle(
      fwd.s, rev.s, std::numeric_limits<sim::Picos>::max(),
      [&] { return fwd.s.edgesExecuted() >= 40; });
  EXPECT_FALSE(rep.diverged) << rep.what;
  EXPECT_EQ(fwd.r.packetsRouted(), script.size());
  return fwd.drain.seen;
}

// Node ids seen from (1,1) of a 3x3 mesh.
constexpr noc::NodeId kNorth = 1, kEast = 5;

TEST(NocRouterArbitration, ContendingInputsGetRoundRobinGrants) {
  using noc::Dir;
  const std::vector<Scripted> script = {{Dir::West, kEast, 1},
                                        {Dir::West, kEast, 2},
                                        {Dir::North, kEast, 3},
                                        {Dir::North, kEast, 4}};
  // The round-robin scan starts after input North (index 0): West wins
  // first, then the two inputs alternate, one 3-edge link occupancy apart.
  const std::vector<Arrival> want = {{4, Dir::East, 1},
                                     {7, Dir::East, 3},
                                     {10, Dir::East, 2},
                                     {13, Dir::East, 4}};
  EXPECT_EQ(runHandDriven(script, {}), want);
}

TEST(NocRouterArbitration, NextHeadWinsLaterOutputOnSameEdge) {
  using noc::Dir;
  // West's head goes North (output 0); once popped, its next head (East,
  // output 1) is visible at once and wins East on the same edge.
  const std::vector<Arrival> same_edge = {{4, Dir::North, 1},
                                          {4, Dir::East, 2}};
  EXPECT_EQ(runHandDriven({{Dir::West, kNorth, 1}, {Dir::West, kEast, 2}},
                          {}),
            same_edge);
  // Reversed, the next head wants an output already arbitrated this edge
  // and waits one edge.
  const std::vector<Arrival> next_edge = {{4, Dir::East, 1},
                                          {5, Dir::North, 2}};
  EXPECT_EQ(runHandDriven({{Dir::West, kEast, 1}, {Dir::West, kNorth, 2}},
                          {}),
            next_edge);
}

TEST(NocRouterArbitration, MessageLockingHoldsPortForSameMessage) {
  using noc::Dir;
  const std::vector<Scripted> script = {{Dir::West, kEast, 1, 1, 7},
                                        {Dir::West, kEast, 2, 1, 7},
                                        {Dir::West, kEast, 4, 1, 8},
                                        {Dir::North, kEast, 3, 1, 9}};
  noc::RouterConfig locking;
  locking.message_locking = true;
  // West keeps the port for the rest of message 7 only; its message 8 goes
  // back to round-robin, which picks North first.
  const std::vector<Arrival> held = {{4, Dir::East, 1},
                                     {7, Dir::East, 2},
                                     {10, Dir::East, 3},
                                     {13, Dir::East, 4}};
  EXPECT_EQ(runHandDriven(script, locking), held);
  // Without locking, round-robin hands the port to North in between.
  const std::vector<Arrival> interleaved = {{4, Dir::East, 1},
                                            {7, Dir::East, 3},
                                            {10, Dir::East, 2},
                                            {13, Dir::East, 4}};
  EXPECT_EQ(runHandDriven(script, {}), interleaved);
}

TEST(NocRouterArbitration, CrossingTailBlocksLinkForRemainingCycles) {
  using noc::Dir;
  // A 4-flit packet granted on edge 1 occupies East for 2+4 = 6 edges.
  // Cut-through hands it downstream on edge 3 with 3 link cycles left; the
  // next grant waits exactly those 3 edges (granted on edge 7, visible 10).
  const std::vector<Scripted> script = {{Dir::West, kEast, 1, 4},
                                        {Dir::North, kEast, 2, 1}};
  const std::vector<Arrival> cut = {{4, Dir::East, 1}, {10, Dir::East, 2}};
  EXPECT_EQ(runHandDriven(script, {}), cut);
  // Store-and-forward only moves the first handoff to the tail edge; the
  // second grant is unchanged.
  noc::RouterConfig saf;
  saf.cut_through = false;
  const std::vector<Arrival> stored = {{7, Dir::East, 1}, {10, Dir::East, 2}};
  EXPECT_EQ(runHandDriven(script, saf), stored);
}

struct NocRig {
  sim::Simulator sim;
  sim::ClockDomain& clk;
  noc::NocMesh mesh;
  std::unique_ptr<txn::TargetPort> mport;
  std::unique_ptr<mem::SimpleMemory> memory;
  std::vector<std::unique_ptr<txn::InitiatorPort>> iports;
  std::vector<std::unique_ptr<iptg::Iptg>> gens;

  NocRig(unsigned w, unsigned h, noc::NodeId mem_at,
         const std::vector<noc::NodeId>& masters_at, std::uint64_t txns,
         unsigned wait_states = 1, unsigned outstanding = 4)
      : clk(sim.addClockDomain("noc", 400.0)),
        mesh(clk, "noc", {w, h, {}, 4}) {
    mport = std::make_unique<txn::TargetPort>(clk, "mem", 8, 16);
    memory = std::make_unique<mem::SimpleMemory>(
        clk, "mem", *mport, mem::SimpleMemoryConfig{wait_states});
    mesh.attachSlave(*mport, mem_at, 0x0, 1ull << 30);

    for (std::size_t i = 0; i < masters_at.size(); ++i) {
      iports.push_back(std::make_unique<txn::InitiatorPort>(
          clk, "m" + std::to_string(i), 2, 8));
      mesh.attachMaster(*iports.back(), masters_at[i]);
      iptg::IptgConfig cfg;
      cfg.seed = 3 + i;
      cfg.bytes_per_beat = 8;
      iptg::AgentProfile p;
      p.name = "a";
      p.read_fraction = 0.8;
      p.burst_beats = {{8, 1.0}};
      p.base_addr = (1ull << 22) * i;
      p.region_size = 1 << 20;
      p.outstanding = outstanding;
      p.total_transactions = txns;
      cfg.agents.push_back(p);
      gens.push_back(std::make_unique<iptg::Iptg>(
          clk, "g" + std::to_string(i), *iports.back(), cfg));
    }
  }

  sim::Picos run() { return sim.runUntilIdle(1'000'000'000'000ull); }

  bool allDone() const {
    for (const auto& g : gens) {
      if (!g->done()) return false;
    }
    return true;
  }
};

TEST(NocMesh, SingleMasterRoundTrip) {
  // Master at (0,0), memory at (2,2) on a 3x3 mesh: 4 hops each way.
  NocRig rig(3, 3, /*mem at (2,2)=*/8, {/*master at (0,0)=*/0}, 30);
  rig.run();
  EXPECT_TRUE(rig.allDone());
  EXPECT_EQ(rig.memory->accessesServed(), 30u);
  EXPECT_EQ(rig.mesh.hopDistance(0, 8), 4u);
  // Each transaction crosses >= hop-count routers twice (there and back).
  EXPECT_GE(rig.mesh.totalHops(), 30u * 2u * 4u);
}

TEST(NocMesh, ManyToOneCompletesWithoutLoss) {
  NocRig rig(3, 3, 4 /*(1,1) centre*/, {0, 2, 6, 8}, 100);
  rig.run();
  EXPECT_TRUE(rig.allDone());
  EXPECT_EQ(rig.memory->accessesServed(), 400u);
  for (const auto& g : rig.gens) EXPECT_EQ(g->retired(), 100u);
}

TEST(NocMesh, CentralPlacementBeatsCornerPlacement) {
  // Same traffic, memory at the centre vs at a corner: mean distance (and
  // with latency-bound masters, execution time) favours the centre.
  NocRig centre(3, 3, 4, {0, 2, 6, 8}, 120, 1, /*outstanding=*/1);
  NocRig corner(3, 3, 8, {0, 2, 6, 4}, 120, 1, /*outstanding=*/1);
  const sim::Picos tc = centre.run();
  const sim::Picos tk = corner.run();
  EXPECT_TRUE(centre.allDone());
  EXPECT_TRUE(corner.allDone());
  EXPECT_LT(tc, tk);
}

TEST(NocMesh, WritesArePostedAndArrive) {
  // Start from a master-less rig: an attached MasterAdapter keeps a reference
  // to its port, so ports must outlive the mesh once attached.
  NocRig rig(2, 2, 3, {}, 0);
  rig.iports.push_back(
      std::make_unique<txn::InitiatorPort>(rig.clk, "w0", 2, 8));
  rig.mesh.attachMaster(*rig.iports.back(), 0);
  iptg::IptgConfig cfg;
  cfg.bytes_per_beat = 8;
  iptg::AgentProfile p;
  p.name = "w";
  p.read_fraction = 0.0;
  p.posted_writes = true;
  p.burst_beats = {{8, 1.0}};
  p.total_transactions = 50;
  cfg.agents.push_back(p);
  rig.gens.push_back(
      std::make_unique<iptg::Iptg>(rig.clk, "gw", *rig.iports.back(), cfg));
  rig.run();
  EXPECT_TRUE(rig.allDone());
  EXPECT_EQ(rig.memory->accessesServed(), 50u);
}

TEST(NocMesh, StoreAndForwardSlowerThanCutThrough) {
  auto build = [](bool cut_through) {
    auto rig = std::make_unique<NocRig>(3, 3, 8, std::vector<noc::NodeId>{0},
                                        60, 1, 1);
    (void)cut_through;  // configured below via a fresh rig
    return rig;
  };
  // Build explicitly with the two router disciplines.
  sim::Picos times[2];
  for (int m = 0; m < 2; ++m) {
    sim::Simulator sim;
    auto& clk = sim.addClockDomain("noc", 400.0);
    noc::MeshConfig mc{3, 3, {}, 4};
    mc.router.cut_through = (m == 1);
    noc::NocMesh mesh(clk, "noc", mc);
    txn::TargetPort mp(clk, "mem", 8, 16);
    mem::SimpleMemory memory(clk, "mem", mp, {1});
    mesh.attachSlave(mp, 8, 0, 1ull << 30);
    txn::InitiatorPort ip(clk, "m", 2, 8);
    mesh.attachMaster(ip, 0);
    iptg::IptgConfig cfg;
    cfg.bytes_per_beat = 8;
    iptg::AgentProfile p;
    p.name = "a";
    p.burst_beats = {{8, 1.0}};
    p.outstanding = 1;  // latency-bound: hop latency dominates
    p.total_transactions = 60;
    cfg.agents.push_back(p);
    iptg::Iptg gen(clk, "g", ip, cfg);
    times[m] = sim.runUntilIdle(1'000'000'000'000ull);
    EXPECT_TRUE(gen.done());
  }
  EXPECT_LT(times[1], times[0]);  // cut-through beats store-and-forward
  (void)build;
}

TEST(NocMesh, MessageLockingPreservesTrains) {
  // Two masters inject 4-packet message trains toward one sink; with
  // message-locking routers the trains arrive unfragmented.
  for (bool locking : {false, true}) {
    sim::Simulator sim;
    auto& clk = sim.addClockDomain("noc", 400.0);
    noc::MeshConfig mc{3, 1, {}, 4};
    mc.router.message_locking = locking;
    noc::NocMesh mesh(clk, "noc", mc);
    txn::TargetPort mp(clk, "mem", 16, 16);
    mesh.attachSlave(mp, 1, 0, 1ull << 30);  // centre of a 1x3 row

    // Drain the memory port manually to observe arrival order.
    struct Sink : sim::Component {
      txn::TargetPort& p;
      std::vector<std::uint64_t> msgs;
      Sink(sim::ClockDomain& c, txn::TargetPort& port)
          : sim::Component(c, "sink"), p(port) {}
      void evaluate() override {
        while (!p.req.empty()) {
          auto r = p.req.pop();
          msgs.push_back(r->msg_id);
          if (!(r->posted && r->op == txn::Opcode::Write)) {
            auto rsp = std::make_shared<txn::Response>();
            rsp->req = r;
            rsp->beats = 1;
            rsp->sched.first_beat = clk_.simulator().now() + clk_.period();
            rsp->sched.beat_period = clk_.period();
            p.rsp.push(rsp);
          }
        }
      }
      bool idle() const override { return p.req.empty(); }
    };
    Sink sink(clk, mp);

    std::vector<std::unique_ptr<txn::InitiatorPort>> ports;
    std::vector<std::unique_ptr<iptg::Iptg>> gens;
    for (int i = 0; i < 2; ++i) {
      ports.push_back(std::make_unique<txn::InitiatorPort>(
          clk, "m" + std::to_string(i), 4, 8));
      mesh.attachMaster(*ports.back(), i == 0 ? 0 : 2);
      iptg::IptgConfig cfg;
      cfg.seed = 5 + i;
      cfg.bytes_per_beat = 8;
      iptg::AgentProfile p;
      p.name = "a";
      p.read_fraction = 0.0;
      p.posted_writes = true;  // payload-carrying packets contend hardest
      p.burst_beats = {{8, 1.0}};
      p.outstanding = 8;
      p.message_len = 4;
      p.base_addr = (1ull << 22) * i;
      p.region_size = 1 << 20;
      p.total_transactions = 32;
      cfg.agents.push_back(p);
      gens.push_back(std::make_unique<iptg::Iptg>(
          clk, "g" + std::to_string(i), *ports.back(), cfg));
    }
    sim.runUntilIdle(1'000'000'000'000ull);
    ASSERT_EQ(sink.msgs.size(), 64u);

    // Count fragmented messages: a message is fragmented if its packets do
    // not arrive contiguously.
    int fragmented = 0;
    for (std::size_t i = 0; i < sink.msgs.size();) {
      const std::uint64_t m = sink.msgs[i];
      std::size_t run = 0;
      while (i < sink.msgs.size() && sink.msgs[i] == m) {
        ++run;
        ++i;
      }
      if (run < 4) ++fragmented;
    }
    if (locking) {
      EXPECT_EQ(fragmented, 0) << "message-locking must keep trains together";
    } else {
      EXPECT_GT(fragmented, 0) << "round-robin should interleave at least once";
    }
  }
}

TEST(NocMesh, OrderOracleGreenOnMeshRig) {
  NocRig fwd(3, 3, 4, {0, 2, 6, 8}, 40);
  NocRig rev(3, 3, 4, {0, 2, 6, 8}, 40);
  const testutil::LockstepReport r = testutil::runOrderOracle(
      fwd.sim, rev.sim, 1'000'000'000'000ull,
      [&] { return fwd.allDone() && rev.allDone(); });
  EXPECT_FALSE(r.diverged) << r.what;
  EXPECT_TRUE(fwd.allDone());
}

TEST(NocMesh, OrderOracleGreenOnMeshPlatformWindow) {
  platform::PlatformConfig cfg;
  cfg.protocol = platform::Protocol::Stbus;
  cfg.topology = platform::Topology::NocMesh;
  cfg.memory = platform::MemoryKind::Lmi;
  cfg.noc_width = 4;
  cfg.noc_height = 3;
  cfg.workload_scale = 0.25;
  platform::Platform fwd(cfg);
  platform::Platform rev(cfg);
  const testutil::LockstepReport r = testutil::runOrderOracle(
      fwd.simulator(), rev.simulator(), 20'000'000);  // 20 us simulated
  EXPECT_FALSE(r.diverged) << r.what;
  ASSERT_NE(fwd.nocMesh(), nullptr);
  EXPECT_GT(fwd.nocMesh()->totalHops(), 0u);
}

TEST(NocMesh, DeterministicRuns) {
  NocRig a(3, 3, 4, {0, 2, 6, 8}, 60);
  NocRig b(3, 3, 4, {0, 2, 6, 8}, 60);
  EXPECT_EQ(a.run(), b.run());
}

}  // namespace
