// Tests for state manifests, kernel checkpointing and the checkpoint-
// equivalence oracle Simulator::replayCheck (sim/state.hpp, sim/simulator.cpp).
//
// The contract: Simulator::checkpoint() snapshots every component (via its
// generated SIM_STATE saveState()), every registered Updatable (the FIFO
// rings) and every out-of-graph Checkpointable; restoreCheckpoint() rewinds
// the simulation so that re-running the same window of edges reproduces
// bit-identical state digests.  A member missing from its manifest breaks
// exactly that equivalence — the planted rig below proves the divergence is
// caught and attributed to the guilty component, deterministically.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/digest.hpp"
#include "core/experiment.hpp"
#include "order_oracle.hpp"
#include "platform/config.hpp"
#include "platform/platform.hpp"
#include "platform/scenario_parser.hpp"
#include "sim/component.hpp"
#include "sim/fifo.hpp"
#include "sim/simulator.hpp"
#include "sim/state.hpp"

#ifndef MPSOC_SCENARIO_DIR
#error "MPSOC_SCENARIO_DIR must point at tools/scenarios"
#endif

namespace {

using namespace mpsoc;

platform::PlatformConfig fig3Small() {
  platform::PlatformConfig cfg;
  cfg.protocol = platform::Protocol::Stbus;
  cfg.topology = platform::Topology::Full;
  cfg.memory = platform::MemoryKind::OnChip;
  cfg.onchip_wait_states = 1;
  cfg.workload_scale = 0.25;
  return cfg;
}

// Enabling the oracle must not perturb results: digests match the unchecked
// run bit-for-bit.
TEST(StateCheck, OracleFlagDoesNotPerturbResults) {
  platform::PlatformConfig cfg = fig3Small();
  const std::uint64_t plain =
      core::digestValue(core::runScenario(cfg, "fig3-small"));
  cfg.statecheck = true;
  cfg.statecheck_at_ps = 200'000;
  cfg.statecheck_edges = 500;
  EXPECT_EQ(plain, core::digestValue(core::runScenario(cfg, "fig3-small")));
}

// ---------------------------------------------------------------------------
// Kernel checkpoint primitives.
// ---------------------------------------------------------------------------

// A SyncFifo's ring, occupancy registration and in-flight staged ops are part
// of the checkpoint: rewinding mid-stream must replay the identical drain
// sequence the first pass observed.
TEST(StateCheck, FifoCheckpointRoundTripReplaysIdenticalStream) {
  struct Producer : sim::Component {
    sim::SyncFifo<int>& f;
    int next_ = 0;
    Producer(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
        : sim::Component(c, "prod"), f(fifo) {}
    void evaluate() override {
      if (f.canPush()) f.push(next_++);
    }
    SIM_STATE_MEMBERS(next_);
  };
  struct Consumer : sim::Component {
    sim::SyncFifo<int>& f;
    std::vector<int> got_;
    Consumer(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
        : sim::Component(c, "cons"), f(fifo) {}
    void evaluate() override {
      if (!f.empty()) got_.push_back(f.pop());
    }
    SIM_STATE_MEMBERS(got_);
  };
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "pipe", 4);
  Producer p(clk, f);
  Consumer c(clk, f);

  s.run(200'000);  // stream mid-flight: the ring is partially full
  s.checkpoint();
  const std::vector<int> at_ckpt = c.got_;

  for (int i = 0; i < 50 && s.step(); ++i) {
  }
  const std::vector<int> first_pass = c.got_;
  ASSERT_GT(first_pass.size(), at_ckpt.size());

  s.restoreCheckpoint();
  EXPECT_EQ(c.got_, at_ckpt);
  for (int i = 0; i < 50 && s.step(); ++i) {
  }
  EXPECT_EQ(c.got_, first_pass);
}

// Checkpoint equivalence holds for a well-manifested component: the window
// digests are bit-identical between the first pass and the replay, so the
// oracle stays silent.
TEST(StateCheck, ManifestedComponentReplaysBitIdentically) {
  struct Counter : sim::Component {
    std::uint64_t acc_ = 0;
    std::uint64_t step_ = 1;
    using sim::Component::Component;
    void evaluate() override {
      acc_ += step_;
      step_ = (step_ * 5 + 1) % 97;
    }
    SIM_STATE_MEMBERS(acc_, step_);
  };
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  Counter cnt(clk, "counter");
  s.run(100'000);
  EXPECT_NO_THROW(s.replayCheck(200, "statecheck", "test"));
}

// ---------------------------------------------------------------------------
// Planted incompleteness: the exact defect class the unmanifested-state lint
// rule and the statecheck oracle exist to catch.
// ---------------------------------------------------------------------------

// A component whose evaluate() depends on a member its manifest omits.
// restoreCheckpoint() rewinds acc_ but not hidden_, so the replayed window
// accumulates different values and the component's own digest item diverges.
// Returns the oracle's report (empty when it did not throw).
std::string runLeakyRig() {
  struct Leaky : sim::Component {
    std::uint64_t acc_ = 0;
    std::uint64_t hidden_ = 0;  // deliberately missing from the manifest
    using sim::Component::Component;
    void evaluate() override { acc_ += ++hidden_; }
    SIM_STATE_MEMBERS(acc_);
  };
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  Leaky bad(clk, "leaky");
  s.run(100'000);
  try {
    s.replayCheck(100, "statecheck", "planted leak");
  } catch (const sim::InvariantViolation& e) {
    return e.what();
  }
  return {};
}

TEST(StateCheck, PlantedUnmanifestedMemberDivergesAndIsAttributed) {
  const std::string report = runLeakyRig();
  ASSERT_FALSE(report.empty())
      << "replayed window matched despite the unmanifested member";
  // The first diverging item names the guilty component, not some innocent
  // downstream holder: that attribution is what makes the oracle's report
  // actionable.  The label and hint say which oracle tripped and why.
  EXPECT_NE(report.find("statecheck divergence"), std::string::npos) << report;
  EXPECT_NE(report.find("edges: clk:leaky digests"), std::string::npos)
      << report;
  EXPECT_NE(report.find("planted leak"), std::string::npos) << report;
}

TEST(StateCheck, PlantedDivergenceReportIsDeterministic) {
  const std::string first = runLeakyRig();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, runLeakyRig());
}

// ---------------------------------------------------------------------------
// The order oracle (tests/order_oracle.hpp) on full platforms: a forward and
// a reverse-order copy stepped in lockstep, every FIFO compared after every
// edge, with the protocol monitors attached to both.
// ---------------------------------------------------------------------------

TEST(StateCheck, OrderOracleGreenOnFullPlatform) {
  platform::PlatformConfig cfg = fig3Small();
  cfg.workload_scale = 0.1;
  cfg.verify = true;
  const testutil::LockstepReport r = testutil::runPlatformOrderOracle(cfg);
  EXPECT_FALSE(r.diverged) << r.what;
  EXPECT_GT(r.edges, 0u);
}

// Known defect, pinned: SyncFifo::popAt() frees its slot on the same edge, so
// a producer evaluated after the out-of-order consumer sees room that it
// would not see in the other order (the canPush() comment, ROADMAP).  On
// fig5_small the LMI lookahead's popAt() is the trigger; on fig3_full_stbus
// it is InterconnectBase::popResponseByIdentity().  The holder named is the
// first FIFO, in domain and registration order, whose contents differ after
// the edge.  This is the test to flip to "no divergence" once canPush()
// counts out-of-order pops.
TEST(OrderOracle, PopAtSameEdgeSlotDivergesOnBusPlatforms) {
  platform::PlatformConfig fig5_small;
  fig5_small.protocol = platform::Protocol::Stbus;
  fig5_small.topology = platform::Topology::Full;
  fig5_small.memory = platform::MemoryKind::Lmi;
  fig5_small.workload_scale = 0.25;
  const testutil::LockstepReport lmi =
      testutil::runPlatformOrderOracle(fig5_small);
  ASSERT_TRUE(lmi.diverged);
  EXPECT_EQ(lmi.holder, "N5_up.b.req") << lmi.what;
  EXPECT_EQ(lmi.edges, 657u) << lmi.what;

  const platform::PlatformConfig stbus =
      platform::loadScenario(std::string(MPSOC_SCENARIO_DIR) +
                             "/fig3_full_stbus.scn")
          .config;
  const testutil::LockstepReport rsp = testutil::runPlatformOrderOracle(stbus);
  ASSERT_TRUE(rsp.diverged);
  EXPECT_EQ(rsp.holder, "N1_up.a.req") << rsp.what;
  EXPECT_EQ(rsp.edges, 209'683u) << rsp.what;
  EXPECT_EQ(rsp.t, 286'095'000u) << rsp.what;
}

// ---------------------------------------------------------------------------
// The platform-level oracle: checkpoint mid-run, execute a window, rewind,
// re-execute, compare every labeled digest.  Green across the full reference
// platform, fully monitored.
// ---------------------------------------------------------------------------

TEST(StateCheck, FullPlatformOracleGreen) {
  platform::PlatformConfig cfg = fig3Small();
  cfg.verify = true;
  cfg.statecheck = true;
  cfg.statecheck_at_ps = 200'000;
  cfg.statecheck_edges = 500;
  platform::Platform p(cfg);
  EXPECT_NO_THROW(p.run());
}

// The oracle window must also hold on the LMI/DDR platform, whose controller
// carries the deepest state (reorder queues, bank timing, refresh).
TEST(StateCheck, LmiPlatformOracleGreen) {
  platform::PlatformConfig cfg = fig3Small();
  cfg.memory = platform::MemoryKind::Lmi;
  cfg.verify = true;
  cfg.statecheck = true;
  cfg.statecheck_at_ps = 200'000;
  cfg.statecheck_edges = 500;
  platform::Platform p(cfg);
  EXPECT_NO_THROW(p.run());
}

}  // namespace
