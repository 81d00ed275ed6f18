// Tests for the scenario-file parser and the windowed timeline recorder.

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <utility>

#include "iptg/iptg.hpp"
#include "mem/simple_memory.hpp"
#include "platform/scenario_parser.hpp"
#include "sim/simulator.hpp"
#include "stats/timeline.hpp"
#include "stbus/node.hpp"
#include "txn/ports.hpp"

namespace {

using namespace mpsoc;

TEST(ScenarioParser, ParsesEveryKnob) {
  const auto sc = platform::parseScenario(R"(
name = my-scenario
protocol = axi
topology = collapsed
memory = lmi
wait_states = 4
stbus_type = 2
arbitration = lru
message_arbitration = false
lightweight_bridges = true
mem_bridge_split = false
lmi_lookahead = 7
lmi_merging = false
lmi_divider = 3
mem_fifo_depth = 12
workload_scale = 0.25
outstanding_override = 2
burst_override = 4
include_cpu = false
two_phase = true
duration_ps = 500000000
noc_width = 4
noc_height = 2
master_limit = 3
cpu_mhz = 312.5
seed = 77
)");
  EXPECT_EQ(sc.name, "my-scenario");
  const auto& c = sc.config;
  EXPECT_EQ(c.protocol, platform::Protocol::Axi);
  EXPECT_EQ(c.topology, platform::Topology::Collapsed);
  EXPECT_EQ(c.memory, platform::MemoryKind::Lmi);
  EXPECT_EQ(c.onchip_wait_states, 4u);
  EXPECT_EQ(c.stbus_type, stbus::StbusType::T2);
  EXPECT_EQ(c.arbitration, txn::ArbPolicy::LeastRecentlyUsed);
  EXPECT_FALSE(c.message_arbitration);
  EXPECT_TRUE(c.force_lightweight_bridges);
  EXPECT_FALSE(c.mem_bridge_split);
  EXPECT_EQ(c.lmi.lookahead, 7u);
  EXPECT_FALSE(c.lmi.opcode_merging);
  EXPECT_EQ(c.lmi.clock_divider, 3u);
  EXPECT_EQ(c.mem_fifo_depth, 12u);
  EXPECT_DOUBLE_EQ(c.workload_scale, 0.25);
  EXPECT_EQ(c.agent_outstanding_override, 2u);
  EXPECT_EQ(c.agent_burst_override_beats, 4u);
  EXPECT_FALSE(c.include_cpu);
  EXPECT_TRUE(c.two_phase_workload);
  EXPECT_EQ(sc.duration_ps, 500'000'000u);
  EXPECT_EQ(c.noc_width, 4u);
  EXPECT_EQ(c.noc_height, 2u);
  EXPECT_EQ(c.master_limit, 3u);
  EXPECT_DOUBLE_EQ(c.cpu_mhz, 312.5);
  EXPECT_EQ(c.seed, 77u);
}

TEST(ScenarioParser, DefaultsAreUntouched) {
  const auto sc = platform::parseScenario("protocol = ahb\n");
  EXPECT_EQ(sc.config.protocol, platform::Protocol::Ahb);
  EXPECT_EQ(sc.config.topology, platform::Topology::Full);
  EXPECT_EQ(sc.config.memory, platform::MemoryKind::OnChip);
  EXPECT_TRUE(sc.config.message_arbitration);
}

TEST(ScenarioParser, ErrorsCarryLineNumbers) {
  EXPECT_THROW(
      {
        try {
          platform::parseScenario("protocol = stbus\nbogus = 1\n");
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
  EXPECT_THROW(platform::parseScenario("protocol = pci\n"),
               std::runtime_error);
  EXPECT_THROW(platform::parseScenario("stbus_type = 4\n"),
               std::runtime_error);
  EXPECT_THROW(platform::parseScenario("topology\n"), std::runtime_error);
}

TEST(ScenarioParser, RemovedKernelKeysAreUnknown) {
  // The kernel is serial: the old sharding keys must fail loudly rather than
  // be absorbed.
  const std::pair<std::string, std::string> removed[] = {
      {"kernel_threads", "2"}, {"racecheck", "true"}};
  for (const auto& [key, value] : removed) {
    try {
      platform::parseScenario("protocol = stbus\n" + key + " = " + value +
                              "\n");
      ADD_FAILURE() << key << " was accepted";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("unknown scenario option '" + key + "'"),
                std::string::npos)
          << msg;
      EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    }
  }
}

TEST(ScenarioParser, ShippedScenariosLoad) {
  // The scenario files under tools/scenarios must stay parseable; the test
  // binary may run from the repo root or from the build tree.
  auto resolve = [](const std::string& rel) -> std::string {
    for (const char* prefix : {"", "../", "../../", "../../../"}) {
      const std::string candidate = prefix + rel;
      std::ifstream probe(candidate);
      if (probe) return candidate;
    }
    return {};
  };
  for (const char* p :
       {"tools/scenarios/fig3_full_stbus.scn",
        "tools/scenarios/fig3_full_ahb.scn",
        "tools/scenarios/fig5_collapsed_axi.scn"}) {
    const std::string path = resolve(p);
    ASSERT_FALSE(path.empty()) << "cannot locate " << p;
    EXPECT_NO_THROW(platform::loadScenario(path)) << path;
  }
}

// ---------------------------------------------------------------------------

TEST(Timeline, WindowsMeanAndDelta) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);

  struct Source : sim::Component {
    std::uint64_t counter = 0;
    using sim::Component::Component;
    void evaluate() override { counter += 2; }
    bool idle() const override { return false; }
  };
  Source src(clk, "src");

  stats::TimelineRecorder tl(clk, "tl", /*window=*/10);
  tl.addSeries("level", [&] { return static_cast<double>(src.counter); });
  tl.addSeries("rate", [&] { return static_cast<double>(src.counter); },
               /*delta=*/true);

  s.run(400'000);  // 40 cycles -> 4 windows
  ASSERT_EQ(tl.windows(), 4u);
  // Rate: +2 per cycle, 10 cycles per window -> 20 per window.
  EXPECT_DOUBLE_EQ(tl.value(0, 1), 20.0);
  EXPECT_DOUBLE_EQ(tl.value(3, 1), 20.0);
  // Level means increase window over window.
  EXPECT_LT(tl.value(0, 0), tl.value(1, 0));
  EXPECT_LT(tl.value(2, 0), tl.value(3, 0));

  const auto table = tl.table();
  EXPECT_EQ(table.rows().size(), 4u);
}

TEST(Timeline, TracksFifoRegimes) {
  // A generator with a saturating phase then silence: the memory FIFO's
  // windowed occupancy must fall between the two regimes.
  sim::Simulator sim;
  auto& clk = sim.addClockDomain("bus", 200.0);
  stbus::StbusNode node(clk, "n", {});
  txn::TargetPort mp(clk, "mem", 4, 8);
  node.addTarget(mp, 0, 1ull << 30);
  mem::SimpleMemory memory(clk, "mem", mp, {3});
  txn::InitiatorPort ip(clk, "m", 2, 8);
  node.addInitiator(ip);
  iptg::IptgConfig cfg;
  cfg.bytes_per_beat = 8;
  iptg::AgentProfile p;
  p.name = "a";
  p.burst_beats = {{8, 1.0}};
  p.outstanding = 4;
  p.total_transactions = 200;
  cfg.agents.push_back(p);
  iptg::Iptg gen(clk, "g", ip, cfg);

  stats::TimelineRecorder tl(clk, "mem-timeline", 500);
  tl.addSeries("occupancy", [&] {
    return static_cast<double>(mp.req.registeredSize());
  });
  tl.addSeries("served", [&] {
    return static_cast<double>(memory.accessesServed());
  }, true);

  sim.run(50'000'000);  // 10k cycles; traffic ends long before
  ASSERT_GE(tl.windows(), 10u);
  // Early windows busy, late windows silent.
  EXPECT_GT(tl.value(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(tl.value(tl.windows() - 1, 1), 0.0);
  EXPECT_GT(tl.value(0, 0), tl.value(tl.windows() - 1, 0));
}

}  // namespace
