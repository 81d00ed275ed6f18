// Regression and unit tests for the activity-driven edge loop: the run()
// time-bound fix, the runUntilIdle() stale-snapshot / last-active fixes, the
// Watchdog first-interval fix, the min-scan edge schedule (checked against a
// brute-force grid enumeration), and the sleep()/wake() activity protocol
// (gating equivalence, wake hooks, contract enforcement, gated-vs-ungated
// lockstep divergence on illegal sleeps).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/digest.hpp"
#include "core/experiment.hpp"
#include "order_oracle.hpp"
#include "platform/config.hpp"
#include "sim/check.hpp"
#include "sim/component.hpp"
#include "sim/fifo.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/watchdog.hpp"

namespace {

using namespace mpsoc;

// Records the local cycle numbers at which it ran.
class Ticker : public sim::Component {
 public:
  using sim::Component::Component;
  void evaluate() override { seen.push_back(now()); }
  std::vector<sim::Cycle> seen;
};

// ---------------------------------------------------------------------------
// run() time bound
// ---------------------------------------------------------------------------

TEST(KernelRun, NoEdgePastBound) {
  // Non-integer-ratio domain pair: 300 MHz (3333 ps) against 100 MHz
  // (10000 ps).  run(45 ns) must stop at the last edge instant <= 45 ns —
  // 43'329 ps (= 13 * 3333) — not execute the 46'662 ps edge and overshoot,
  // which is exactly what the pre-fix loop (advance first, test after) did.
  sim::Simulator s;
  auto& fast = s.addClockDomain("fast", 300.0);
  auto& slow = s.addClockDomain("slow", 100.0);
  Ticker tf(fast, "tf");
  Ticker ts(slow, "ts");

  const sim::Picos bound = 45'000;
  const sim::Picos end = s.run(bound);

  const sim::Picos expect_end = (bound / fast.period()) * fast.period();
  EXPECT_EQ(end, expect_end);
  EXPECT_EQ(s.now(), end);
  EXPECT_LE(s.now(), bound);
  EXPECT_EQ(tf.seen.size(), bound / fast.period());  // 13 edges
  EXPECT_EQ(ts.seen.size(), bound / slow.period());  // 4 edges
}

TEST(KernelRun, EdgeExactlyOnBoundStillRuns) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);  // 10 ns
  Ticker t(clk, "t");
  EXPECT_EQ(s.run(50'000), 50'000u);
  EXPECT_EQ(t.seen.size(), 5u);
}

// ---------------------------------------------------------------------------
// runUntilIdle()
// ---------------------------------------------------------------------------

TEST(KernelRunUntilIdle, IdleAtEntryExecutesNoEdges) {
  // A platform that is quiescent before the first edge: runUntilIdle() must
  // report last_active = now() (here t=0) without burning its quiesce window.
  // The pre-fix loop executed kQuiesceEdges edges and reported the time of
  // the edge *before* the idle streak even when nothing ever ran.
  struct AlwaysIdle : sim::Component {
    using sim::Component::Component;
    void evaluate() override {}
  };
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  AlwaysIdle c(clk, "c");
  EXPECT_EQ(s.runUntilIdle(1'000'000), 0u);
  EXPECT_EQ(s.edgesExecuted(), 0u);
  EXPECT_EQ(s.now(), 0u);
}

TEST(KernelRunUntilIdle, MidRunRegisteredComponentIsPolled) {
  // A component constructed while the loop is already running (cycle 5) must
  // join the idle scan: the pre-fix implementation polled a snapshot taken on
  // entry, declared the platform idle while the child was still busy, and
  // stopped early.
  struct Child : sim::Component {
    using sim::Component::Component;
    unsigned remaining = 20;
    void evaluate() override {
      if (remaining > 0) --remaining;
    }
    bool idle() const override { return remaining == 0; }
  };
  struct Spawner : sim::Component {
    using sim::Component::Component;
    std::unique_ptr<Child> child;
    void evaluate() override {
      if (now() == 5 && !child) child = std::make_unique<Child>(clk_, "child");
    }
    bool idle() const override { return child != nullptr; }
  };

  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);  // 10 ns
  Spawner sp(clk, "spawner");
  const sim::Picos last_active = s.runUntilIdle(10'000'000);

  ASSERT_TRUE(sp.child);
  EXPECT_EQ(sp.child->remaining, 0u);
  // The child joins its spawn edge (cycle 5) and stays busy for 20
  // evaluations, so it still reports non-idle after the cycle-23 edge and
  // first polls idle after cycle 24 — last_active is 230 ns.
  EXPECT_EQ(last_active, 230'000u);
}

// ---------------------------------------------------------------------------
// Watchdog first interval
// ---------------------------------------------------------------------------

TEST(KernelWatchdog, FiresOnFirstStalledInterval) {
  // Progress flat from t=0 while a component is busy: the watchdog must fire
  // at its *first* check.  The pre-fix guard (checks_ > 1) used the first
  // interval to prime the baseline, silently extending the detection latency
  // to two intervals; the baseline is now taken at construction.
  struct Busy : sim::Component {
    using sim::Component::Component;
    void evaluate() override {}
    bool idle() const override { return false; }
  };
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);  // 10 ns
  Busy b(clk, "busy");
  sim::Watchdog w(clk, "wd", [] { return std::uint64_t{0}; }, 10);
  std::string alarm;
  w.setAlarm([&](const std::string& msg) { alarm = msg; });

  s.run(100'000);  // exactly one check interval (cycle 10)

  EXPECT_EQ(w.checksPerformed(), 1u);
  EXPECT_TRUE(w.fired());
  EXPECT_FALSE(alarm.empty());
}

// ---------------------------------------------------------------------------
// Edge schedule
// ---------------------------------------------------------------------------

// Every instant in (from, to] holding an edge of some domain, mapped to the
// indices of the domains on it in ascending order.  Enumerated from each
// period's grid (multiples of the period), independently of the kernel.
std::map<sim::Picos, std::vector<std::size_t>> gridEdges(
    const std::vector<sim::Picos>& periods, sim::Picos from, sim::Picos to) {
  std::map<sim::Picos, std::vector<std::size_t>> edges;
  for (std::size_t d = 0; d < periods.size(); ++d) {
    for (sim::Picos t = (from / periods[d] + 1) * periods[d]; t <= to;
         t += periods[d]) {
      edges[t].push_back(d);
    }
  }
  return edges;
}

// Logs (instant, domain index) each time one of its domain's edges runs.
struct EdgeStamp : sim::Component {
  std::vector<std::pair<sim::Picos, std::size_t>>& log;
  std::size_t domain;
  EdgeStamp(sim::ClockDomain& c,
            std::vector<std::pair<sim::Picos, std::size_t>>& l,
            std::size_t d)
      : sim::Component(c, "stamp"), log(l), domain(d) {}
  void evaluate() override { log.emplace_back(clk_.simulator().now(), domain); }
  bool idle() const override { return false; }
  SIM_STATE_NONE();
};

// The paper platform's five clock domains: N8 (250 MHz), N1 and N5
// (200 MHz), N2 (133 MHz) and the ST220 (400 MHz).  Their hyperperiod is
// lcm(4000, 5000, 5000, 7519, 2500) ps = 150.38 us.
constexpr sim::Picos kHyperperiod = 150'380'000;

struct ScheduleRig {
  sim::Simulator s;
  std::vector<std::pair<sim::Picos, std::size_t>> log;
  std::vector<std::unique_ptr<EdgeStamp>> stamps;

  ScheduleRig() {
    for (double mhz : {250.0, 200.0, 200.0, 133.0, 400.0}) addDomain(mhz);
  }

  void addDomain(double mhz) {
    const std::size_t i = s.domains().size();
    auto& d = s.addClockDomain("d" + std::to_string(i), mhz);
    stamps.push_back(std::make_unique<EdgeStamp>(d, log, i));
  }

  // Step edge by edge through (now, to] and check every instant and the
  // domains on it against gridEdges(), then the edge count.
  void expectGridUntil(sim::Picos to) {
    std::vector<sim::Picos> periods;
    for (const auto& d : s.domains()) periods.push_back(d->period());
    const auto ref = gridEdges(periods, s.now(), to);
    const std::uint64_t edges_before = s.edgesExecuted();
    for (const auto& [t, domains] : ref) {
      log.clear();
      ASSERT_TRUE(s.step());
      ASSERT_EQ(s.now(), t);
      std::vector<std::size_t> ran;
      for (const auto& [at, d] : log) {
        ASSERT_EQ(at, t);
        ran.push_back(d);
      }
      ASSERT_EQ(ran, domains) << "domains on the edge at t=" << t << " ps";
    }
    EXPECT_EQ(s.edgesExecuted() - edges_before, ref.size());
  }
};

TEST(KernelSchedule, MinScanMatchesGridOverHyperperiod) {
  ScheduleRig rig;
  ASSERT_EQ(rig.s.domains()[3]->period(), 7519u);
  rig.expectGridUntil(kHyperperiod);
  EXPECT_EQ(rig.s.now(), kHyperperiod);  // all five domains coincide here
}

TEST(KernelSchedule, MinScanMatchesGridAfterRestore) {
  ScheduleRig rig;
  rig.s.run(37'000'000);
  rig.s.checkpoint();
  rig.s.run(90'000'000);
  rig.s.restoreCheckpoint();
  rig.expectGridUntil(rig.s.now() + kHyperperiod);
}

TEST(KernelSchedule, MinScanMatchesGridAfterFastForward) {
  ScheduleRig rig;
  rig.s.run(1'000'000);
  rig.s.fastForwardTo(41'234'567);  // off every domain's grid
  rig.expectGridUntil(rig.s.now() + kHyperperiod);
}

TEST(KernelSchedule, MinScanMatchesGridWithDomainAddedMidRun) {
  ScheduleRig rig;
  rig.s.run(12'345'000);
  rig.addDomain(300.0);  // 3333 ps: first edge at the next multiple
  rig.expectGridUntil(rig.s.now() + kHyperperiod);
}

TEST(KernelSchedule, DomainAddedMidRunAlignsToGrid) {
  // A domain created at t=30 ns gets its first edge at the next multiple of
  // its period after now() — the grid it would occupy had it existed from
  // t=0 — and the next scan includes it.
  sim::Simulator s;
  auto& a = s.addClockDomain("a", 100.0);  // 10 ns
  Ticker ta(a, "ta");
  s.run(35'000);
  ASSERT_EQ(s.now(), 30'000u);

  auto& b = s.addClockDomain("b", 250.0);  // 4 ns
  EXPECT_EQ(b.nextEdge(), 32'000u);
  Ticker tb(b, "tb");
  s.run(48'000);

  // b: edges at 32, 36, 40, 44, 48 ns — its local cycle counter starts at 1.
  ASSERT_EQ(tb.seen.size(), 5u);
  EXPECT_EQ(tb.seen.front(), 1u);
  EXPECT_EQ(tb.seen.back(), 5u);
  // a keeps its own grid: one more edge at 40 ns (cycle 4).
  ASSERT_EQ(ta.seen.size(), 4u);
  EXPECT_EQ(ta.seen.back(), 4u);
  EXPECT_EQ(s.now(), 48'000u);
}

TEST(KernelSchedule, CoincidentNonIntegerRatioEdgesCountOnce) {
  // 400 MHz (2500 ps) against 250 MHz (4000 ps): periods in 5:8 ratio, first
  // coincidence at 20 ns.  The coincident instant is one edge, so
  // edgesExecuted() counts 8 + 5 - 1.
  sim::Simulator s;
  auto& fast = s.addClockDomain("fast", 400.0);
  auto& slow = s.addClockDomain("slow", 250.0);
  Ticker tf(fast, "tf");
  Ticker ts(slow, "ts");
  s.run(20'000);
  EXPECT_EQ(tf.seen.size(), 8u);
  EXPECT_EQ(ts.seen.size(), 5u);
  EXPECT_EQ(s.edgesExecuted(), 12u);
  EXPECT_EQ(s.now(), 20'000u);
}

TEST(KernelSchedule, SingleDomainEdgeAccounting) {
  // One domain: every edge is that domain's; edge accounting must match.
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  Ticker t(clk, "t");
  s.run(1'000'000);
  EXPECT_EQ(s.edgesExecuted(), 100u);
  EXPECT_EQ(t.seen.size(), 100u);
  EXPECT_EQ(s.now(), 1'000'000u);
}

// ---------------------------------------------------------------------------
// Activity protocol
// ---------------------------------------------------------------------------

TEST(KernelActivity, SleepRequiresIdle) {
  // sleep() while idle() does not hold violates the gating contract and must
  // be rejected immediately.
  struct BadSleeper : sim::Component {
    using sim::Component::Component;
    void evaluate() override { sleep(); }
    bool idle() const override { return false; }
  };
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  BadSleeper c(clk, "bad");
  EXPECT_THROW(s.run(20'000), sim::InvariantViolation);
}

TEST(KernelActivity, WakeOnPushResumesSleeper) {
  // A consumer that sleeps on an empty FIFO must be woken by the commit of
  // the edge that pushed, and evaluate again from the following edge.
  struct Producer : sim::Component {
    sim::SyncFifo<int>& f;
    Producer(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
        : sim::Component(c, "prod"), f(fifo) {}
    void evaluate() override {
      if (now() == 3) f.push(42);
    }
    bool idle() const override { return now() >= 3; }
  };
  struct Consumer : sim::Component {
    sim::SyncFifo<int>& f;
    std::vector<int> got;
    Consumer(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
        : sim::Component(c, "cons"), f(fifo) {}
    void evaluate() override {
      if (f.empty()) {
        sleep();
        return;
      }
      got.push_back(f.pop());
    }
    bool idle() const override { return f.empty(); }
  };

  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "f", 4);
  Producer p(clk, f);
  Consumer c(clk, f);
  f.wakeOnPush(&c);

  s.runUntilIdle(1'000'000);

  ASSERT_EQ(c.got.size(), 1u);
  EXPECT_EQ(c.got.front(), 42);
  EXPECT_TRUE(c.asleep());  // back asleep once drained
  EXPECT_EQ(s.asleepComponents(), 1u);
}

TEST(KernelActivity, GatingOnOffProducesIdenticalDigests) {
  // Gating is behaviour-neutral by contract: a full platform run with the
  // kernel skipping quiescent components must produce the same canonical
  // digest as one that evaluates every component on every edge.
  platform::PlatformConfig cfg;
  cfg.protocol = platform::Protocol::Stbus;
  cfg.topology = platform::Topology::Full;
  cfg.memory = platform::MemoryKind::OnChip;
  cfg.onchip_wait_states = 1;
  cfg.workload_scale = 0.25;

  // Same label both times: the canonical digest covers it.
  cfg.activity_gating = true;
  const core::ScenarioResult gated = core::runScenario(cfg, "fig3-small");
  cfg.activity_gating = false;
  const core::ScenarioResult ungated = core::runScenario(cfg, "fig3-small");

  EXPECT_EQ(core::digestValue(gated), core::digestValue(ungated));
  EXPECT_EQ(gated.exec_ps, ungated.exec_ps);
}

TEST(KernelActivity, IllegalSleepCaughtByGatedVsUngatedLockstep) {
  // A component whose idle() lies slips past the sleep() contract check.
  // Gating then skips work it still had to stage, so a gated copy and an
  // ungated copy stepped in lockstep diverge in the FIFO it feeds on the
  // first edge after it slept.
  struct Liar : sim::Component {
    sim::SyncFifo<int>& f;
    int next = 0;
    Liar(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
        : sim::Component(c, "liar"), f(fifo) {}
    void evaluate() override {
      f.push(next++);
      sleep();  // illegal in spirit: there is still work to stage
    }
    bool idle() const override { return true; }  // the lie
  };
  struct Rig {
    sim::Simulator s;
    sim::ClockDomain& clk = s.addClockDomain("clk", 100.0);
    sim::SyncFifo<int> f{clk, "f", 64};
    Liar c{clk, f};
  };

  Rig gated;
  Rig ungated;
  ungated.s.setActivityGating(false);
  const testutil::LockstepReport r =
      testutil::runLockstep(gated.s, ungated.s, 100'000);
  ASSERT_TRUE(r.diverged);
  EXPECT_EQ(r.holder, "f");
  EXPECT_EQ(r.edges, 2u);
}

}  // namespace
