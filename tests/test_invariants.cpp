// Tests for the phase-discipline checker: SIM_CHECK / InvariantViolation,
// the kernel's Outside/Evaluate/Commit phase guards on FIFOs, and the order
// oracle (tests/order_oracle.hpp) that defends the determinism guarantee.
//
// The malicious components here deliberately violate the two-phase protocol;
// every violation must surface as a named, cycle-stamped InvariantViolation —
// in release builds just as in debug builds — never as UB or silent timeline
// corruption.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "order_oracle.hpp"
#include "sim/check.hpp"
#include "sim/component.hpp"
#include "sim/fifo.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace {

using namespace mpsoc;

// ---------------------------------------------------------------------------
// Phase guards

TEST(PhaseGuards, PopOutsideSimulationThrows) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "victim", 4);

  ASSERT_EQ(s.phase(), sim::Phase::Outside);
  try {
    f.pop();
    FAIL() << "pop() outside the evaluate phase must throw";
  } catch (const sim::InvariantViolation& e) {
    EXPECT_EQ(e.context().who, "victim");
    EXPECT_EQ(e.context().domain, "clk");
    EXPECT_NE(std::string(e.what()).find("outside the evaluate phase"),
              std::string::npos);
  }
}

TEST(PhaseGuards, PushOutsideSimulationThrows) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "victim", 4);
  EXPECT_THROW(f.push(1), sim::InvariantViolation);
}

TEST(PhaseGuards, UserCalledCommitThrows) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "victim", 4);
  try {
    f.commit();
    FAIL() << "user-called commit() must throw";
  } catch (const sim::InvariantViolation& e) {
    EXPECT_EQ(e.context().who, "victim");
    EXPECT_NE(std::string(e.what()).find("commit phase"), std::string::npos);
  }
}

/// Malicious Updatable whose commit() pushes into a FIFO — staging new state
/// during the commit phase would corrupt the registered-occupancy timeline.
struct CommitPusher : sim::Updatable {
  sim::ClockDomain& clk;
  sim::SyncFifo<int>& f;
  CommitPusher(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
      : clk(c), f(fifo) {
    clk.addUpdatable(this);
  }
  ~CommitPusher() override { clk.removeUpdatable(this); }
  void commit() override { f.push(99); }
};

TEST(PhaseGuards, PushDuringCommitThrows) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "victim", 4);
  CommitPusher evil(clk, f);

  try {
    s.run(100'000);
    FAIL() << "push() during the commit phase must throw";
  } catch (const sim::InvariantViolation& e) {
    EXPECT_EQ(e.context().who, "victim");
    EXPECT_EQ(e.context().domain, "clk");
    EXPECT_EQ(e.context().cycle, 1u);          // first edge already corrupts
    EXPECT_EQ(e.context().time_ps, 10'000u);   // 100 MHz -> first edge @10 ns
    EXPECT_NE(std::string(e.what()).find("outside the evaluate phase"),
              std::string::npos);
  }
}

/// Malicious component that pops during evaluate of a *different* FIFO's
/// commit... rather: pushes without checking canPush(), overflowing a full
/// FIFO.  The overflow must be rejected at the push, not corrupt memory.
struct BlindPusher : sim::Component {
  sim::SyncFifo<int>& f;
  BlindPusher(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
      : sim::Component(c, "blind"), f(fifo) {}
  void evaluate() override {
    f.push(1);  // no canPush() check: third call overflows a depth-2 FIFO
    f.push(2);
    f.push(3);
  }
};

TEST(PhaseGuards, OverflowPushThrows) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "narrow", 2);
  BlindPusher evil(clk, f);
  try {
    s.run(100'000);
    FAIL() << "overflowing push() must throw";
  } catch (const sim::InvariantViolation& e) {
    EXPECT_EQ(e.context().who, "narrow");
    EXPECT_NE(std::string(e.what()).find("full FIFO"), std::string::npos);
  }
}

TEST(PhaseGuards, AsyncFifoAcrossSimulatorsRejected) {
  sim::Simulator s1;
  sim::Simulator s2;
  auto& a = s1.addClockDomain("a", 200.0);
  auto& b = s2.addClockDomain("b", 100.0);
  EXPECT_THROW(sim::AsyncFifo<int>(a, b, "cross", 4),
               sim::InvariantViolation);
}

TEST(PhaseGuards, ViolationIsOnInReleaseBuilds) {
  // SIM_CHECK must not compile out with NDEBUG: this test exists precisely
  // to fail if someone routes SIM_CHECK through assert().
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "always-on", 1);
  EXPECT_THROW(f.pop(), sim::InvariantViolation);
#ifdef NDEBUG
  SUCCEED() << "guard verified in a release (NDEBUG) build";
#endif
}

// ---------------------------------------------------------------------------
// Order oracle: a forward and a reverse-order copy stepped in lockstep

struct Producer : sim::Component {
  sim::SyncFifo<int>& f;
  int next = 0;
  Producer(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
      : sim::Component(c, "prod"), f(fifo) {}
  void evaluate() override {
    if (f.canPush()) f.push(next++);
  }
};

struct Consumer : sim::Component {
  sim::SyncFifo<int>& f;
  std::vector<int> got;
  Consumer(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
      : sim::Component(c, "cons"), f(fifo) {}
  void evaluate() override {
    if (!f.empty()) got.push_back(f.pop());
  }
};

/// Producer/consumer pair over a depth-2 FIFO: both key off committed FIFO
/// state only, so neither order can change what is streamed.
struct Pipeline {
  sim::Simulator s;
  sim::ClockDomain& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f{clk, "pipe", 2};
  Producer p{clk, f};
  Consumer c{clk, f};
};

TEST(OrderOracle, CleanPipelineStreamsIdentically) {
  Pipeline fwd;
  Pipeline rev;
  const testutil::LockstepReport r =
      testutil::runOrderOracle(fwd.s, rev.s, 500'000);
  EXPECT_FALSE(r.diverged) << r.what;
  ASSERT_FALSE(fwd.c.got.empty());
  EXPECT_EQ(fwd.c.got, rev.c.got);
  for (std::size_t i = 0; i < fwd.c.got.size(); ++i) {
    EXPECT_EQ(fwd.c.got[i], static_cast<int>(i));
  }
}

TEST(OrderOracle, OrderIndependentPairPasses) {
  Pipeline fwd;
  Pipeline rev;
  const testutil::LockstepReport r =
      testutil::runOrderOracle(fwd.s, rev.s, 300'000);
  EXPECT_FALSE(r.diverged) << r.what;
  EXPECT_EQ(r.edges, 30u);
  EXPECT_FALSE(rev.c.got.empty());
}

/// Pair of components with a staging bypass: the writer flips a shared flag
/// mid-evaluate, the reader pushes based on it.  The outcome depends on
/// registration order — exactly the bug class the order oracle must catch.
struct SharedFlagWriter : sim::Component {
  int* shared;
  SharedFlagWriter(sim::ClockDomain& c, int* flag)
      : sim::Component(c, "writer"), shared(flag) {}
  void evaluate() override { *shared = 1; }
};

struct SharedFlagReader : sim::Component {
  sim::SyncFifo<int>& f;
  int* shared;
  SharedFlagReader(sim::ClockDomain& c, sim::SyncFifo<int>& fifo, int* flag)
      : sim::Component(c, "reader"), f(fifo), shared(flag) {}
  void evaluate() override {
    if (*shared == 1 && f.canPush()) f.push(*shared);
  }
};

struct SharedFlagRig {
  sim::Simulator s;
  sim::ClockDomain& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f{clk, "leak", 4};
  int shared = 0;
  SharedFlagWriter w{clk, &shared};     // registered first: in forward order
  SharedFlagReader r{clk, f, &shared};  // the flag is set before the read
};

TEST(OrderOracle, OrderDependentEvaluateCaught) {
  SharedFlagRig fwd;
  SharedFlagRig rev;
  const testutil::LockstepReport r =
      testutil::runOrderOracle(fwd.s, rev.s, 100'000);
  ASSERT_TRUE(r.diverged) << "order-dependent evaluate must be caught";
  // Forward order pushes on the first edge, reverse order one edge later.
  EXPECT_EQ(r.holder, "leak");
  EXPECT_EQ(r.edges, 1u);
  EXPECT_EQ(r.t, 10'000u);
  EXPECT_NE(r.what.find("edge 1 (t=10000 ps): 'leak'"), std::string::npos)
      << r.what;
}

/// Out-of-order service: popAt() removes from the middle of the queue, an
/// in-order pop on the same edge still takes the front, and the survivor
/// keeps its place.
struct OooServer : sim::Component {
  sim::SyncFifo<int>& f;
  int phase = 0;
  std::vector<int> taken;
  OooServer(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
      : sim::Component(c, "ooo"), f(fifo) {}
  void evaluate() override {
    switch (phase++) {
      case 0:
        f.push(10);
        f.push(20);
        f.push(30);
        break;
      case 1:
        taken.push_back(f.popAt(1));  // 20, out of order
        taken.push_back(f.pop());     // 10, in order — mixed in one edge
        break;
      case 2:
        taken.push_back(f.pop());  // 30 survives with position intact
        break;
      default:
        break;
    }
  }
};

TEST(SyncFifo, PopAtThenPopOnOneEdge) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "lookahead", 4);
  OooServer d(clk, f);
  EXPECT_NO_THROW(s.run(100'000));
  ASSERT_EQ(d.taken.size(), 3u);
  EXPECT_EQ(d.taken[0], 20);
  EXPECT_EQ(d.taken[1], 10);
  EXPECT_EQ(d.taken[2], 30);
  EXPECT_TRUE(f.empty());
}

// ---------------------------------------------------------------------------
// SyncFifo observer accounting under mixed in-order / out-of-order pops
// (Fig. 6 full / storing / no-request classification).

struct MixedPopDriver : sim::Component {
  sim::SyncFifo<int>& f;
  int phase = 0;
  MixedPopDriver(sim::ClockDomain& c, sim::SyncFifo<int>& fifo)
      : sim::Component(c, "drv"), f(fifo) {}
  void evaluate() override {
    switch (phase++) {
      case 0:
        f.push(1);  // edge 1: storing (not full, >=1 push)
        f.push(2);
        break;
      case 1:
        // edge 2: FIFO is full at edge start; mixed OOO + in-order pops.
        EXPECT_EQ(f.popAt(1), 2);
        EXPECT_EQ(f.pop(), 1);
        break;
      default:
        break;  // edge 3+: no-request, empty
    }
  }
};

TEST(FifoAccounting, MixedOooAndInOrderPopsStayConsistent) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("clk", 100.0);
  sim::SyncFifo<int> f(clk, "lmi.req", 2);
  std::vector<sim::FifoEdgeInfo> infos;
  f.setObserver(
      [](void* ctx, const sim::FifoEdgeInfo& i) {
        static_cast<std::vector<sim::FifoEdgeInfo>*>(ctx)->push_back(i);
      },
      &infos);
  MixedPopDriver d(clk, f);
  s.run(40'000);  // 4 edges
  ASSERT_GE(infos.size(), 3u);

  // Edge 1: storing.
  EXPECT_EQ(infos[0].occupancy_before, 0u);
  EXPECT_EQ(infos[0].pushed, 2u);
  EXPECT_EQ(infos[0].popped, 0u);
  EXPECT_EQ(infos[0].occupancy_after, 2u);

  // Edge 2: the probe must see full occupancy at edge start even though the
  // OOO removal shrank the committed queue mid-edge, and both pops must be
  // counted.
  EXPECT_EQ(infos[1].occupancy_before, 2u);
  EXPECT_EQ(infos[1].capacity, 2u);  // occupancy_before == capacity -> "full"
  EXPECT_EQ(infos[1].popped, 2u);
  EXPECT_EQ(infos[1].pushed, 0u);
  EXPECT_EQ(infos[1].occupancy_after, 0u);

  // Edge 3: no-request, empty.
  EXPECT_EQ(infos[2].occupancy_before, 0u);
  EXPECT_EQ(infos[2].pushed, 0u);
  EXPECT_EQ(infos[2].popped, 0u);

  // Every edge satisfies the conservation law (also SIM_CHECKed in commit()).
  for (const auto& i : infos) {
    EXPECT_EQ(i.occupancy_after, i.occupancy_before + i.pushed - i.popped);
  }
}

// ---------------------------------------------------------------------------
// AsyncFifo CDC with non-integer frequency ratio.

struct CdcProducer : sim::Component {
  sim::AsyncFifo<int>& f;
  int next = 0;
  std::vector<sim::Picos> push_time;
  CdcProducer(sim::ClockDomain& c, sim::AsyncFifo<int>& fifo)
      : sim::Component(c, "p"), f(fifo) {}
  void evaluate() override {
    if (f.canPush()) {
      f.push(next++);
      push_time.push_back(clk_.simulator().now());
    }
  }
};

struct CdcConsumer : sim::Component {
  sim::AsyncFifo<int>& f;
  std::vector<std::pair<int, sim::Picos>> got;
  CdcConsumer(sim::ClockDomain& c, sim::AsyncFifo<int>& fifo)
      : sim::Component(c, "c"), f(fifo) {}
  void evaluate() override {
    while (f.canPop()) got.emplace_back(f.pop(), clk_.simulator().now());
  }
};

TEST(AsyncFifoCdc, NonIntegerRatioPreservesOrderAndSyncDelay) {
  // 333 MHz producer against a 140 MHz consumer: the period ratio is not an
  // integer multiple, so producer and consumer edges drift against each
  // other and every alignment of the synchroniser window gets exercised.
  sim::Simulator s;
  auto& prod = s.addClockDomain("prod", 333.0);
  auto& cons = s.addClockDomain("cons", 140.0);
  sim::AsyncFifo<int> f(prod, cons, "cdc", 4, 2);
  CdcProducer p(prod, f);
  CdcConsumer c(cons, f);
  s.run(3'000'000);  // 3 us

  ASSERT_GT(c.got.size(), 50u);
  for (std::size_t i = 0; i < c.got.size(); ++i) {
    // In-order, loss-free delivery...
    EXPECT_EQ(c.got[i].first, static_cast<int>(i));
    // ...and never before the two-flop synchroniser delay has elapsed.
    const sim::Picos pushed = p.push_time[i];
    EXPECT_GE(c.got[i].second, pushed + 2 * cons.period())
        << "item " << i << " crossed the CDC faster than sync_stages allows";
  }
  // Conservation: everything pushed is delivered or still in flight.
  EXPECT_EQ(p.push_time.size(), c.got.size() + f.sizeIgnoringSync());
}

}  // namespace
