// Tests for the protocol compliance monitors (src/verify) and the
// transaction-conservation auditor (src/txn/audit.hpp).
//
// Two families:
//   - negative tests: deliberately-buggy mock masters/slaves/bridges drive
//     port FIFOs with protocol violations and every monitor class must fire
//     (a monitor that cannot catch its own bug class proves nothing);
//   - clean-run tests: the single-layer rigs run fully monitored for every
//     protocol and must finish with zero violations, zero leaks and a
//     non-zero observed-event count (so a silently detached monitor also
//     fails).
//
// The mocks follow the malicious-component pattern of test_invariants.cpp:
// a scripted Component drives the FIFOs from inside the evaluate phase, so
// the monitors see exactly what they would see under a real engine.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "core/rigs.hpp"
#include "mem/sdram.hpp"
#include "sim/component.hpp"
#include "sim/simulator.hpp"
#include "txn/audit.hpp"
#include "txn/ports.hpp"
#include "txn/transaction.hpp"
#include "verify/context.hpp"
#include "verify/monitor.hpp"

#include "verify/bridge_monitor.hpp"
#include "verify/port_monitor.hpp"
#include "verify/sdram_monitor.hpp"

namespace {

using namespace mpsoc;

txn::RequestPtr makeReq(txn::Opcode op, std::uint64_t addr,
                        std::uint32_t beats, bool posted = false) {
  auto r = std::make_shared<txn::Request>();
  r->id = txn::nextTransactionId();
  r->root_id = r->id;
  r->op = op;
  r->addr = addr;
  r->beats = beats;
  r->bytes_per_beat = 8;
  r->posted = posted;
  r->source = "mock";
  return r;
}

txn::ResponsePtr makeRsp(const txn::RequestPtr& req, std::uint32_t beats,
                         sim::Picos first_beat = 1'000'000'000,
                         sim::Picos beat_period = 5'000) {
  auto rsp = std::make_shared<txn::Response>();
  rsp->req = req;
  rsp->beats = beats;
  rsp->sched.first_beat = first_beat;
  rsp->sched.beat_period = beat_period;
  return rsp;
}

/// Scripted mock component: runs the supplied function once per edge with
/// the domain-local cycle, so tests can stage pushes/pops/responses on exact
/// cycles without writing a bespoke Component per scenario.
struct Script final : sim::Component {
  std::function<void(sim::Cycle)> fn;
  Script(sim::ClockDomain& c, std::function<void(sim::Cycle)> f)
      : sim::Component(c, "script"), fn(std::move(f)) {}
  void evaluate() override { fn(now()); }
};

// ---------------------------------------------------------------------------
// InitiatorMonitor

TEST(InitiatorMonitor, DuplicateQueuedIdThrows) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("bus", 100.0);
  txn::InitiatorPort port(clk, "m0");
  verify::InitiatorMonitor mon("m0.mon", &clk, port, verify::InitiatorRules{});
  auto r = makeReq(txn::Opcode::Read, 0x100, 4);
  Script evil(clk, [&](sim::Cycle c) {
    if (c == 1) {
      port.req.push(r);
      port.req.push(r);  // same id issued twice
    }
  });
  EXPECT_THROW(s.run(100'000), verify::ProtocolViolation);
}

TEST(InitiatorMonitor, PostedReadThrows) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("bus", 100.0);
  txn::InitiatorPort port(clk, "m0");
  verify::InitiatorMonitor mon("m0.mon", &clk, port, verify::InitiatorRules{});
  auto r = makeReq(txn::Opcode::Read, 0x100, 4, /*posted=*/true);
  Script evil(clk, [&](sim::Cycle c) {
    if (c == 1) port.req.push(r);
  });
  try {
    s.run(100'000);
    FAIL() << "posted read must be rejected";
  } catch (const verify::ProtocolViolation& e) {
    EXPECT_EQ(e.context().who, "m0.mon");
    EXPECT_NE(std::string(e.what()).find("only writes may be posted"),
              std::string::npos);
  }
}

TEST(InitiatorMonitor, ResponseWithoutRequestThrows) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("bus", 100.0);
  txn::InitiatorPort port(clk, "m0");
  verify::InitiatorMonitor mon("m0.mon", &clk, port, verify::InitiatorRules{});
  auto ghost = makeReq(txn::Opcode::Read, 0x100, 4);
  Script evil(clk, [&](sim::Cycle c) {
    if (c == 1) port.rsp.push(makeRsp(ghost, 4));  // never issued
  });
  try {
    s.run(100'000);
    FAIL() << "spurious response must be rejected";
  } catch (const verify::ProtocolViolation& e) {
    EXPECT_NE(std::string(e.what()).find("no matching accepted request"),
              std::string::npos);
  }
}

TEST(InitiatorMonitor, OutOfOrderResponseOnInOrderProtocolThrows) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("bus", 100.0);
  txn::InitiatorPort port(clk, "m0");
  verify::InitiatorRules rules;  // in_order = true (STBus T1/T2, AHB)
  verify::InitiatorMonitor mon("m0.mon", &clk, port, rules);
  auto r1 = makeReq(txn::Opcode::Read, 0x100, 4);
  auto r2 = makeReq(txn::Opcode::Read, 0x200, 4);
  Script evil(clk, [&](sim::Cycle c) {
    if (c == 1) {
      port.req.push(r1);
      port.req.push(r2);
    } else if (c == 2) {
      port.req.pop();  // grant both in order
      port.req.pop();
    } else if (c == 3) {
      port.rsp.push(makeRsp(r2, 4));  // younger request completes first
    }
  });
  try {
    s.run(100'000);
    FAIL() << "out-of-order response must be rejected on in-order rules";
  } catch (const verify::ProtocolViolation& e) {
    EXPECT_NE(std::string(e.what()).find("out-of-order response"),
              std::string::npos);
  }
}

TEST(InitiatorMonitor, WrongReadBeatCountThrows) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("bus", 100.0);
  txn::InitiatorPort port(clk, "m0");
  verify::InitiatorMonitor mon("m0.mon", &clk, port, verify::InitiatorRules{});
  auto r = makeReq(txn::Opcode::Read, 0x100, 4);
  Script evil(clk, [&](sim::Cycle c) {
    if (c == 1) {
      port.req.push(r);
    } else if (c == 2) {
      port.req.pop();
    } else if (c == 3) {
      port.rsp.push(makeRsp(r, 2));  // 4 beats requested, 2 delivered
    }
  });
  EXPECT_THROW(s.run(100'000), verify::ProtocolViolation);
}

TEST(InitiatorMonitor, PerInitiatorOutstandingCapThrows) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("bus", 100.0);
  txn::InitiatorPort port(clk, "m0");
  verify::InitiatorRules rules;
  rules.max_outstanding = 1;  // STBus T1 / AHB single-owner discipline
  verify::InitiatorMonitor mon("m0.mon", &clk, port, rules);
  auto r1 = makeReq(txn::Opcode::Read, 0x100, 4);
  auto r2 = makeReq(txn::Opcode::Read, 0x200, 4);
  Script evil(clk, [&](sim::Cycle c) {
    if (c == 1) {
      port.req.push(r1);
      port.req.push(r2);
    } else if (c == 2) {
      port.req.pop();
      port.req.pop();  // second grant exceeds the cap
    }
  });
  try {
    s.run(100'000);
    FAIL() << "second concurrent grant must be rejected";
  } catch (const verify::ProtocolViolation& e) {
    EXPECT_NE(std::string(e.what()).find("outstanding cap"),
              std::string::npos);
  }
}

TEST(InitiatorMonitor, SharedLedgerCapAcrossInitiatorsThrows) {
  // AHB: one non-posted transaction owns the whole layer.  Two monitors on
  // two different ports share one ledger; a grant on each port concurrently
  // must fire even though neither initiator exceeds its own cap.
  sim::Simulator s;
  auto& clk = s.addClockDomain("bus", 100.0);
  txn::InitiatorPort p0(clk, "m0");
  txn::InitiatorPort p1(clk, "m1");
  auto ledger = std::make_shared<verify::SharedLedger>();
  verify::InitiatorRules rules;
  rules.max_outstanding = 1;
  rules.ledger = ledger;
  verify::InitiatorMonitor mon0("m0.mon", &clk, p0, rules);
  verify::InitiatorMonitor mon1("m1.mon", &clk, p1, rules);
  auto r1 = makeReq(txn::Opcode::Read, 0x100, 4);
  auto r2 = makeReq(txn::Opcode::Read, 0x200, 4);
  Script evil(clk, [&](sim::Cycle c) {
    if (c == 1) {
      p0.req.push(r1);
      p1.req.push(r2);
    } else if (c == 2) {
      p0.req.pop();
      p1.req.pop();  // layer now has two concurrent owners
    }
  });
  try {
    s.run(100'000);
    FAIL() << "concurrent layer owners must be rejected";
  } catch (const verify::ProtocolViolation& e) {
    EXPECT_NE(std::string(e.what()).find("shared limit"), std::string::npos);
  }
}

TEST(InitiatorMonitor, UndrainedPortReportedAtFinish) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("bus", 100.0);
  txn::InitiatorPort port(clk, "m0");
  verify::InitiatorMonitor mon("m0.mon", &clk, port, verify::InitiatorRules{});
  auto r = makeReq(txn::Opcode::Read, 0x100, 4);
  Script lazy(clk, [&](sim::Cycle c) {
    if (c == 1) {
      port.req.push(r);
    } else if (c == 2) {
      port.req.pop();  // granted, response never delivered
    }
  });
  s.run(100'000);
  EXPECT_NO_THROW(mon.finish(/*expect_drained=*/false));  // bounded run: ok
  EXPECT_THROW(mon.finish(/*expect_drained=*/true), verify::ProtocolViolation);
}

TEST(InitiatorMonitor, CleanHandshakePassesAndCounts) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("bus", 100.0);
  txn::InitiatorPort port(clk, "m0");
  verify::InitiatorMonitor mon("m0.mon", &clk, port, verify::InitiatorRules{});
  auto r = makeReq(txn::Opcode::Read, 0x100, 4);
  Script good(clk, [&](sim::Cycle c) {
    if (c == 1) {
      port.req.push(r);
    } else if (c == 2) {
      port.req.pop();
    } else if (c == 3) {
      port.rsp.push(makeRsp(r, 4));
    }
  });
  EXPECT_NO_THROW(s.run(100'000));
  EXPECT_EQ(mon.eventsObserved(), 3u);  // push + grant + response
  EXPECT_NO_THROW(mon.finish(/*expect_drained=*/true));
}

// ---------------------------------------------------------------------------
// TargetMonitor

TEST(TargetMonitor, ResponseBeforeConsumingRequestThrows) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("bus", 100.0);
  txn::TargetPort port(clk, "t0", 4, 8);
  verify::TargetMonitor mon("t0.mon", &clk, port);
  auto r = makeReq(txn::Opcode::Read, 0x100, 4);
  Script evil(clk, [&](sim::Cycle c) {
    if (c == 1) {
      port.req.push(r);
    } else if (c == 2) {
      port.rsp.push(makeRsp(r, 4));  // responds without servicing
    }
  });
  try {
    s.run(100'000);
    FAIL() << "response before consuming the request must be rejected";
  } catch (const verify::ProtocolViolation& e) {
    EXPECT_NE(std::string(e.what()).find("before consuming"),
              std::string::npos);
  }
}

TEST(TargetMonitor, ResponseToPostedWriteThrows) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("bus", 100.0);
  txn::TargetPort port(clk, "t0", 4, 8);
  verify::TargetMonitor mon("t0.mon", &clk, port);
  auto r = makeReq(txn::Opcode::Write, 0x100, 4, /*posted=*/true);
  Script evil(clk, [&](sim::Cycle c) {
    if (c == 1) {
      port.req.push(r);
    } else if (c == 2) {
      port.rsp.push(makeRsp(r, 1));  // posted writes take no response
    }
  });
  try {
    s.run(100'000);
    FAIL() << "acknowledging a posted write must be rejected";
  } catch (const verify::ProtocolViolation& e) {
    EXPECT_NE(std::string(e.what()).find("posted write"), std::string::npos);
  }
}

TEST(TargetMonitor, DuplicateDeliveryThrows) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("bus", 100.0);
  txn::TargetPort port(clk, "t0", 4, 8);
  verify::TargetMonitor mon("t0.mon", &clk, port);
  auto r = makeReq(txn::Opcode::Read, 0x100, 4);
  Script evil(clk, [&](sim::Cycle c) {
    if (c == 1) {
      port.req.push(r);
      port.req.push(r);  // bus delivers the same request twice
    }
  });
  EXPECT_THROW(s.run(100'000), verify::ProtocolViolation);
}

TEST(TargetMonitor, AcausalBeatScheduleThrows) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("bus", 100.0);
  txn::TargetPort port(clk, "t0", 4, 8);
  verify::TargetMonitor mon("t0.mon", &clk, port);
  auto r = makeReq(txn::Opcode::Read, 0x100, 1);
  Script evil(clk, [&](sim::Cycle c) {
    if (c == 1) {
      port.req.push(r);
    } else if (c == 2) {
      port.req.pop();
    } else if (c == 3) {
      // First beat at t=0: in the past by the time the response exists.
      port.rsp.push(makeRsp(r, 1, /*first_beat=*/0));
    }
  });
  try {
    s.run(100'000);
    FAIL() << "beat schedule in the past must be rejected";
  } catch (const verify::ProtocolViolation& e) {
    EXPECT_NE(std::string(e.what()).find("acausal"), std::string::npos);
  }
}

TEST(TargetMonitor, UnfinishedRequestReportedAtFinish) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("bus", 100.0);
  txn::TargetPort port(clk, "t0", 4, 8);
  verify::TargetMonitor mon("t0.mon", &clk, port);
  auto r = makeReq(txn::Opcode::Read, 0x100, 4);
  Script lazy(clk, [&](sim::Cycle c) {
    if (c == 1) {
      port.req.push(r);
    } else if (c == 2) {
      port.req.pop();  // in service forever
    }
  });
  s.run(100'000);
  EXPECT_NO_THROW(mon.finish(/*expect_drained=*/false));
  EXPECT_THROW(mon.finish(/*expect_drained=*/true), verify::ProtocolViolation);
}

// ---------------------------------------------------------------------------
// BridgeMonitor

/// Build a width-converted side-B clone the way the bridge does.
txn::RequestPtr cloneFor(const txn::RequestPtr& orig, std::uint32_t width_b) {
  auto c = std::make_shared<txn::Request>(*orig);
  c->id = txn::nextTransactionId();
  c->bytes_per_beat = width_b;
  c->beats = txn::repackBeats(orig->beats, orig->bytes_per_beat, width_b);
  return c;
}

struct BridgeRig {
  sim::Simulator s;
  sim::ClockDomain& clk;
  txn::TargetPort a;
  txn::InitiatorPort b;
  verify::BridgeMonitor mon;
  static constexpr std::uint32_t kWidthB = 4;

  BridgeRig()
      : clk(s.addClockDomain("bus", 100.0)),
        a(clk, "br.a", 4, 8),
        b(clk, "br.b", 4, 8),
        mon("br.mon", &clk, a, b, kWidthB) {}
};

TEST(BridgeMonitor, ForwardWithoutAbsorbThrows) {
  BridgeRig rig;
  auto fabricated = makeReq(txn::Opcode::Read, 0x100, 4);
  Script evil(rig.clk, [&](sim::Cycle c) {
    if (c == 1) rig.b.req.push(fabricated);  // nothing was absorbed
  });
  try {
    rig.s.run(100'000);
    FAIL() << "fabricated forward must be rejected";
  } catch (const verify::ProtocolViolation& e) {
    EXPECT_NE(std::string(e.what()).find("fabrication"), std::string::npos);
  }
}

TEST(BridgeMonitor, AddressCorruptionThrows) {
  BridgeRig rig;
  auto orig = makeReq(txn::Opcode::Read, 0x100, 4);
  auto clone = cloneFor(orig, BridgeRig::kWidthB);
  clone->addr += 4;  // corrupted crossing
  Script evil(rig.clk, [&](sim::Cycle c) {
    if (c == 1) {
      rig.a.req.push(orig);
    } else if (c == 2) {
      rig.a.req.pop();  // absorb
    } else if (c == 3) {
      rig.b.req.push(clone);
    }
  });
  try {
    rig.s.run(100'000);
    FAIL() << "address corruption must be rejected";
  } catch (const verify::ProtocolViolation& e) {
    EXPECT_NE(std::string(e.what()).find("address corrupted"),
              std::string::npos);
  }
}

TEST(BridgeMonitor, PayloadLossThrows) {
  BridgeRig rig;
  auto orig = makeReq(txn::Opcode::Write, 0x100, 4);  // 32 bytes
  auto clone = cloneFor(orig, BridgeRig::kWidthB);
  clone->beats -= 1;  // 28 bytes forwarded: one beat lost
  Script evil(rig.clk, [&](sim::Cycle c) {
    if (c == 1) {
      rig.a.req.push(orig);
    } else if (c == 2) {
      rig.a.req.pop();
    } else if (c == 3) {
      rig.b.req.push(clone);
    }
  });
  try {
    rig.s.run(100'000);
    FAIL() << "payload loss must be rejected";
  } catch (const verify::ProtocolViolation& e) {
    EXPECT_NE(std::string(e.what()).find("payload not conserved"),
              std::string::npos);
  }
}

TEST(BridgeMonitor, CloneReusingOriginalIdThrows) {
  BridgeRig rig;
  auto orig = makeReq(txn::Opcode::Read, 0x100, 4);
  auto clone = cloneFor(orig, BridgeRig::kWidthB);
  clone->id = orig->id;  // forgot to allocate a fresh id
  Script evil(rig.clk, [&](sim::Cycle c) {
    if (c == 1) {
      rig.a.req.push(orig);
    } else if (c == 2) {
      rig.a.req.pop();
    } else if (c == 3) {
      rig.b.req.push(clone);
    }
  });
  try {
    rig.s.run(100'000);
    FAIL() << "id reuse across the bridge must be rejected";
  } catch (const verify::ProtocolViolation& e) {
    EXPECT_NE(std::string(e.what()).find("reused the original request id"),
              std::string::npos);
  }
}

TEST(BridgeMonitor, ReadDataBeforeForwardThrows) {
  BridgeRig rig;
  auto orig = makeReq(txn::Opcode::Read, 0x100, 4);
  Script evil(rig.clk, [&](sim::Cycle c) {
    if (c == 1) {
      rig.a.req.push(orig);
    } else if (c == 2) {
      rig.a.req.pop();
    } else if (c == 3) {
      // Read data materialises before the request ever reached side B.
      rig.a.rsp.push(makeRsp(orig, 4));
    }
  });
  try {
    rig.s.run(100'000);
    FAIL() << "read data before the forward must be rejected";
  } catch (const verify::ProtocolViolation& e) {
    EXPECT_NE(std::string(e.what()).find("before the request was forwarded"),
              std::string::npos);
  }
}

TEST(BridgeMonitor, DoubleResponseThrows) {
  BridgeRig rig;
  // Non-posted write: the early ack (before the forward) is legal once —
  // that is the bridge's cut-through contract — but never twice.
  auto orig = makeReq(txn::Opcode::Write, 0x100, 4);
  Script evil(rig.clk, [&](sim::Cycle c) {
    if (c == 1) {
      rig.a.req.push(orig);
    } else if (c == 2) {
      rig.a.req.pop();
    } else if (c == 3) {
      rig.a.rsp.push(makeRsp(orig, 1));  // legal early ack
    } else if (c == 4) {
      rig.a.rsp.push(makeRsp(orig, 1));  // duplicate
    }
  });
  try {
    rig.s.run(100'000);
    FAIL() << "duplicate side-A response must be rejected";
  } catch (const verify::ProtocolViolation& e) {
    EXPECT_NE(std::string(e.what()).find("two responses"), std::string::npos);
  }
}

TEST(BridgeMonitor, CleanCrossingPassesAndCounts) {
  BridgeRig rig;
  auto orig = makeReq(txn::Opcode::Read, 0x100, 4);
  auto clone = cloneFor(orig, BridgeRig::kWidthB);
  Script good(rig.clk, [&](sim::Cycle c) {
    if (c == 1) {
      rig.a.req.push(orig);
    } else if (c == 2) {
      rig.a.req.pop();
    } else if (c == 3) {
      rig.b.req.push(clone);
    } else if (c == 4) {
      rig.a.rsp.push(makeRsp(orig, 4));
    }
  });
  EXPECT_NO_THROW(rig.s.run(100'000));
  EXPECT_EQ(rig.mon.eventsObserved(), 3u);  // absorb + forward + response
  EXPECT_NO_THROW(rig.mon.finish(/*expect_drained=*/true));
}

// ---------------------------------------------------------------------------
// SdramLegalityMonitor
//
// Driven directly through onCommand(): the monitor only sees the command
// stream, so the tests can replay precise illegal sequences without a device
// model in the loop.  Timing: default SdramTiming (CL=3, tRCD=3, tRP=3,
// tRAS=7, tRC=10, tWR=3, tRFC=12) at a 1000 ps clock.

using SKind = mem::SdramCommand::Kind;

mem::SdramCommand sdramCmd(SKind kind, unsigned bank, std::uint64_t row,
                           sim::Picos at, sim::Picos data_begin = 0,
                           sim::Picos data_end = 0) {
  mem::SdramCommand c;
  c.kind = kind;
  c.bank = bank;
  c.row = row;
  c.at = at;
  c.data_begin = data_begin;
  c.data_end = data_end;
  return c;
}

struct SdramMonRig {
  verify::SdramLegalityMonitor mon{"sdram.mon", nullptr, mem::SdramTiming{},
                                   /*banks=*/4, /*clk_period=*/1000};
};

TEST(SdramLegalityMonitor, ActivateOnOpenBankThrows) {
  SdramMonRig rig;
  rig.mon.onCommand(sdramCmd(SKind::Activate, 0, 5, 0));
  EXPECT_THROW(rig.mon.onCommand(sdramCmd(SKind::Activate, 0, 6, 20'000)),
               verify::ProtocolViolation);
}

TEST(SdramLegalityMonitor, CasBeforeTrcdThrows) {
  SdramMonRig rig;
  rig.mon.onCommand(sdramCmd(SKind::Activate, 0, 5, 0));
  // READ 1 cycle after ACTIVATE; tRCD is 3 cycles.
  EXPECT_THROW(
      rig.mon.onCommand(sdramCmd(SKind::Read, 0, 5, 1'000, 6'000, 10'000)),
      verify::ProtocolViolation);
}

TEST(SdramLegalityMonitor, PrechargeBeforeTrasThrows) {
  SdramMonRig rig;
  rig.mon.onCommand(sdramCmd(SKind::Activate, 0, 5, 0));
  // PRECHARGE 1 cycle after ACTIVATE; tRAS is 7 cycles.
  EXPECT_THROW(rig.mon.onCommand(sdramCmd(SKind::Precharge, 0, 0, 1'000)),
               verify::ProtocolViolation);
}

TEST(SdramLegalityMonitor, ActivateBeforeTrpThrows) {
  SdramMonRig rig;
  rig.mon.onCommand(sdramCmd(SKind::Activate, 0, 5, 0));
  rig.mon.onCommand(sdramCmd(SKind::Precharge, 0, 0, 19'000));
  // Re-ACTIVATE 1 cycle after PRECHARGE (tRC long since satisfied); tRP = 3.
  EXPECT_THROW(rig.mon.onCommand(sdramCmd(SKind::Activate, 0, 6, 20'000)),
               verify::ProtocolViolation);
}

TEST(SdramLegalityMonitor, ActivateBeforeTrcThrows) {
  SdramMonRig rig;
  rig.mon.onCommand(sdramCmd(SKind::Activate, 0, 5, 0));
  rig.mon.onCommand(sdramCmd(SKind::Precharge, 0, 0, 7'000));
  // ACT-to-ACT 9 cycles < tRC = 10 (tRP itself would be satisfied: 7+3=10).
  EXPECT_THROW(rig.mon.onCommand(sdramCmd(SKind::Activate, 0, 6, 9'999)),
               verify::ProtocolViolation);
}

TEST(SdramLegalityMonitor, PrechargeInsideWriteRecoveryThrows) {
  SdramMonRig rig;
  rig.mon.onCommand(sdramCmd(SKind::Activate, 0, 5, 0));
  rig.mon.onCommand(sdramCmd(SKind::Write, 0, 5, 3'000, 4'000, 6'000));
  // tRAS (7 cycles) is satisfied at 8000 ps, but tWR holds PRE until
  // 6000 + 3000 = 9000 ps.
  EXPECT_THROW(rig.mon.onCommand(sdramCmd(SKind::Precharge, 0, 0, 8'000)),
               verify::ProtocolViolation);
}

TEST(SdramLegalityMonitor, DataBusOverlapAcrossBanksThrows) {
  SdramMonRig rig;
  rig.mon.onCommand(sdramCmd(SKind::Activate, 0, 5, 0));
  rig.mon.onCommand(sdramCmd(SKind::Activate, 1, 9, 1'000));
  rig.mon.onCommand(sdramCmd(SKind::Read, 0, 5, 3'000, 6'000, 10'000));
  // Second read's data window starts while bank 0's burst still owns the
  // shared data bus (busy until 10000 ps).
  EXPECT_THROW(
      rig.mon.onCommand(sdramCmd(SKind::Read, 1, 9, 4'000, 7'000, 11'000)),
      verify::ProtocolViolation);
}

TEST(SdramLegalityMonitor, CasOnClosedBankThrows) {
  SdramMonRig rig;
  EXPECT_THROW(
      rig.mon.onCommand(sdramCmd(SKind::Read, 0, 5, 3'000, 6'000, 10'000)),
      verify::ProtocolViolation);
}

TEST(SdramLegalityMonitor, CasOnWrongRowThrows) {
  SdramMonRig rig;
  rig.mon.onCommand(sdramCmd(SKind::Activate, 0, 5, 0));
  EXPECT_THROW(
      rig.mon.onCommand(sdramCmd(SKind::Read, 0, 7, 3'000, 6'000, 10'000)),
      verify::ProtocolViolation);
}

TEST(SdramLegalityMonitor, PrechargeOnClosedBankThrows) {
  SdramMonRig rig;
  EXPECT_THROW(rig.mon.onCommand(sdramCmd(SKind::Precharge, 0, 0, 1'000)),
               verify::ProtocolViolation);
}

TEST(SdramLegalityMonitor, ShortRefreshWindowThrows) {
  SdramMonRig rig;
  // tRFC is 12 cycles; this refresh claims to finish in 5.
  EXPECT_THROW(
      rig.mon.onCommand(sdramCmd(SKind::Refresh, 0, 0, 0, 0, 5'000)),
      verify::ProtocolViolation);
}

TEST(SdramLegalityMonitor, CleanPageSequencePasses) {
  SdramMonRig rig;
  EXPECT_NO_THROW({
    rig.mon.onCommand(sdramCmd(SKind::Activate, 0, 0, 0));
    rig.mon.onCommand(sdramCmd(SKind::Read, 0, 0, 3'000, 6'000, 10'000));
    rig.mon.onCommand(sdramCmd(SKind::Precharge, 0, 0, 10'000));
    rig.mon.onCommand(sdramCmd(SKind::Activate, 0, 1, 13'000));
    rig.mon.onCommand(sdramCmd(SKind::Write, 0, 1, 16'000, 17'000, 21'000));
    rig.mon.onCommand(sdramCmd(SKind::Refresh, 0, 0, 24'000, 24'000, 36'000));
  });
  EXPECT_EQ(rig.mon.eventsObserved(), 6u);
}

// ---------------------------------------------------------------------------
// VerifyContext aggregation

TEST(VerifyContext, AggregatesMonitorsAndEvents) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("bus", 100.0);
  txn::InitiatorPort iport(clk, "m0");
  txn::TargetPort tport(clk, "t0", 4, 8);
  verify::VerifyContext ctx;
  ctx.add<verify::InitiatorMonitor>("m0.mon", &clk, iport,
                                    verify::InitiatorRules{});
  ctx.add<verify::TargetMonitor>("t0.mon", &clk, tport);
  auto r = makeReq(txn::Opcode::Read, 0x100, 2);
  Script good(clk, [&](sim::Cycle c) {
    if (c == 1) {
      iport.req.push(r);
      tport.req.push(r);
    } else if (c == 2) {
      iport.req.pop();
      tport.req.pop();
    } else if (c == 3) {
      auto rsp = makeRsp(r, 2);
      tport.rsp.push(rsp);
      iport.rsp.push(rsp);
    }
  });
  EXPECT_NO_THROW(s.run(100'000));
  EXPECT_EQ(ctx.monitorCount(), 2u);
  EXPECT_EQ(ctx.eventsObserved(), 6u);
  EXPECT_NO_THROW(ctx.finish(/*expect_drained=*/true));
}

// ---------------------------------------------------------------------------
// Transaction-conservation auditor

TEST(TxnAuditor, DuplicateIssueThrows) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("bus", 100.0);
  txn::TxnAuditor aud;
  auto r = makeReq(txn::Opcode::Read, 0x100, 4);
  aud.onIssue(clk, *r, false);
  EXPECT_THROW(aud.onIssue(clk, *r, false), sim::InvariantViolation);
}

TEST(TxnAuditor, RetireTwiceThrows) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("bus", 100.0);
  txn::TxnAuditor aud;
  auto r = makeReq(txn::Opcode::Read, 0x100, 4);
  aud.onIssue(clk, *r, false);
  auto rsp = makeRsp(r, 4);
  aud.onRetire(clk, *rsp);
  EXPECT_THROW(aud.onRetire(clk, *rsp), sim::InvariantViolation);
}

TEST(TxnAuditor, RetireNeverIssuedThrows) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("bus", 100.0);
  txn::TxnAuditor aud;
  auto ghost = makeReq(txn::Opcode::Read, 0x100, 4);
  auto rsp = makeRsp(ghost, 4);
  EXPECT_THROW(aud.onRetire(clk, *rsp), sim::InvariantViolation);
}

TEST(TxnAuditor, PostedWriteRetiresAtIssueAndRejectsStrayResponse) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("bus", 100.0);
  txn::TxnAuditor aud;
  auto r = makeReq(txn::Opcode::Write, 0x100, 4, /*posted=*/true);
  aud.onIssue(clk, *r, /*fire_and_forget=*/true);
  EXPECT_EQ(aud.issued(), 1u);
  EXPECT_EQ(aud.retired(), 1u);
  EXPECT_EQ(aud.inFlight(), 0u);
  auto rsp = makeRsp(r, 1);
  EXPECT_THROW(aud.onRetire(clk, *rsp), sim::InvariantViolation);
}

TEST(TxnAuditor, LeakReportedAtFinish) {
  sim::Simulator s;
  auto& clk = s.addClockDomain("bus", 100.0);
  txn::TxnAuditor aud;
  auto r = makeReq(txn::Opcode::Read, 0x100, 4);
  aud.onIssue(clk, *r, false);
  EXPECT_NO_THROW(aud.finish(/*expect_drained=*/false));
  try {
    aud.finish(/*expect_drained=*/true);
    FAIL() << "leaked transaction must be reported";
  } catch (const sim::InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("leaked"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Clean runs: the real rigs under full monitoring must produce zero
// violations and zero leaks, and the monitors must actually observe traffic.

class MonitoredRig : public ::testing::TestWithParam<core::RigProtocol> {};

TEST_P(MonitoredRig, RunsCleanUnderFullMonitoring) {
  core::SingleLayerConfig cfg;
  cfg.protocol = GetParam();
  cfg.masters = 3;
  cfg.memories = 2;
  cfg.read_fraction = 0.7;
  cfg.txns_per_master = 60;
  cfg.verify = true;
  core::SingleLayerRig rig(cfg);
  EXPECT_GT(rig.run(), 0u);  // run() performs the teardown audits
  EXPECT_TRUE(rig.allDone());
  ASSERT_NE(rig.verifyContext(), nullptr);
  EXPECT_GT(rig.verifyContext()->monitorCount(), 0u);
  EXPECT_GT(rig.verifyContext()->eventsObserved(), 0u);
  const auto& aud = rig.verifyContext()->auditor();
  EXPECT_GT(aud.issued(), 0u);
  EXPECT_EQ(aud.issued(), aud.retired());
  EXPECT_EQ(aud.inFlight(), 0u);
}

std::string rigName(const ::testing::TestParamInfo<core::RigProtocol>& info) {
  switch (info.param) {
    case core::RigProtocol::Stbus:
      return "Stbus";
    case core::RigProtocol::Ahb:
      return "Ahb";
    case core::RigProtocol::Axi:
      return "Axi";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, MonitoredRig,
                         ::testing::Values(core::RigProtocol::Stbus,
                                           core::RigProtocol::Ahb,
                                           core::RigProtocol::Axi),
                         rigName);

}  // namespace
