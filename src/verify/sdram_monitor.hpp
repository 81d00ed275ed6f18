#pragma once
// SDRAM command-legality monitor.
//
// The SdramDevice model reports every implied device command (PRECHARGE,
// ACTIVATE, READ, WRITE, AUTO-REFRESH) through its command observer.  This
// monitor keeps an independent shadow copy of the bank state machine and
// re-derives the JEDEC timing windows from the SdramTiming parameters —
// tRCD (ACT->CAS), tRP (PRE->ACT), tRAS (ACT->PRE), tRC (ACT->ACT),
// tWR (write recovery before PRE), tRFC (refresh duration) and CAS latency —
// then asserts each command lands inside its legal window.  It also checks
// bank-state legality (no ACTIVATE on an open bank, no CAS on a closed bank
// or the wrong row) and that data-bus transfer windows never overlap.
//
// Because the shadow is derived only from SdramTiming and the command
// stream, a bug in the device's bookkeeping (e.g. forgetting to advance
// pre_ok after a write burst) surfaces as a violation rather than silently
// producing optimistic bandwidth.

#include <cstdint>
#include <string>
#include <vector>

#include "mem/sdram.hpp"
#include "verify/monitor.hpp"

namespace mpsoc::verify {

class SdramLegalityMonitor final : public Monitor {
 public:
  SdramLegalityMonitor(std::string name, const sim::ClockDomain* clk,
                       mem::SdramTiming timing, unsigned banks,
                       sim::Picos clk_period);

  /// Feed one device command (wired to SdramDevice::setCommandObserver).
  void onCommand(const mem::SdramCommand& c);

  void saveCheckpoint() override {
    Monitor::saveCheckpoint();
    ckpt_banks_ = banks_;
    ckpt_bus_free_ = bus_free_;
    ckpt_refresh_done_ = refresh_done_;
    ckpt_has_refresh_ = has_refresh_;
  }
  void restoreCheckpoint() override {
    Monitor::restoreCheckpoint();
    banks_ = ckpt_banks_;
    bus_free_ = ckpt_bus_free_;
    refresh_done_ = ckpt_refresh_done_;
    has_refresh_ = ckpt_has_refresh_;
  }

 private:
  sim::Picos cyc(unsigned n) const {
    return static_cast<sim::Picos>(n) * clk_period_;
  }

  struct BankShadow {
    bool open = false;
    std::uint64_t row = 0;
    sim::Picos last_act = 0;
    sim::Picos last_pre = 0;
    sim::Picos wr_end = 0;  ///< end of last write data burst
    sim::Picos rd_end = 0;  ///< end of last read data burst
    bool has_act = false;
    bool has_pre = false;
    bool has_wr = false;
    bool has_rd = false;
  };

  mem::SdramTiming t_;
  sim::Picos clk_period_;
  std::vector<BankShadow> banks_;
  sim::Picos bus_free_ = 0;      ///< data-bus serialisation point
  sim::Picos refresh_done_ = 0;  ///< end of the last AUTO-REFRESH
  bool has_refresh_ = false;
  std::vector<BankShadow> ckpt_banks_;
  sim::Picos ckpt_bus_free_ = 0;
  sim::Picos ckpt_refresh_done_ = 0;
  bool ckpt_has_refresh_ = false;
};

}  // namespace mpsoc::verify
