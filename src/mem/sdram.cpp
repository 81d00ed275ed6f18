#include "mem/sdram.hpp"

#include <algorithm>

namespace mpsoc::mem {

SdramDevice::SdramDevice(SdramTiming timing, SdramGeometry geom,
                         sim::Picos clk_period)
    : timing_(timing), geom_(geom), clk_period_(clk_period),
      banks_(geom.banks), next_refresh_(cycles(timing.t_refi)) {}

bool SdramDevice::wouldHit(std::uint64_t addr) const {
  const Bank& b = banks_[bankOf(addr)];
  return b.open && b.row == rowOf(addr);
}

bool SdramDevice::maybeRefresh(sim::Picos now) {
  if (now < next_refresh_) return false;
  // All banks are precharged, then the refresh occupies the device for tRFC.
  sim::Picos start = now;
  for (auto& b : banks_) {
    if (b.open) start = std::max(start, b.pre_ok);
  }
  const sim::Picos done = start + cycles(timing_.t_rfc);
  if (cmd_obs_) {
    SdramCommand c;
    c.kind = SdramCommand::Kind::Refresh;
    c.at = start;
    c.data_begin = start;
    c.data_end = done;
    cmd_obs_(c);
  }
  for (auto& b : banks_) {
    b.open = false;
    b.act_ok = std::max(b.act_ok, done);
  }
  data_bus_free_ = std::max(data_bus_free_, done);
  next_refresh_ += cycles(timing_.t_refi);
  ++refreshes_;
  return true;
}

SdramAccess SdramDevice::schedule(std::uint64_t addr, std::uint32_t beats,
                                  bool is_write, sim::Picos now) {
  Bank& bank = banks_[bankOf(addr)];
  const std::uint64_t row = rowOf(addr);

  SdramAccess out;
  sim::Picos cas_at;

  const auto emit = [&](SdramCommand::Kind kind, sim::Picos at,
                        sim::Picos data_begin = 0, sim::Picos data_end = 0) {
    if (!cmd_obs_) return;
    SdramCommand c;
    c.kind = kind;
    c.bank = bankOf(addr);
    c.row = row;
    c.at = at;
    c.data_begin = data_begin;
    c.data_end = data_end;
    cmd_obs_(c);
  };

  if (bank.open && bank.row == row) {
    out.outcome = RowOutcome::Hit;
    ++hits_;
    cas_at = std::max(now, bank.cas_ok);
  } else if (!bank.open) {
    out.outcome = RowOutcome::Miss;
    ++misses_;
    const sim::Picos act_at = std::max(now, bank.act_ok);
    cas_at = act_at + cycles(timing_.t_rcd);
    emit(SdramCommand::Kind::Activate, act_at);
    bank.open = true;
    bank.row = row;
    bank.act_ok = act_at + cycles(timing_.t_rc);
    bank.pre_ok = act_at + cycles(timing_.t_ras);
  } else {
    out.outcome = RowOutcome::Conflict;
    ++conflicts_;
    const sim::Picos pre_at = std::max(now, bank.pre_ok);
    const sim::Picos act_at =
        std::max(pre_at + cycles(timing_.t_rp), bank.act_ok);
    cas_at = act_at + cycles(timing_.t_rcd);
    emit(SdramCommand::Kind::Precharge, pre_at);
    emit(SdramCommand::Kind::Activate, act_at);
    bank.row = row;
    bank.act_ok = act_at + cycles(timing_.t_rc);
    bank.pre_ok = act_at + cycles(timing_.t_ras);
  }

  // The data bus serialises all transfers.
  out.beat_period = timing_.ddr ? clk_period_ / 2 : clk_period_;
  const sim::Picos duration =
      static_cast<sim::Picos>(beats) * out.beat_period;

  if (is_write) {
    // Write data follows the command immediately (write latency 0/1).
    out.first_beat = std::max(cas_at + clk_period_, data_bus_free_);
    out.data_end = out.first_beat + duration;
    bank.pre_ok = std::max(bank.pre_ok, out.data_end + cycles(timing_.t_wr));
    bank.cas_ok = out.data_end;
  } else {
    out.first_beat =
        std::max(cas_at + cycles(timing_.cas_latency), data_bus_free_);
    out.data_end = out.first_beat + duration;
    bank.cas_ok = std::max(bank.cas_ok, out.data_end - duration / 2);
    bank.pre_ok = std::max(bank.pre_ok, out.data_end);
  }
  emit(is_write ? SdramCommand::Kind::Write : SdramCommand::Kind::Read,
       cas_at, out.first_beat, out.data_end);
  data_bus_free_ = out.data_end;
  return out;
}

}  // namespace mpsoc::mem
