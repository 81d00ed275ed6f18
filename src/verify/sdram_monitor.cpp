#include "verify/sdram_monitor.hpp"

#include <sstream>

namespace mpsoc::verify {

SdramLegalityMonitor::SdramLegalityMonitor(std::string name,
                                           const sim::ClockDomain* clk,
                                           mem::SdramTiming timing,
                                           unsigned banks,
                                           sim::Picos clk_period)
    : Monitor(std::move(name), clk), t_(timing), clk_period_(clk_period),
      banks_(banks) {}

void SdramLegalityMonitor::onCommand(const mem::SdramCommand& c) {
  countEvent();
  using Kind = mem::SdramCommand::Kind;

  if (c.kind == Kind::Refresh) {
    // AUTO-REFRESH implicitly precharges every bank: each open bank must
    // satisfy its precharge windows at the refresh instant.
    for (std::size_t i = 0; i < banks_.size(); ++i) {
      BankShadow& b = banks_[i];
      if (b.open) {
        MPSOC_MON_CHECK(!b.has_act || c.at >= b.last_act + cyc(t_.t_ras),
                        "AUTO-REFRESH at " << c.at << " ps precharges bank "
                                           << i << " before tRAS (ACTIVATE at "
                                           << b.last_act << " ps)");
        MPSOC_MON_CHECK(!b.has_wr || c.at >= b.wr_end + cyc(t_.t_wr),
                        "AUTO-REFRESH at " << c.at << " ps inside write "
                                              "recovery of bank "
                                           << i << " (data until " << b.wr_end
                                           << " ps + tWR)");
        MPSOC_MON_CHECK(!b.has_rd || c.at >= b.rd_end,
                        "AUTO-REFRESH at " << c.at
                                           << " ps truncates read data of "
                                              "bank "
                                           << i << " (data until " << b.rd_end
                                           << " ps)");
      }
      b.open = false;
    }
    MPSOC_MON_CHECK(c.data_end >= c.at + cyc(t_.t_rfc),
                    "AUTO-REFRESH window [" << c.at << ", " << c.data_end
                                            << ") ps shorter than tRFC");
    refresh_done_ = c.data_end;
    has_refresh_ = true;
    if (bus_free_ < c.data_end) bus_free_ = c.data_end;
    return;
  }

  MPSOC_MON_CHECK(c.bank < banks_.size(), "command addresses bank "
                                              << c.bank << ", device has "
                                              << banks_.size());
  BankShadow& b = banks_[c.bank];

  switch (c.kind) {
    case Kind::Activate:
      MPSOC_MON_CHECK(!b.open, "ACTIVATE at "
                                   << c.at << " ps on open bank " << c.bank
                                   << " (row " << b.row
                                   << " must be precharged first)");
      MPSOC_MON_CHECK(!b.has_act || c.at >= b.last_act + cyc(t_.t_rc),
                      "ACTIVATE at " << c.at << " ps violates tRC on bank "
                                     << c.bank << " (previous ACTIVATE at "
                                     << b.last_act << " ps)");
      MPSOC_MON_CHECK(!b.has_pre || c.at >= b.last_pre + cyc(t_.t_rp),
                      "ACTIVATE at " << c.at << " ps violates tRP on bank "
                                     << c.bank << " (PRECHARGE at "
                                     << b.last_pre << " ps)");
      MPSOC_MON_CHECK(!has_refresh_ || c.at >= refresh_done_,
                      "ACTIVATE at " << c.at
                                     << " ps during AUTO-REFRESH (busy until "
                                     << refresh_done_ << " ps)");
      b.open = true;
      b.row = c.row;
      b.last_act = c.at;
      b.has_act = true;
      break;

    case Kind::Precharge:
      MPSOC_MON_CHECK(b.open, "PRECHARGE at " << c.at
                                              << " ps on already-closed bank "
                                              << c.bank);
      MPSOC_MON_CHECK(!b.has_act || c.at >= b.last_act + cyc(t_.t_ras),
                      "PRECHARGE at " << c.at << " ps violates tRAS on bank "
                                      << c.bank << " (ACTIVATE at "
                                      << b.last_act << " ps)");
      MPSOC_MON_CHECK(!b.has_wr || c.at >= b.wr_end + cyc(t_.t_wr),
                      "PRECHARGE at " << c.at << " ps violates tWR on bank "
                                      << c.bank << " (write data until "
                                      << b.wr_end << " ps)");
      MPSOC_MON_CHECK(!b.has_rd || c.at >= b.rd_end,
                      "PRECHARGE at " << c.at
                                      << " ps truncates read data on bank "
                                      << c.bank << " (data until " << b.rd_end
                                      << " ps)");
      b.open = false;
      b.last_pre = c.at;
      b.has_pre = true;
      break;

    case Kind::Read:
    case Kind::Write: {
      const bool is_write = c.kind == Kind::Write;
      const char* kind = is_write ? "WRITE" : "READ";
      MPSOC_MON_CHECK(b.open, kind << " at " << c.at << " ps on closed bank "
                                   << c.bank << " (no open row)");
      MPSOC_MON_CHECK(b.row == c.row,
                      kind << " at " << c.at << " ps targets row " << c.row
                           << " but bank " << c.bank << " has row " << b.row
                           << " open");
      MPSOC_MON_CHECK(!b.has_act || c.at >= b.last_act + cyc(t_.t_rcd),
                      kind << " at " << c.at << " ps violates tRCD on bank "
                           << c.bank << " (ACTIVATE at " << b.last_act
                           << " ps)");
      const sim::Picos min_data =
          c.at + (is_write ? clk_period_ : cyc(t_.cas_latency));
      MPSOC_MON_CHECK(c.data_begin >= min_data,
                      kind << " data starts at " << c.data_begin
                           << " ps, earlier than command at " << c.at
                           << " ps plus "
                           << (is_write ? "write latency" : "CAS latency"));
      MPSOC_MON_CHECK(c.data_end > c.data_begin,
                      kind << " with empty data window [" << c.data_begin
                           << ", " << c.data_end << ") ps");
      MPSOC_MON_CHECK(c.data_begin >= bus_free_,
                      kind << " data window starts at " << c.data_begin
                           << " ps while the data bus is busy until "
                           << bus_free_ << " ps (overlapping transfers)");
      MPSOC_MON_CHECK(!has_refresh_ || c.data_begin >= refresh_done_,
                      kind << " data at " << c.data_begin
                           << " ps during AUTO-REFRESH (busy until "
                           << refresh_done_ << " ps)");
      bus_free_ = c.data_end;
      if (is_write) {
        b.wr_end = c.data_end;
        b.has_wr = true;
      } else {
        b.rd_end = c.data_end;
        b.has_rd = true;
      }
      break;
    }

    case Kind::Refresh:
      break;  // handled above
  }
}

}  // namespace mpsoc::verify
