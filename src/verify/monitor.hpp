#pragma once
// Attachable protocol monitors (SVA-assertion style) for the bus, bridge and
// memory models.  A monitor observes a component *non-intrusively* through
// the SyncFifo payload taps (sim/fifo.hpp) or the SDRAM command observer and
// raises ProtocolViolation the moment a protocol rule is broken — the
// simulation equivalent of a bound SystemVerilog assertion module.
//
// Cost model: the taps and hooks are always compiled; attachment is opt-in per
// platform / rig (`verify` config flags).  With nothing attached each hook is
// one empty-vector or null-pointer test, which a best-of-N measurement could
// not tell apart from run-to-run noise; an attached monitor set costs the
// difference between `mpsoc_run --sweep --json` runs with and without
// --verify (per-point wall_ms).

#include <cstdint>
#include <string>

#include "sim/check.hpp"

namespace mpsoc::verify {

/// Thrown by every protocol monitor.  Derives from InvariantViolation so the
/// existing catch sites (tests, tools) keep working while monitor-specific
/// tests can catch the narrower type.
class ProtocolViolation : public sim::InvariantViolation {
 public:
  ProtocolViolation(sim::CheckContext ctx, std::string detail)
      : sim::InvariantViolation(std::move(ctx), std::move(detail)) {}
};

class Monitor {
 public:
  Monitor(std::string name, const sim::ClockDomain* clk)
      : name_(std::move(name)), clk_(clk) {}
  virtual ~Monitor() = default;

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  const std::string& name() const { return name_; }

  /// Number of port/command events this monitor has checked.  Clean-run
  /// tests assert this is non-zero: a monitor that observed nothing proves
  /// nothing (e.g. it was attached to the wrong port).
  std::uint64_t eventsObserved() const { return events_; }

  /// End-of-run audit.  With `expect_drained` (finite workloads run to
  /// completion) a monitor still tracking an unfinished transaction reports
  /// it as a leak; bounded runs pass false.
  virtual void finish(bool expect_drained) const { (void)expect_drained; }

  /// Checkpoint hooks (the replayCheck oracles rewind the simulation to
  /// an earlier instant and re-run it): monitors live outside the component
  /// graph but track in-flight traffic, so a restore must wind their books
  /// back too or the replayed timeline false-positives against stale state.
  /// Overrides must chain the base hooks (events_ lives here).
  virtual void saveCheckpoint() { ckpt_events_ = events_; }
  virtual void restoreCheckpoint() { events_ = ckpt_events_; }

 protected:
  void countEvent() { ++events_; }

  /// Format and throw a ProtocolViolation with full clock context.  In debug
  /// builds the report is printed to stderr first (mirrors raiseInvariant),
  /// so a violation surfacing through a noexcept path still leaves a trace.
  [[noreturn]] void fail(const char* file, int line,
                         const std::string& detail) const;

  std::string name_;
  const sim::ClockDomain* clk_;

 private:
  std::uint64_t events_ = 0;
  std::uint64_t ckpt_events_ = 0;
};

// Check macro for monitor member functions: `expr` is an ostream chain,
// evaluated only on failure.  Calls the enclosing Monitor's fail().
#define MPSOC_MON_CHECK(cond, expr)                                          \
  do {                                                                       \
    if (!(cond)) [[unlikely]] {                                              \
      std::ostringstream mon_check_oss__;                                    \
      mon_check_oss__ << expr;                                               \
      fail(__FILE__, __LINE__, mon_check_oss__.str());                       \
    }                                                                        \
  } while (0)

}  // namespace mpsoc::verify
