#pragma once
// Progress watchdog: detects livelock/deadlock in a platform model during
// development.  The watchdog samples a user-supplied progress counter (e.g.
// total retired transactions) every `check_interval` cycles; if the counter
// has not advanced while the system claims to be busy (some component
// non-idle), it fires a callback with a diagnostic string.
//
// Cycle-accurate interconnect models deadlock in characteristic ways —
// response-channel back-pressure loops, bridges waiting on each other,
// masters stuck on a response that never comes — and a run that silently
// spins to its time limit wastes hours; the watchdog turns that into an
// immediate, attributable failure.

#include <cstdint>
#include <functional>
#include <string>

#include "sim/component.hpp"
#include "sim/simulator.hpp"

namespace mpsoc::sim {

class Watchdog final : public Component {
 public:
  using ProgressFn = std::function<std::uint64_t()>;
  using AlarmFn = std::function<void(const std::string&)>;

  Watchdog(ClockDomain& clk, std::string name, ProgressFn progress,
           Cycle check_interval = 10'000)
      : Component(clk, std::move(name)), progress_(std::move(progress)),
        interval_(check_interval ? check_interval : 1),
        last_progress_(progress_()) {}

  void setAlarm(AlarmFn alarm) { alarm_ = std::move(alarm); }

  /// True once a stall has been detected (sticky).
  bool fired() const { return fired_; }
  std::uint64_t checksPerformed() const { return checks_; }

  void evaluate() override {
    if (now() % interval_ != 0) return;
    ++checks_;
    const std::uint64_t p = progress_();
    // The baseline is taken at construction, so a stall spanning only the
    // first interval is reported too (an unprimed baseline used to swallow
    // it).  The busy test rides the kernel's activity counters: O(1) when
    // everything sleeps, and only awake components are polled otherwise.
    if (p == last_progress_) {
      const bool busy = clk_.simulator().anyComponentBusy(this);
      if (busy && !fired_) {
        fired_ = true;
        const std::string msg =
            name() + ": no progress for " + std::to_string(interval_) +
            " cycles at t=" + std::to_string(clk_.simulator().now()) +
            " ps while components are busy (possible deadlock)";
        if (alarm_) alarm_(msg);
      }
    }
    last_progress_ = p;
  }

  /// The watchdog itself never keeps the simulation alive.
  bool idle() const override { return true; }

  /// Restore-path re-baseline: `last_progress_` is a reading of the progress
  /// sampler, not state the watchdog owns.  Restoring the manifested value
  /// into a kernel whose activity counters rewound (a fresh simulator
  /// instance, or a fast-forwarded region whose traffic never hit the
  /// accurate counters) leaves the first check comparing against a baseline
  /// the sampler can no longer reproduce — the stall window silently resets.
  /// Re-sample at the restored/fast-forwarded instant instead.
  void onRestore() override { last_progress_ = progress_(); }
  void onFastForward(Picos) override { last_progress_ = progress_(); }

  // Manual state hooks instead of SIM_STATE_MEMBERS: all three members are
  // saved and restored, but `last_progress_` stays out of the digest canon —
  // it is re-derived by onRestore(), so the two statecheck passes legally
  // hold different readings whenever no check lands inside the compared
  // window.  checks_ and fired_ remain canonical.
  bool saveState() override {
    saveStateBase();
    state::saveMembers(sim_state_snap_, last_progress_, checks_, fired_);
    return true;
  }
  void restoreState() override {
    restoreStateBase();
    state::restoreMembers(sim_state_snap_, last_progress_, checks_, fired_);
  }
  std::uint64_t stateDigest() const override {
    state::Digest d;
    digestStateBase(d);
    state::digestMembers(d, checks_, fired_);
    return d.value();
  }

 private:
  ProgressFn progress_;
  AlarmFn alarm_;
  Cycle interval_;
  // The manual save/restore/digest hooks above manage these four — the
  // manifest macros cannot express "restored but not digested".
  std::uint64_t last_progress_ = 0;  // mpsoc-lint: allow(unmanifested-state)
  std::uint64_t checks_ = 0;         // mpsoc-lint: allow(unmanifested-state)
  bool fired_ = false;               // mpsoc-lint: allow(unmanifested-state)
  state::SnapshotSlot sim_state_snap_;  // mpsoc-lint: allow(unmanifested-state)

  SIM_STATE_EXEMPT(progress_, "observer callback (progress sampler)");
  SIM_STATE_EXEMPT(alarm_, "observer callback");
  SIM_STATE_EXEMPT(interval_, "immutable configuration");
};

}  // namespace mpsoc::sim
