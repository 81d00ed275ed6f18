#pragma once
// Global scheduler.  Owns the clock domains and advances the picosecond
// timeline edge by edge.  Every edge runs in two phases:
//
//   phase 1 (evaluate): all components of all domains whose edge falls on the
//                       current instant run evaluate(); they see only state
//                       committed at earlier edges;
//   phase 2 (commit):   all staged state (SyncFifo pushes/pops, registers) of
//                       those domains becomes visible.
//
// This two-phase discipline makes results independent of component
// registration order and is the custom-kernel equivalent of the SystemC
// delta-cycle semantics the paper's virtual platform relies on.
//
// The edge loop is activity-driven: the next-edge instants are kept in a
// cached schedule (domains grouped by coincident instant, rebuilt only when a
// domain is added), and components that declared themselves quiescent via the
// sleep()/wake() protocol are skipped during evaluate and counted idle
// without polling.  See DESIGN.md "Kernel".

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/clock.hpp"
#include "sim/time.hpp"

namespace mpsoc::sim {

/// Where the kernel is within the two-phase edge protocol.  FIFOs use this to
/// reject mutations outside their legal window: push/pop only during
/// Evaluate, commit() only during Commit (i.e. only kernel-invoked).
enum class Phase { Outside, Evaluate, Commit };

/// State holder outside the component/updatable graph (verify monitors, the
/// transaction auditor, stats probes) that must participate in
///// Simulator::checkpoint() so a restored run does not see stale observer
/// state (a monitor remembering in-flight requests from the abandoned
/// timeline would false-positive).  Registered via addCheckpointable();
/// registration order defines the digest-item order, so register
/// deterministically (construction order).
class Checkpointable {
 public:
  virtual ~Checkpointable() = default;
  virtual void saveCheckpoint() = 0;
  virtual void restoreCheckpoint() = 0;
  /// Canonical digest of the held state; 0 when the holder is pure
  /// observation whose contents are not part of platform state.
  virtual std::uint64_t checkpointDigest() const { return 0; }
  /// Label used in stateDigestItems() reports.
  virtual std::string checkpointName() const { return "aux"; }
};

class Simulator {
 public:
  Simulator();
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Create (and own) a clock domain.  `mhz` need not be integral.  A domain
  /// added while the simulation is already running gets its first edge at the
  /// next multiple of its period after now() (same grid it would occupy had
  /// it existed from t=0).
  ClockDomain& addClockDomain(const std::string& name, double mhz);

  /// Current global time.  During an edge this is the instant of that edge.
  Picos now() const { return now_ps_; }

  /// Number of edge instants executed so far — the kernel's unit of work.
  /// Sweep harnesses divide this by wall-clock time to report simulation
  /// throughput (edges/s) independently of clock-domain frequencies.
  std::uint64_t edgesExecuted() const { return edges_executed_; }

  /// Current position within the two-phase edge protocol.
  Phase phase() const { return phase_; }

  /// Activity gating (default on): components that called sleep() are skipped
  /// during evaluate.  The sleep contract (only legal while idle()) makes
  /// gating behaviour-neutral; switching it off re-evaluates every component
  /// on every edge and must produce bit-identical results — the equivalence
  /// tests assert exactly that.
  void setActivityGating(bool on) { activity_gating_ = on; }
  bool activityGating() const { return activity_gating_; }

  /// Number of components currently asleep / registered (activity counters).
  std::size_t asleepComponents() const { return asleep_count_; }
  std::size_t totalComponents() const { return component_count_; }

  /// True when some component other than `exclude` is awake and non-idle.
  /// O(1) when everything sleeps; otherwise scans only awake components.
  /// Watchdogs use this as their "system still busy" test.
  bool anyComponentBusy(const Component* exclude = nullptr) const;

  /// Reverse evaluation order (default off): every edge first advances the
  /// cycle counter of each domain on it, then evaluates the domains last to
  /// first and each domain's components last to first.  Activity gating
  /// applies as in forward order; a component registered during the edge
  /// joins it after the reversed sweep of its domain.  The two-phase
  /// discipline makes results independent of this order, so a platform
  /// stepped forward and a copy stepped reversed must hold identical FIFO
  /// and component state after every edge — the order oracle in the tests
  /// steps the two in lockstep and names the first state holder that
  /// diverges.
  void setReverseOrder(bool on) { reverse_order_ = on; }

  // --- checkpointing (replayCheck oracles, fast-forward; see DESIGN.md) -----

  /// Register an auxiliary state holder in the checkpoint set.  Must happen
  /// in deterministic (construction) order: the order labels digest items.
  void addCheckpointable(Checkpointable* c);

  /// Snapshot the complete platform state at the current instant: every
  /// component's manifest (saveState), every updatable's committed contents
  /// (saveCheckpoint), every registered Checkpointable, and the kernel's own
  /// time state (now, edge count, per-domain cycle counters and next-edge
  /// instants).  Only legal between edges (Phase::Outside).  Raises
  /// InvariantViolation naming the first component or updatable that does
  /// not support checkpointing.
  void checkpoint();

  /// Rewind to the last checkpoint().  The component/domain population must
  /// be unchanged since the checkpoint was taken.
  void restoreCheckpoint();
  bool hasCheckpoint() const { return ckpt_.valid; }

  /// Checkpoint-equivalence oracle: checkpoint now, step `edges` edges and
  /// digest every state holder, rewind, step the same edges again and digest
  /// again.  The run continues from the window's end.  Raises
  /// InvariantViolation, prefixed with `label`, when kernel time, the holder
  /// count or any holder's digest differs between the passes; a digest
  /// mismatch names the first diverging holder and appends `hint` (what the
  /// divergence means to the caller).
  void replayCheck(std::uint64_t edges, std::string_view label,
                   std::string_view hint);

  /// Jump simulated time to `t` (>= now) without executing the intervening
  /// edges — the kernel half of the loosely-timed fast-forward mode (see
  /// src/sim/fastforward.hpp).  Each domain's cycle counter advances by the
  /// number of edges skipped and its next edge lands on the original
  /// coincident-edge grid (the same multiples-of-period placement
  /// alignFirstEdge uses for mid-run domains — never a grid re-anchored at
  /// `t`).  Components then get onFastForward(t) to re-anchor any
  /// absolute-time state.  Only legal between edges (Phase::Outside).
  void fastForwardTo(Picos t);

  /// Canonical digest of the complete committed platform state (volatile
  /// transaction ids excluded; see src/sim/state.hpp).  Two runs that took
  /// identical decisions hold identical digests at the same instant.
  std::uint64_t stateDigest() const;

  /// Per-holder labeled digests, appended to `out` in deterministic order —
  /// components by (domain, registration), updatables by domain slot,
  /// kernel time state, then registered checkpointables.  The statecheck
  /// oracle diffs two of these vectors to name the first diverging holder.
  void stateDigestItems(
      std::vector<std::pair<std::string, std::uint64_t>>& out) const;

  /// Advance one edge instant (possibly several coincident domain edges).
  /// Returns false when there are no domains.
  bool step();

  /// Run until `max_time_ps` (absolute) or until `stop` returns true (checked
  /// between edges).  No edge past `max_time_ps` is executed: the upcoming
  /// edge instant is peeked first, and the loop stops when it would exceed
  /// the bound (an edge landing exactly on the bound still runs).  Returns
  /// the final time — the instant of the last executed edge, <= max_time_ps.
  Picos run(Picos max_time_ps,
            const std::function<bool()>& stop = nullptr);

  /// Run until every registered component reports idle() for
  /// `quiesce_edges` consecutive edge instants, or until max_time_ps.
  /// Returns the time of the last non-idle edge (the execution time).
  /// If the platform is already quiescent on entry, returns now() without
  /// executing any edge.  Components registered while the loop runs (mid-run
  /// construction) are picked up and idle-polled from their first edge.
  Picos runUntilIdle(Picos max_time_ps);

  /// Invoke endOfSimulation() on every component exactly once.
  void finish();

  const std::vector<std::unique_ptr<ClockDomain>>& domains() const {
    return domains_;
  }

  /// All components across all domains (for idle checks / finish hooks).
  std::vector<Component*> allComponents() const;

  // --- kernel bookkeeping (called by ClockDomain / Component) ---------------

  void noteComponentAdded(Component* c);
  void noteComponentRemoved(Component* c);
  void noteSleep() { ++asleep_count_; }
  void noteWake() { --asleep_count_; }

 private:
  /// One instant of the cached edge schedule: every domain whose next edge
  /// falls on `t`, in domain registration order.  schedule_ is kept sorted by
  /// t descending, so back() is always the soonest instant.
  struct EdgeSlot {
    Picos t = 0;
    std::vector<ClockDomain*> domains;
  };

  /// Time of the next edge instant, without executing it.
  Picos nextEdgeTime();
  void rebuildSchedule();
  void scheduleDomain(ClockDomain* d);
  void refreshIdleScan();
  bool allIdle() const;

  /// Kernel half of a checkpoint: global time, edge count and each domain's
  /// cycle counter / next-edge instant (component and updatable contents are
  /// snapshotted in place by their own hooks).
  struct KernelCheckpoint {
    Picos now_ps = 0;
    std::uint64_t edges = 0;
    std::vector<std::pair<Cycle, Picos>> domain_state;  // (cycle_, next_edge)
    bool valid = false;
  };

  std::vector<std::unique_ptr<ClockDomain>> domains_;
  Picos now_ps_ = 0;
  std::uint64_t edges_executed_ = 0;
  Phase phase_ = Phase::Outside;
  bool reverse_order_ = false;
  bool finished_ = false;
  bool activity_gating_ = true;

  // Cached coincident-edge schedule (multi-domain path; a single domain short
  // circuits it).  slot_pool_ recycles slot vectors so the steady-state edge
  // loop performs no allocation.
  std::vector<EdgeSlot> schedule_;
  std::vector<std::vector<ClockDomain*>> slot_pool_;
  std::vector<ClockDomain*> edge_scratch_;
  bool schedule_valid_ = false;

  // Checkpoint bookkeeping.
  KernelCheckpoint ckpt_;
  std::vector<Checkpointable*> checkpointables_;

  // Activity bookkeeping.
  std::size_t component_count_ = 0;
  std::size_t asleep_count_ = 0;
  /// Bumped on every component registration/removal; consumers holding a
  /// component list (runUntilIdle's idle-scan cache) re-derive it on change.
  std::uint64_t component_generation_ = 0;
  std::vector<Component*> idle_scan_;
  std::uint64_t idle_scan_generation_ = ~0ULL;
};

}  // namespace mpsoc::sim
