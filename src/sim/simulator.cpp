#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>

#include "sim/check.hpp"
#include "sim/component.hpp"
#include "sim/state.hpp"

namespace mpsoc::sim {

namespace {
constexpr Picos kNever = std::numeric_limits<Picos>::max();
}  // namespace

Simulator::Simulator() = default;
Simulator::~Simulator() = default;

ClockDomain& Simulator::addClockDomain(const std::string& name, double mhz) {
  domains_.push_back(
      std::make_unique<ClockDomain>(*this, name, periodFromMhz(mhz)));
  ClockDomain* d = domains_.back().get();
  if (now_ps_ > 0) d->alignFirstEdge(now_ps_);
  return *d;
}

void Simulator::noteComponentAdded(Component*) {
  ++component_count_;
  ++component_generation_;
}

void Simulator::noteComponentRemoved(Component*) {
  --component_count_;
  ++component_generation_;
}

Picos Simulator::nextEdgeTime() const {
  Picos t = kNever;
  for (const auto& d : domains_) t = std::min(t, d->next_edge_ps_);
  return t;
}

bool Simulator::step() {
  if (domains_.empty()) return false;
  ++edges_executed_;

  // Min-scan: the soonest next edge, then every domain on that instant in
  // declaration order.  With a handful of domains this is cheaper than
  // keeping a sorted schedule up to date.
  now_ps_ = nextEdgeTime();
  edge_scratch_.clear();
  for (const auto& d : domains_) {
    if (d->next_edge_ps_ == now_ps_) edge_scratch_.push_back(d.get());
  }

  // Phase 1: evaluate every domain whose edge coincides with t.
  phase_ = Phase::Evaluate;
  if (reverse_order_) {
    for (ClockDomain* d : edge_scratch_) ++d->cycle_;
    for (auto it = edge_scratch_.rbegin(); it != edge_scratch_.rend(); ++it) {
      (*it)->evaluateComponents(/*reverse=*/true);
    }
  } else {
    for (ClockDomain* d : edge_scratch_) d->evaluateEdge();
  }

  // Phase 2: commit their staged state.
  phase_ = Phase::Commit;
  for (ClockDomain* d : edge_scratch_) d->commitEdge();
  phase_ = Phase::Outside;
  return true;
}

void Simulator::addCheckpointable(Checkpointable* c) {
  checkpointables_.push_back(c);
}

void Simulator::checkpoint() {
  SIM_CHECK(phase_ == Phase::Outside,
            "checkpoint() is only legal between edges (Phase::Outside)");
  for (const auto& d : domains_) {
    for (Component* c : d->components()) {
      SIM_CHECK_CTX(c->saveState(), c->name(), d.get(),
                    "component has no state manifest (SIM_STATE) — "
                    "checkpoint() needs every component to snapshot; the "
                    "unmanifested-state lint rule flags the class");
    }
    std::size_t i = 0;
    for (Updatable* u : d->updatables()) {
      SIM_CHECK_CTX(u->saveCheckpoint(),
                    d->name() + ":updatable#" + std::to_string(i), d.get(),
                    "updatable does not support checkpointing (payload type "
                    "without StateOps support?)");
      ++i;
    }
  }
  for (Checkpointable* c : checkpointables_) c->saveCheckpoint();
  ckpt_.now_ps = now_ps_;
  ckpt_.edges = edges_executed_;
  ckpt_.domain_state.clear();
  for (const auto& d : domains_) {
    ckpt_.domain_state.emplace_back(d->cycle_, d->next_edge_ps_);
  }
  ckpt_.valid = true;
}

void Simulator::restoreCheckpoint() {
  SIM_CHECK(ckpt_.valid, "restoreCheckpoint() without a prior checkpoint()");
  SIM_CHECK(phase_ == Phase::Outside,
            "restoreCheckpoint() is only legal between edges");
  SIM_CHECK(domains_.size() == ckpt_.domain_state.size(),
            "clock-domain population changed since the checkpoint was taken");
  for (const auto& d : domains_) {
    for (Component* c : d->components()) c->restoreState();
    for (Updatable* u : d->updatables()) u->restoreCheckpoint();
  }
  for (Checkpointable* c : checkpointables_) c->restoreCheckpoint();
  now_ps_ = ckpt_.now_ps;
  edges_executed_ = ckpt_.edges;
  for (std::size_t i = 0; i < domains_.size(); ++i) {
    domains_[i]->cycle_ = ckpt_.domain_state[i].first;
    domains_[i]->next_edge_ps_ = ckpt_.domain_state[i].second;
  }
  // Post-restore hook, after kernel time is back: components re-derive any
  // state that references simulator-level observations (the watchdog
  // re-baselines its progress sampler against the restored counters, so a
  // restore into a fresh kernel cannot reset its stall window).
  for (const auto& d : domains_) {
    for (Component* c : d->components()) c->onRestore();
  }
}

void Simulator::replayCheck(std::uint64_t edges, std::string_view label,
                            std::string_view hint) {
  using DigestItems = std::vector<std::pair<std::string, std::uint64_t>>;
  checkpoint();
  for (std::uint64_t i = 0; i < edges && step(); ++i) {
  }
  DigestItems first;
  stateDigestItems(first);
  const Picos first_end = now_ps_;

  restoreCheckpoint();
  for (std::uint64_t i = 0; i < edges && step(); ++i) {
  }
  DigestItems second;
  stateDigestItems(second);

  SIM_CHECK(first_end == now_ps_,
            label << ": replayed window ended at t=" << now_ps_
                  << " ps, first pass ended at t=" << first_end
                  << " ps (kernel time state not restored)");
  SIM_CHECK(first.size() == second.size(),
            label << ": digest item count changed across rewind ("
                  << first.size() << " vs " << second.size()
                  << " — state holders registered mid-window?)");
  for (std::size_t i = 0; i < first.size(); ++i) {
    SIM_CHECK(first[i].second == second[i].second,
              label << " divergence at t=" << now_ps_ << " ps after " << edges
                    << " edges: " << first[i].first << " digests 0x"
                    << std::hex << first[i].second << " (first pass) vs 0x"
                    << second[i].second << std::dec << " (replay) — "
                    << hint);
  }
}

void Simulator::fastForwardTo(Picos t) {
  SIM_CHECK(phase_ == Phase::Outside,
            "fastForwardTo() is only legal between edges (Phase::Outside)");
  SIM_CHECK(t >= now_ps_, "fastForwardTo(" << t << ") would rewind time (now "
                                           << now_ps_ << ")");
  if (t == now_ps_) return;
  now_ps_ = t;
  for (const auto& d : domains_) {
    // Advance by the number of skipped edges relative to the domain's own
    // next-edge instant — not an absolute t/period re-derivation, which would
    // be wrong for domains added mid-run (alignFirstEdge starts them at
    // cycle 0 with now() > 0).  The next edge lands at the first
    // multiple-of-period after t: exactly the original coincident-edge grid,
    // the same placement alignFirstEdge(t) would choose.
    if (t >= d->next_edge_ps_) {
      d->cycle_ += (t - d->next_edge_ps_) / d->period_ps_ + 1;
      d->next_edge_ps_ = (t / d->period_ps_ + 1) * d->period_ps_;
    }
  }
  // Let components re-anchor absolute-time state (SDRAM refresh deadlines,
  // watchdog baselines) onto the new instant.
  for (const auto& d : domains_) {
    for (Component* c : d->components()) c->onFastForward(t);
  }
}

std::uint64_t Simulator::stateDigest() const {
  std::vector<std::pair<std::string, std::uint64_t>> items;
  stateDigestItems(items);
  state::Digest d;
  for (const auto& [label, v] : items) {
    d.add(label);
    d.add(v);
  }
  return d.value();
}

void Simulator::stateDigestItems(
    std::vector<std::pair<std::string, std::uint64_t>>& out) const {
  SIM_CHECK(phase_ == Phase::Outside,
            "stateDigest() is only meaningful between edges");
  for (const auto& d : domains_) {
    for (const Component* c : d->components()) {
      out.emplace_back(d->name() + ":" + c->name(), c->stateDigest());
    }
    std::size_t i = 0;
    for (const Updatable* u : d->updatables()) {
      out.emplace_back(d->name() + ":updatable#" + std::to_string(i),
                       u->checkpointDigest());
      ++i;
    }
  }
  {
    state::Digest kd;
    kd.add(static_cast<std::uint64_t>(now_ps_));
    kd.add(edges_executed_);
    for (const auto& d : domains_) {
      kd.add(d->cycle_);
      kd.add(static_cast<std::uint64_t>(d->next_edge_ps_));
    }
    out.emplace_back("kernel:time", kd.value());
  }
  std::size_t i = 0;
  for (const Checkpointable* c : checkpointables_) {
    out.emplace_back("aux#" + std::to_string(i) + ":" + c->checkpointName(),
                     c->checkpointDigest());
    ++i;
  }
}

Picos Simulator::run(Picos max_time_ps, const std::function<bool()>& stop) {
  while (now_ps_ < max_time_ps) {
    if (stop && stop()) break;
    // Peek the upcoming instant so no edge past the bound ever executes; an
    // edge landing exactly on the bound still runs.
    const Picos t = nextEdgeTime();
    if (t == kNever || t > max_time_ps) break;
    if (!step()) break;
  }
  return now_ps_;
}

Picos Simulator::runUntilIdle(Picos max_time_ps) {
  // A component may become non-idle again one edge after its neighbours push
  // state to it, so require a few consecutive all-idle instants before
  // declaring convergence.
  constexpr int kQuiesceEdges = 8;
  int idle_streak = 0;
  Picos last_active = now_ps_;
  refreshIdleScan();
  // Already quiescent on entry: report the current time as the last-active
  // instant and execute nothing (previously the loop burned the full quiesce
  // streak of edges, advancing time and stats on an idle platform).
  if (allIdle()) return last_active;
  while (now_ps_ < max_time_ps) {
    if (!step()) break;
    if (idle_scan_generation_ != component_generation_) refreshIdleScan();
    if (allIdle()) {
      if (++idle_streak >= kQuiesceEdges) break;
    } else {
      idle_streak = 0;
      last_active = now_ps_;
    }
  }
  return last_active;
}

void Simulator::refreshIdleScan() {
  idle_scan_ = allComponents();
  idle_scan_generation_ = component_generation_;
}

bool Simulator::allIdle() const {
  for (Component* c : idle_scan_) {
    // sleep() is only legal while idle(), so a sleeping component is idle by
    // contract — no need to poll it.
    if (c->asleep()) continue;
    if (!c->idle()) return false;
  }
  return true;
}

bool Simulator::anyComponentBusy(const Component* exclude) const {
  if (asleep_count_ >= component_count_) return false;
  for (const auto& d : domains_) {
    for (const Component* c : d->components()) {
      if (c == exclude || c->asleep()) continue;
      if (!c->idle()) return true;
    }
  }
  return false;
}

void Simulator::finish() {
  if (finished_) return;
  finished_ = true;
  for (Component* c : allComponents()) c->endOfSimulation();
}

std::vector<Component*> Simulator::allComponents() const {
  std::vector<Component*> out;
  for (const auto& d : domains_) {
    for (Component* c : d->components()) out.push_back(c);
  }
  return out;
}

}  // namespace mpsoc::sim
