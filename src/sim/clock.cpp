#include "sim/clock.hpp"

#include <algorithm>

#include "sim/component.hpp"
#include "sim/simulator.hpp"

namespace mpsoc::sim {

ClockDomain::ClockDomain(Simulator& sim, std::string name, Picos period_ps)
    : sim_(sim), name_(std::move(name)), period_ps_(period_ps),
      next_edge_ps_(period_ps) {}

void ClockDomain::addComponent(Component* c) {
  components_.push_back(c);
  sim_.noteComponentAdded(c);
}

void ClockDomain::removeComponent(Component* c) {
  components_.erase(std::remove(components_.begin(), components_.end(), c),
                    components_.end());
  sim_.noteComponentRemoved(c);
}

void ClockDomain::addUpdatable(Updatable* u, CommitPolicy p) {
  updatables_.push_back(u);
  if (p == CommitPolicy::EveryEdge) markAlwaysCommit(u);
}

void ClockDomain::markAlwaysCommit(Updatable* u) {
  if (u->always_commit_) return;
  u->always_commit_ = true;
  always_commit_.push_back(u);
}

void ClockDomain::removeUpdatable(Updatable* u) {
  updatables_.erase(std::remove(updatables_.begin(), updatables_.end(), u),
                    updatables_.end());
  commit_queue_.erase(
      std::remove(commit_queue_.begin(), commit_queue_.end(), u),
      commit_queue_.end());
  always_commit_.erase(
      std::remove(always_commit_.begin(), always_commit_.end(), u),
      always_commit_.end());
}

void ClockDomain::evaluateEdge() {
  ++cycle_;
  evaluateComponents(false);
}

void ClockDomain::evaluateComponents(bool reverse) {
  const bool gate = sim_.activityGating();
  auto run = [gate](Component* c) {
    if (!(gate && c->asleep())) c->evaluate();
  };
  // Index loops: a component constructed during evaluate() (mid-run
  // registration) is appended to components_ and joins this very edge, in
  // deterministic registration order — after the sweep when it is reversed.
  std::size_t i = 0;
  if (reverse) {
    i = components_.size();
    for (std::size_t j = i; j > 0; --j) run(components_[j - 1]);
  }
  for (; i < components_.size(); ++i) run(components_[i]);
}

void ClockDomain::commitEdge() {
  for (Updatable* u : always_commit_) {
    u->commit();
  }
  for (Updatable* u : commit_queue_) {
    u->commit_queued_ = false;
    if (!u->always_commit_) u->commit();
  }
  commit_queue_.clear();
  next_edge_ps_ += period_ps_;
}

}  // namespace mpsoc::sim
