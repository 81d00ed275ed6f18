#include "mem/simple_memory.hpp"

#include <memory>

#include "verify/context.hpp"
#include "verify/port_monitor.hpp"

namespace mpsoc::mem {

using txn::Opcode;

SimpleMemory::SimpleMemory(sim::ClockDomain& clk, std::string name,
                           txn::TargetPort& port, SimpleMemoryConfig cfg)
    : sim::Component(clk, std::move(name)), port_(port), cfg_(cfg) {
  // Sleep condition is "request queue empty"; an arriving request is the
  // wake event.
  port_.req.wakeOnPush(this);
}

void SimpleMemory::attachMonitors(verify::VerifyContext& ctx) {
  ctx.add<verify::TargetMonitor>(name_ + ".mon", &clk_, port_);
}

void SimpleMemory::evaluate() {
  if (port_.req.empty()) {
    // Nothing queued: whatever busy window remains only delays the *next*
    // request, so quiesce until one arrives (wakeOnPush).
    sleep();
    return;
  }
  const sim::Picos now = clk_.simulator().now();
  if (now < busy_until_) return;

  const txn::RequestPtr& req = port_.req.front();
  const bool needs_response = !(req->posted && req->op == Opcode::Write);
  if (needs_response && !port_.rsp.canPush()) return;  // output back-pressure

  const sim::Picos P = clk_.period();
  const sim::Picos per_beat = static_cast<sim::Picos>(1 + cfg_.wait_states) * P;

  txn::RequestPtr r = port_.req.pop();
  ++accesses_;
  beats_ += r->beats;
  if (observer_) observer_(now, r);

  if (r->op == Opcode::Read) {
    auto rsp = std::make_shared<txn::Response>();
    rsp->req = r;
    rsp->beats = r->beats;
    rsp->sched.first_beat = now + per_beat;
    rsp->sched.beat_period = per_beat;
    busy_until_ = rsp->sched.lastBeat(rsp->beats);
    port_.rsp.push(rsp);
  } else {
    const sim::Picos done =
        now + P + static_cast<sim::Picos>(cfg_.wait_states) * P * r->beats;
    busy_until_ = done;
    if (needs_response) {
      auto rsp = std::make_shared<txn::Response>();
      rsp->req = r;
      rsp->beats = 1;  // write acknowledge
      rsp->sched.first_beat = done;
      rsp->sched.beat_period = P;
      port_.rsp.push(rsp);
    }
  }
}

bool SimpleMemory::idle() const { return port_.req.empty(); }

}  // namespace mpsoc::mem
