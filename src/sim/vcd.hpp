#pragma once
// VCD (Value Change Dump) waveform export.
//
// The paper's reverse-engineering methodology rests on "careful inspection
// of RTL waveforms"; the virtual platform offers the same affordance for its
// own behavioural signals: register integer-valued observables (FIFO
// occupancies, channel-busy flags, outstanding counts, bank states) and a
// VcdSampler emits a standard VCD file viewable in GTKWave & co.
//
//   sim::VcdWriter vcd(out_stream);
//   auto fifo_occ = vcd.addSignal("lmi.fifo_occupancy", 8);
//   auto busy     = vcd.addSignal("n8.rsp_busy", 1);
//   sim::VcdSampler sampler(clk, "vcd", vcd);
//   sampler.bind(fifo_occ, [&] { return mem_port.req.registeredSize(); });
//   sampler.bind(busy,     [&] { return engine_busy ? 1u : 0u; });
//
// The header is written lazily on the first sample; values are emitted only
// on change, as the format intends.

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/component.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace mpsoc::sim {

class VcdWriter {
 public:
  using SignalId = std::size_t;

  explicit VcdWriter(std::ostream& os) : os_(os) {}

  /// Register a signal before the first sample.  Hierarchical names use '.'
  /// separators ("lmi.fifo" becomes scope lmi, var fifo).
  SignalId addSignal(const std::string& name, unsigned width_bits);

  /// Emit the header (idempotent; called automatically by sample()).
  void writeHeader();

  /// Record the current value of every signal at `time_ps`; only changes are
  /// written.
  void sample(Picos time_ps, const std::vector<std::uint64_t>& values);

  std::size_t signalCount() const { return signals_.size(); }

 private:
  struct Signal {
    std::string name;
    unsigned width;
    std::string id;  ///< short VCD identifier
    std::uint64_t last = 0;
    bool seen = false;
  };

  static std::string makeId(std::size_t index);
  void emitValue(const Signal& s, std::uint64_t v);

  std::ostream& os_;
  std::vector<Signal> signals_;
  bool header_done_ = false;
  Picos last_time_ = 0;
  bool any_sample_ = false;
};

/// Clocked sampler: evaluates bound observables every cycle of its domain
/// and forwards them to the writer.
class VcdSampler final : public Component {
 public:
  VcdSampler(ClockDomain& clk, std::string name, VcdWriter& writer)
      : Component(clk, std::move(name)), writer_(writer) {}

  /// Bind an observable to a previously registered signal.  Bind in the same
  /// order for all signals (one binding per signal id, in id order).
  void bind(VcdWriter::SignalId id, std::function<std::uint64_t()> fn) {
    if (observers_.size() <= id) observers_.resize(id + 1);
    observers_[id] = std::move(fn);
  }

  void evaluate() override {
    values_.resize(observers_.size());
    for (std::size_t i = 0; i < observers_.size(); ++i) {
      values_[i] = observers_[i] ? observers_[i]() : 0;
    }
    writer_.sample(clk_.simulator().now(), values_);
  }
  bool idle() const override { return true; }

 private:
  VcdWriter& writer_;
  std::vector<std::function<std::uint64_t()>> observers_;
  std::vector<std::uint64_t> values_;

  SIM_STATE_NONE();
  SIM_STATE_EXEMPT(observers_, "observer callbacks (signal bindings)");
  SIM_STATE_EXEMPT(values_, "scratch buffer rebuilt every evaluate");
};

}  // namespace mpsoc::sim
