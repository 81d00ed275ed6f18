#pragma once
// TimelineRecorder: windowed time series of arbitrary observables — the
// instrument behind Section 5's working-regime identification.  Fig. 6 shows
// two aggregate windows; the recorder generalises that to a full timeline
// (e.g. FIFO-full fraction and delivered bandwidth per 100 us window) so a
// designer can *find* the regime boundaries instead of assuming them.
//
//   stats::TimelineRecorder tl(clk, "tl", 25'000 /*cycles per window*/);
//   tl.addSeries("fifo_occupancy", [&] { return fifo.registeredSize(); });
//   tl.addSeries("retired", [&] { return master.retired(); }, /*delta=*/true);
//   ... run ...
//   tl.table().print(std::cout);
//
// A series samples its observable every cycle and reports the window mean;
// `delta` series report the increase over the window (rates).

#include <functional>
#include <string>
#include <vector>

#include "sim/component.hpp"
#include "sim/simulator.hpp"
#include "stats/report.hpp"

namespace mpsoc::stats {

class TimelineRecorder final : public sim::Component {
 public:
  TimelineRecorder(sim::ClockDomain& clk, std::string name,
                   sim::Cycle window_cycles)
      : sim::Component(clk, std::move(name)),
        window_(window_cycles ? window_cycles : 1) {}

  /// Register an observable.  `delta`: report the per-window increase of a
  /// monotone counter instead of the mean of a level.
  void addSeries(std::string label, std::function<double()> fn,
                 bool delta = false) {
    series_.push_back({std::move(label), std::move(fn), delta, 0.0, 0.0});
  }

  void evaluate() override {
    for (auto& s : series_) {
      const double v = s.fn();
      if (!s.delta) s.accum += v;
    }
    if (now() % window_ == 0) closeWindow();
  }
  bool idle() const override { return true; }

  /// Number of completed windows.
  std::size_t windows() const { return rows_.size(); }
  /// Value of series `s` in window `w`.
  double value(std::size_t w, std::size_t s) const { return rows_[w][s]; }

  /// Render the whole timeline (one row per window).
  TextTable table(int precision = 2) const {
    TextTable t(name() + " timeline");
    std::vector<std::string> header{"t_end (us)"};
    for (const auto& s : series_) header.push_back(s.label);
    t.setHeader(std::move(header));
    for (std::size_t w = 0; w < rows_.size(); ++w) {
      std::vector<std::string> row{fmt(times_us_[w], 1)};
      for (double v : rows_[w]) row.push_back(fmt(v, precision));
      t.addRow(std::move(row));
    }
    return t;
  }

 private:
  struct Series {
    std::string label;
    std::function<double()> fn;
    bool delta;
    double accum;
    double last;
  };

  void closeWindow() {
    std::vector<double> row;
    row.reserve(series_.size());
    for (auto& s : series_) {
      if (s.delta) {
        const double v = s.fn();
        row.push_back(v - s.last);
        s.last = v;
      } else {
        row.push_back(s.accum / static_cast<double>(window_));
        s.accum = 0.0;
      }
    }
    rows_.push_back(std::move(row));
    times_us_.push_back(static_cast<double>(clk_.simulator().now()) / 1e6);
  }

  sim::Cycle window_;
  std::vector<Series> series_;
  std::vector<std::vector<double>> rows_;
  std::vector<double> times_us_;

  SIM_STATE_NONE();
  SIM_STATE_EXEMPT(window_, "immutable configuration");
  SIM_STATE_EXEMPT(series_, "observer callbacks (trace-only accumulators)");
  SIM_STATE_EXEMPT(rows_, "append-only trace sink");
  SIM_STATE_EXEMPT(times_us_, "append-only trace sink");
};

}  // namespace mpsoc::stats
