#pragma once
// Out-of-model tracing for the benchmark: spans recorded around calls into
// the library, and a per-edge recorder that drives a Simulator through its
// public stop-callback hook.  Nothing here reaches inside a model; every
// number is taken at a layer boundary the library already exposes.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace mpsocbench {

namespace sim = mpsoc::sim;
using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One timed interval.  Spans of one benchmark process share `run_id`;
/// `parent` is 0 for a root span.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Thread-safe in-memory span store.  Spans stay in memory until write().
class SpanRecorder {
 public:
  explicit SpanRecorder(std::string run_id);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Open a span; returns its id.  close() must be called with that id.
  std::uint32_t open(const std::string& name, std::uint32_t parent = 0);
  void close(std::uint32_t id);

  /// Nanoseconds since the recorder was created.
  std::int64_t nowNs() const;

  const std::string& runId() const { return run_id_; }
  std::vector<Span> spans() const;

  /// Self time per span name: each span's duration minus the part of its
  /// interval covered by its children, summed over spans of that name.
  /// Values in milliseconds; also returns the span count per name.
  struct SelfTime {
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::uint64_t count = 0;
  };
  /// `extra_child_ns` adds covered time from children kept outside the
  /// recorder (the per-edge records of an EdgeTracer), keyed by parent id.
  std::map<std::string, SelfTime> selfTimes(
      const std::map<std::uint32_t, std::int64_t>& extra_child_ns = {}) const;

  /// Write every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  std::string run_id_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name,
             std::uint32_t parent = 0)
      : rec_(rec), id_(rec ? rec->open(name, parent) : 0) {}
  ~ScopedSpan() {
    if (rec_) rec_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  std::uint32_t id_;
};

/// One simulator edge instant as seen from outside the kernel.
struct EdgeRecord {
  std::int64_t start_ns = 0;  ///< recorder clock
  std::uint32_t dur_ns = 0;
  std::uint16_t awake = 0;    ///< components awake when the edge began
  std::uint8_t domains = 0;   ///< bit i set: domains()[i] ticked
};

/// Drives `sim` edge by edge through Simulator::run(t, stop) and records one
/// EdgeRecord per executed edge.  The stop callback runs between edges, so
/// an edge's duration is the interval between two callbacks minus the
/// recorder's own bookkeeping.
class EdgeTracer {
 public:
  EdgeTracer(sim::Simulator& sim, const SpanRecorder& clock);

  /// Run to `until` (absolute).  With `to_idle`, stop after the same
  /// 8-edge all-idle quiesce streak Simulator::runUntilIdle uses.
  void run(sim::Picos until, bool to_idle);

  const std::vector<EdgeRecord>& edges() const { return edges_; }

  struct Summary {
    std::uint64_t edges = 0;
    double step_ns_p50 = 0.0;
    double step_ns_p99 = 0.0;
    double coincident_frac = 0.0;
    double awake_frac = 0.0;
    /// Host ns an edge of each domain costs, by domain name: the median of
    /// its solo edges, or, for a domain that never ticks alone, the median
    /// of its most frequent tick set less that of the same set without it.
    /// Both are medians of edges seen from outside the kernel.
    std::map<std::string, double> domain_ns;
  };
  Summary summarize() const;

  /// Write the edges as CSV (one line per edge, parent = `parent_span`).
  void write(const std::string& path, std::uint32_t parent_span) const;

 private:
  sim::Simulator& sim_;
  const SpanRecorder& clock_;
  std::vector<EdgeRecord> edges_;
  std::vector<std::string> domain_names_;
};

/// Percentile (0..1) of `v` by nearest rank; `v` is reordered.
double percentile(std::vector<double>& v, double q);

}  // namespace mpsocbench
