#pragma once
// Shared helpers for the experiment harnesses: one binary per paper
// figure/table, each printing the rows/series the paper reports plus a CSV
// block for plotting.
//
// Every harness accepts:
//   --out <path>   write the report there instead of stdout (no more
//                  redirect-into-the-repo-root workflows)
//   -j N           fan independent simulation points across N worker threads
//                  (0 = one per hardware thread).  Results are byte-identical
//                  at every -j (see core/sweep.hpp).

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "stats/report.hpp"

namespace mpsoc::benchx {

class BenchOptions {
 public:
  /// Parse `--out <path>` / `-j N`; anything else is an error (exit 2).
  static BenchOptions parse(int argc, char** argv) {
    BenchOptions o;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
        o.out_path_ = argv[++i];
      } else if (std::strcmp(argv[i], "-j") == 0 && i + 1 < argc) {
        // Whole-string parse, as mpsoc_run does: "abc", "-1" or "4x" is a
        // usage error, not a silent fall-back to one worker per thread.
        const char* text = argv[++i];
        const char* end = text + std::strlen(text);
        const auto [p, ec] = std::from_chars(text, end, o.jobs_);
        if (ec != std::errc() || p != end) {
          std::cerr << "error: -j expects a non-negative integer, got '"
                    << text << "'\n";
          std::exit(2);
        }
      } else {
        std::cerr << "usage: " << argv[0] << " [--out <path>] [-j N]\n";
        std::exit(2);
      }
    }
    return o;
  }

  unsigned jobs() const { return jobs_; }

  /// The report sink: stdout, or the --out file (opened lazily).
  std::ostream& out() {
    if (out_path_.empty()) return std::cout;
    if (!file_.is_open()) {
      file_.open(out_path_);
      if (!file_) {
        std::cerr << "error: cannot write " << out_path_ << "\n";
        std::exit(1);
      }
    }
    return file_;
  }

 private:
  unsigned jobs_ = 1;
  std::string out_path_;
  std::ofstream file_;
};

/// Run a list of platform sweep points across the worker pool; aborts the
/// harness (exit 1) on the first simulation failure.  Results come back in
/// point order regardless of -j.
inline std::vector<core::ScenarioResult> runSweep(
    const std::vector<core::SweepPoint>& points, const BenchOptions& opts) {
  core::SweepOptions so;
  so.jobs = opts.jobs();
  const core::SweepOutcome sweep = core::SweepRunner(so).run(points);
  if (const core::PointResult* fail = sweep.firstFailure()) {
    std::cerr << "simulation failure in " << fail->label << ":\n"
              << fail->error << "\n";
    std::exit(1);
  }
  std::vector<core::ScenarioResult> rs;
  rs.reserve(sweep.points.size());
  for (const auto& p : sweep.points) rs.push_back(p.result);
  return rs;
}

inline void printScenarioTable(std::ostream& os, const std::string& title,
                               const std::vector<core::ScenarioResult>& rs,
                               std::size_t normalize_to = 0) {
  stats::TextTable t(title);
  t.setHeader({"instance", "exec (us)", "normalized", "bandwidth (MB/s)",
               "read lat (ns)", "retired", "done"});
  const double ref =
      rs.empty() ? 1.0
                 : static_cast<double>(rs[normalize_to].exec_ps);
  for (const auto& r : rs) {
    t.addRow({r.label, stats::fmt(static_cast<double>(r.exec_ps) / 1e6, 2),
              stats::fmt(static_cast<double>(r.exec_ps) / ref, 3),
              stats::fmt(r.bandwidth_mb_s, 1),
              stats::fmt(r.mean_read_latency_ns, 1),
              std::to_string(r.retired), r.completed ? "yes" : "NO"});
  }
  t.print(os);
  os << "\ncsv:\n";
  t.printCsv(os);
  os << "\n";
}

}  // namespace mpsoc::benchx
