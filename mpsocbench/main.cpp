// mpsoc_bench: the benchmark binary.  Runs one named workload through the
// public platform/sim/core API and prints one JSON object on stdout.
//
//   mpsoc_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               --scenarios <dir> --pins <file> [--out-dir <dir>]
//   mpsoc_bench --workload <name> --seed <n> --scenarios <dir>
//               --print-digests
//
// --trace 0 times the workload (end-to-end metrics); --trace 1 makes the
// separate traced run that yields the per-layer metrics.  Every run's
// canonical digest is checked against --pins when the pin file has one for
// the workload and seed, and otherwise against the first run of the same
// process.  --print-digests prints the digests in pin-file form.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/digest.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "platform/platform.hpp"
#include "platform/scenario_parser.hpp"
#include "calibrate.hpp"
#include "platform/validate.hpp"
#include "trace.hpp"

namespace mpsocbench {
namespace {

namespace core = mpsoc::core;
namespace platform = mpsoc::platform;

// Run-to-completion bound; the same default Platform::run uses.
constexpr sim::Picos kMaxPs = 50'000'000'000ull;
// Constructions timed for setup_s before each timed run, so the set-up
// samples are spread over the same window as the runs.
constexpr int kSetupRepsPerRun = 20;
// Constructions recorded as spans in the traced run.
constexpr int kTracedSetupReps = 25;
// Checkpoint/restore/digest repetitions at the handoff instant.
constexpr int kCheckpointReps = 7;
// Fast-forward warm-up repetitions (one warm-up is a few ms).
constexpr int kFfReps = 5;
// Worker threads of every sweep, including dse_sweep's.
constexpr unsigned kSweepJobs = 2;
// Copies of a single-run workload's point in its traced sweep.
constexpr std::size_t kCopies = 2;

struct Workload {
  const char* name;
  const char* scenario;  ///< file under --scenarios
  bool sweep;            ///< dse_sweep: eight points through SweepRunner
};

// Why each workload exists is recorded in README.md beside this file.
constexpr Workload kWorkloads[] = {
    {"stbus_onchip", "stbus_onchip.scn", false},
    {"axi_lmi_record", "axi_lmi_record.scn", false},
    {"noc_mesh", "noc_mesh.scn", false},
    {"dse_sweep", "dse_sweep.scn", true},
};

// dse_sweep dimensions.  All three are restore-safe (they change timing
// inside the memory subsystem, not the component graph).
constexpr unsigned kLookahead[] = {4, 1};
constexpr unsigned kCas[] = {3, 2};
constexpr std::size_t kFifoDepth[] = {8, 4};

// Clock domains the platforms can create; one per-domain metric each.
constexpr const char* kDomains[] = {"n8", "N1", "N2", "N5", "st220"};

// Per-layer metric names and units, in print order.  run.py checks these
// against BENCHMARK.json.
const std::vector<std::pair<std::string, std::string>>& perLayerNames() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"platform.parse_ms", "ms"},
        {"platform.build_ms", "ms"},
        {"platform.components", "count"},
        {"platform.domains", "count"},
        {"sim.edges", "count"},
        {"sim.medges_per_s", "Medges/s"},
        {"sim.step_ns.p50", "ns"},
        {"sim.step_ns.p99", "ns"},
    };
    for (const char* d : kDomains) {
      v.emplace_back(std::string("sim.domain.") + d + ".ns_per_edge", "ns");
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"sim.coincident_frac", "ratio"},
        {"sim.awake_frac", "ratio"},
        {"sim.checkpoint_ms", "ms"},
        {"sim.restore_ms", "ms"},
        {"sim.state_digest_ms", "ms"},
        {"fastforward.warmup_ms", "ms"},
        {"fastforward.accurate_warmup_ms", "ms"},
        {"fastforward.speedup", "x"},
        {"fastforward.quanta", "count"},
        {"fastforward.lt_transactions", "count"},
        {"sweep.point_ms.p50", "ms"},
        {"sweep.point_inflation", "x"},
        {"sweep.parallel_eff", "ratio"},
        {"iptg.retired", "count"},
        {"iptg.read_lat_ns.mean", "ns"},
        {"iptg.read_lat_ns.p95", "ns"},
        {"bridge.reads_fwd", "count"},
        {"bridge.writes_fwd", "count"},
        {"mem.lmi.served", "count"},
        {"mem.lmi.merge_ratio", "ratio"},
        {"mem.sdram.row_hit_rate", "ratio"},
        {"mem.sdram.row_conflicts", "count"},
        {"mem.sdram.refreshes", "count"},
        {"mem.fifo.frac_full", "ratio"},
        {"mem.onchip.accesses", "count"},
        {"cpu.cpi", "ratio"},
        {"cpu.stall_cycles", "count"},
        {"noc.packets_routed", "count"},
        {"noc.total_hops", "count"},
        {"noc.ns_per_packet", "ns"},
        {"mem.ns_per_lmi_request", "ns"},
        {"trace.overhead_pct", "%"},
    };
    v.insert(v.end(), rest.begin(), rest.end());
    return v;
  }();
  return names;
}

const std::vector<std::pair<std::string, std::string>>& endToEndNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"run_s", "s"}, {"setup_s", "s"}, {"ff_error_pct", "%"}};
  return names;
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

std::string readFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// --- digests and failure accounting -----------------------------------------

/// Pinned digests: lines of "<workload> <seed> <label> <digest>".
using Pins = std::map<std::string, std::string>;  // "wl seed label" -> digest

Pins loadPins(const std::string& path) {
  Pins pins;
  if (path.empty()) return pins;
  std::istringstream in(readFile(path));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string wl, seed, label, digest;
    if (!(ls >> wl >> seed >> label >> digest)) {
      throw std::runtime_error("malformed pin line: " + line);
    }
    pins[wl + " " + seed + " " + label] = digest;
  }
  return pins;
}

/// Counts attempted and failed runs.  A run fails when it throws or when a
/// digest it produced differs from the pin for (workload, seed, label) or,
/// with no pin, from the first digest this process saw under that label.
class Checker {
 public:
  Checker(const Pins& pins, std::string workload, std::uint64_t seed)
      : pins_(pins), prefix_(workload + " " + std::to_string(seed) + " ") {}

  /// Begin one run.
  void attempt() {
    ++attempted_;
    run_failed_ = false;
  }
  /// Record a digest of the current run; false on mismatch.
  bool digest(const std::string& label, const std::string& value) {
    std::string want = seen_.emplace(label, value).first->second;
    if (auto it = pins_.find(prefix_ + label); it != pins_.end()) {
      want = it->second;
    }
    if (value == want) return true;
    fail(label + " digest " + value + " != expected " + want);
    return false;
  }
  void fail(const std::string& why) {
    if (!run_failed_) ++failed_;
    run_failed_ = true;
    if (errors_.size() < 20) errors_.push_back(why);
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }
  const std::map<std::string, std::string>& seen() const { return seen_; }

 private:
  const Pins& pins_;
  std::string prefix_;
  std::map<std::string, std::string> seen_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool run_failed_ = false;
  std::vector<std::string> errors_;
};

// --- workload construction --------------------------------------------------

struct Inputs {
  const Workload* wl = nullptr;
  std::string text;  ///< scenario file contents
  std::uint64_t seed = 1;
};

/// The sweep points of a workload.  A single-run workload is one accurate
/// point; its scenario's ff_until_ps only marks the fast-forward instant
/// used for ff_error_pct and the fastforward.* metrics.
std::vector<core::SweepPoint> workloadPoints(const Inputs& in,
                                             const platform::NamedScenario& sc) {
  platform::PlatformConfig base = sc.config;
  base.seed = in.seed;
  if (!in.wl->sweep) {
    base.ff_until_ps = 0;
    return {{in.wl->name, base, sc.duration_ps}};
  }
  std::vector<core::SweepPoint> pts;
  for (unsigned la : kLookahead) {
    for (unsigned cas : kCas) {
      for (std::size_t depth : kFifoDepth) {
        platform::PlatformConfig c = base;
        c.lmi.lookahead = la;
        c.lmi.timing.cas_latency = cas;
        c.mem_fifo_depth = depth;
        pts.push_back({"la" + std::to_string(la) + "-cas" +
                           std::to_string(cas) + "-fifo" +
                           std::to_string(depth),
                       c, sc.duration_ps});
      }
    }
  }
  return pts;
}

/// The accurate (no fast-forward) configuration the traced run, the
/// checkpoint timings and the ff_error_pct reference use: the workload's
/// own point, or dse_sweep's point 0 without its fast-forward.
core::SweepPoint primaryPoint(const Inputs& in,
                              const platform::NamedScenario& sc) {
  core::SweepPoint p = workloadPoints(in, sc).front();
  p.config.ff_until_ps = 0;
  return p;
}

sim::Picos ffInstant(const platform::NamedScenario& sc) {
  if (sc.config.ff_until_ps == 0) {
    throw std::runtime_error("scenario has no ff_until_ps");
  }
  return sc.config.ff_until_ps;
}

core::ScenarioResult runPoint(const core::SweepPoint& p) {
  return p.duration_ps ? core::runScenarioFor(p.config, p.label, p.duration_ps)
                       : core::runScenario(p.config, p.label);
}

/// Run a platform built from `p` the way runPoint does, keeping the
/// platform so its simulator state can be digested.
void runToEnd(platform::Platform& plat, const core::SweepPoint& p) {
  if (p.duration_ps) {
    plat.runFor(p.duration_ps);
  } else {
    plat.run();
  }
}

/// Scenario parse + validateConfig + Platform construction for one platform
/// of the workload (dse_sweep: point 0).  Spans go to `rec` when given.
std::unique_ptr<platform::Platform> setUp(const Inputs& in,
                                          SpanRecorder* rec = nullptr,
                                          std::uint32_t parent = 0) {
  platform::NamedScenario sc;
  {
    ScopedSpan s(rec, "platform.parse", parent);
    sc = platform::parseScenario(in.text);
  }
  core::SweepPoint p = workloadPoints(in, sc).front();
  {
    ScopedSpan s(rec, "platform.validate", parent);
    const std::string why = platform::validateConfig(p.config, p.duration_ps);
    if (!why.empty()) throw std::runtime_error("invalid workload: " + why);
  }
  ScopedSpan s(rec, "platform.build", parent);
  return std::make_unique<platform::Platform>(p.config);
}

/// Accurate-counter totals over every master (the fold Platform::totals
/// performs), kept as sums so windows can be differenced.
struct Counters {
  double bytes = 0.0;
  double lat_sum = 0.0;
  double lat_n = 0.0;
};

Counters counters(const platform::Platform& p) {
  Counters c;
  auto fold = [&](const mpsoc::txn::MasterBase& m) {
    c.bytes += static_cast<double>(m.bytesRead() + m.bytesWritten());
    c.lat_sum += m.latency().latencyNs().sum();
    c.lat_n += static_cast<double>(m.latency().latencyNs().count());
  };
  for (const auto& g : p.traffic()) fold(*g);
  if (p.dsp()) fold(*p.dsp());
  if (p.dmaEngine()) fold(*p.dmaEngine());
  return c;
}

/// ff_error_pct: the primary point run fully accurately and with its
/// warm-up fast-forwarded to the scenario's ff_until_ps, compared over the
/// same accurate tail window [ff_until_ps, end).  The larger of the tail
/// bandwidth and tail mean read latency errors, in percent.
double ffErrorPct(const Inputs& in, const platform::NamedScenario& sc,
                  Checker& chk) {
  const core::SweepPoint acc = primaryPoint(in, sc);
  const sim::Picos t_ff = ffInstant(sc);

  chk.attempt();
  platform::Platform a(acc.config);
  a.simulator().run(t_ff);
  const Counters c0 = counters(a);
  const sim::Picos end = acc.duration_ps ? a.simulator().run(acc.duration_ps)
                                         : a.simulator().runUntilIdle(kMaxPs);
  a.simulator().finish();
  const Counters c1 = counters(a);

  chk.attempt();
  core::SweepPoint ff = acc;
  ff.config.ff_until_ps = t_ff;
  const core::ScenarioResult r = runPoint(ff);
  chk.digest("ff", core::digestHex(r));

  if (end <= t_ff || r.exec_ps <= t_ff || c1.lat_n <= c0.lat_n ||
      r.bytes_total == 0) {
    throw std::runtime_error("fast-forward tail window is empty");
  }
  const double bw_acc = (c1.bytes - c0.bytes) / static_cast<double>(end - t_ff);
  const double lat_acc = (c1.lat_sum - c0.lat_sum) / (c1.lat_n - c0.lat_n);
  const double bw_ff = static_cast<double>(r.bytes_total) /
                       static_cast<double>(r.exec_ps - t_ff);
  const double lat_ff = r.mean_read_latency_ns;
  return 100.0 * std::max(std::abs(bw_ff - bw_acc) / bw_acc,
                          std::abs(lat_ff - lat_acc) / lat_acc);
}

/// One timed run of the workload: the single point, or the whole sweep at
/// kSweepJobs.  Returns host seconds; checks every canonical digest.
double timedRun(const std::vector<core::SweepPoint>& pts, bool sweep,
                Checker& chk) {
  chk.attempt();
  if (!sweep) {
    const Clock::time_point t0 = Clock::now();
    const core::ScenarioResult r = runPoint(pts.front());
    const double s = secondsSince(t0);
    chk.digest("run", core::digestHex(r));
    return s;
  }
  core::SweepOptions so;
  so.jobs = kSweepJobs;
  so.stop_on_failure = false;
  const Clock::time_point t0 = Clock::now();
  const core::SweepOutcome out = core::SweepRunner(so).run(pts);
  const double s = secondsSince(t0);
  for (std::size_t i = 0; i < out.points.size(); ++i) {
    const core::PointResult& pr = out.points[i];
    if (pr.status != core::PointStatus::Ok) {
      chk.fail(pr.label + ": " + pr.error);
      continue;
    }
    chk.digest("p" + std::to_string(i), core::digestHex(pr.result));
  }
  return s;
}

// --- output -----------------------------------------------------------------

struct Report {
  std::map<std::string, double> metrics;
  std::map<std::string, SpanRecorder::SelfTime> self_time;
  std::map<std::string, double> info;  ///< extra context, not metrics
};

std::string buildInfoJson() {
  std::ostringstream o;
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  o << "{\"type\":\"" << MPSOC_BENCH_BUILD_TYPE << "\",\"optimized\":"
    << (optimized ? "true" : "false") << ",\"compiler\":\""
    << jsonEscape(MPSOC_BENCH_COMPILER) << "\",\"MPSOC_VERIFY\":"
    << MPSOC_VERIFY << ",\"MPSOC_STATECHECK\":" << MPSOC_STATECHECK
    << ",\"MPSOC_RACECHECK\":" << MPSOC_RACECHECK << "}";
  return o.str();
}

void printJson(const Inputs& in, int trace, const Checker& chk,
               const Report& rep,
               const std::vector<std::pair<std::string, std::string>>& names) {
  std::ostringstream o;
  o.precision(10);
  o << "{\"workload\":\"" << in.wl->name << "\",\"seed\":" << in.seed
    << ",\"trace\":" << trace << ",\"attempted\":" << chk.attempted()
    << ",\"failed\":" << chk.failed() << ",\"errors\":[";
  for (std::size_t i = 0; i < chk.errors().size(); ++i) {
    o << (i ? "," : "") << "\"" << jsonEscape(chk.errors()[i]) << "\"";
  }
  o << "],\"build\":" << buildInfoJson() << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, unit] : names) {
    auto it = rep.metrics.find(name);
    const double v = it == rep.metrics.end() ? 0.0 : it->second;
    o << (first ? "" : ",") << "\"" << name << "\":{\"value\":" << v
      << ",\"unit\":\"" << unit << "\"}";
    first = false;
  }
  o << "},\"digests\":{";
  first = true;
  for (const auto& [label, d] : chk.seen()) {
    o << (first ? "" : ",") << "\"" << label << "\":\"" << d << "\"";
    first = false;
  }
  o << "},\"self_time_ms\":{";
  first = true;
  for (const auto& [name, st] : rep.self_time) {
    o << (first ? "" : ",") << "\"" << name << "\":{\"total\":" << st.total_ms
      << ",\"self\":" << st.self_ms << ",\"count\":" << st.count << "}";
    first = false;
  }
  o << "},\"info\":{";
  first = true;
  for (const auto& [name, v] : rep.info) {
    o << (first ? "" : ",") << "\"" << name << "\":" << v;
    first = false;
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

// --- the timed run (--trace 0) ----------------------------------------------

Report timedMode(const Inputs& in, double seconds, Checker& chk) {
  Report rep;
  const platform::NamedScenario sc = platform::parseScenario(in.text);
  const std::vector<core::SweepPoint> pts = workloadPoints(in, sc);

  // The accuracy reference also warms caches and the allocator before the
  // timed runs start.
  rep.metrics["ff_error_pct"] = ffErrorPct(in, sc, chk);

  std::vector<double> runs, setup, calib;
  const std::uint64_t calib_sum = calibrationPass().checksum;
  const Clock::time_point start = Clock::now();
  while (runs.size() < 3 || secondsSince(start) < seconds) {
    for (int i = 0; i < kSetupRepsPerRun; ++i) {
      const Clock::time_point t0 = Clock::now();
      std::unique_ptr<platform::Platform> p = setUp(in);
      setup.push_back(secondsSince(t0));
    }
    runs.push_back(timedRun(pts, in.wl->sweep, chk));
    const CalibrationPass pass = calibrationPass();
    if (pass.checksum != calib_sum) {
      throw std::runtime_error("calibration kernel checksum changed");
    }
    calib.push_back(pass.seconds);
  }
  // Every repetition does the same simulated work (same seed, digest
  // checked), and contention on the shared host only ever adds time: it
  // comes in stretches of seconds in which a repetition runs about 1.6x
  // slower, so the median of a run flips with the share of slow stretches
  // in it.  The fastest repetition is the estimate of the program's own
  // cost.  The host's best speed also drifts over minutes; the fastest
  // calibration pass of the same run drifts with it, and scaling by it
  // reports both at the reference host speed (calibrate.hpp).
  const double fastest_calib = *std::min_element(calib.begin(), calib.end());
  const double scale = kCalibrationRefSeconds / fastest_calib;
  const double fastest_setup = *std::min_element(setup.begin(), setup.end());
  const double fastest_run = *std::min_element(runs.begin(), runs.end());
  rep.metrics["setup_s"] = fastest_setup * scale;
  rep.metrics["run_s"] = fastest_run * scale;
  rep.info["reps"] = static_cast<double>(runs.size());
  rep.info["host_speed_scale"] = scale;
  rep.info["calib_s.min"] = fastest_calib;
  rep.info["calib_s.median"] = median(calib);
  rep.info["setup_s.raw_min"] = fastest_setup;
  rep.info["setup_s.raw_median"] = median(setup);
  rep.info["run_s.raw_min"] = fastest_run;
  rep.info["run_s.raw_median"] = median(runs);
  rep.info["run_s.raw_max"] = *std::max_element(runs.begin(), runs.end());
  return rep;
}

// --- the traced run (--trace 1) ---------------------------------------------

void harvestCounts(const platform::Platform& p, Report& rep) {
  auto& m = rep.metrics;
  double retired = 0, lat_sum = 0, lat_n = 0;
  mpsoc::stats::Histogram lat(0.0, mpsoc::stats::LatencyProbe::kMaxNs,
                              mpsoc::stats::LatencyProbe::kBins);
  for (const auto& g : p.traffic()) {
    retired += static_cast<double>(g->retired());
    lat_sum += g->latency().latencyNs().sum();
    lat_n += static_cast<double>(g->latency().latencyNs().count());
    lat.merge(g->latency().histogramNs());
  }
  m["iptg.retired"] = retired;
  m["iptg.read_lat_ns.mean"] = lat_n > 0 ? lat_sum / lat_n : 0.0;
  m["iptg.read_lat_ns.p95"] = lat.quantile(0.95);
  double rd = 0, wr = 0;
  for (const auto& b : p.bridges()) {
    rd += static_cast<double>(b->readsForwarded());
    wr += static_cast<double>(b->writesForwarded());
  }
  m["bridge.reads_fwd"] = rd;
  m["bridge.writes_fwd"] = wr;
  if (const auto* lmi = p.lmi()) {
    m["mem.lmi.served"] = static_cast<double>(lmi->requestsServed());
    m["mem.lmi.merge_ratio"] = lmi->mergeRatio();
    m["mem.sdram.row_hit_rate"] = lmi->device().rowHitRate();
    m["mem.sdram.row_conflicts"] =
        static_cast<double>(lmi->device().rowConflicts());
    m["mem.sdram.refreshes"] = static_cast<double>(lmi->device().refreshes());
  }
  m["mem.fifo.frac_full"] = p.memFifo().total().fracFull();
  if (const auto* on = p.onchipMemory()) {
    m["mem.onchip.accesses"] = static_cast<double>(on->accessesServed());
  }
  if (const auto* cpu = p.dsp()) {
    m["cpu.cpi"] = cpu->cpi();
    m["cpu.stall_cycles"] = static_cast<double>(cpu->stallCycles());
  }
  if (const auto* mesh = p.nocMesh()) {
    double carried = retired;
    if (p.dsp()) carried += static_cast<double>(p.dsp()->retired());
    if (p.dmaEngine()) carried += static_cast<double>(p.dmaEngine()->retired());
    m["noc.packets_routed"] = carried;
    m["noc.total_hops"] = static_cast<double>(mesh->totalHops());
  }
}

/// Per-point wall times of one sweep, with a span per point.
struct SweepTiming {
  std::vector<double> point_ms;
  double wall_ms = 0.0;
};

SweepTiming tracedSweep(const std::vector<core::SweepPoint>& pts, bool sweep,
                        unsigned jobs, const std::string& tag,
                        SpanRecorder& rec, Checker& chk) {
  const std::uint32_t parent = rec.open("sweep." + tag);
  std::vector<std::string> labels;
  for (const auto& p : pts) labels.push_back(p.label);
  core::SweepOptions so;
  so.jobs = jobs;
  so.stop_on_failure = false;
  const core::SweepOutcome out = core::SweepRunner(so).runJobs(
      labels, [&](std::size_t i) {
        ScopedSpan s(&rec, "sweep.point", parent);
        return runPoint(pts[i]);
      });
  rec.close(parent);
  SweepTiming t;
  t.wall_ms = out.wall_ms;
  for (std::size_t i = 0; i < out.points.size(); ++i) {
    const core::PointResult& pr = out.points[i];
    chk.attempt();
    t.point_ms.push_back(pr.wall_ms);
    if (pr.status != core::PointStatus::Ok) {
      chk.fail(pr.label + ": " + pr.error);
      continue;
    }
    // A single-run workload's copies all carry its "run" digest.
    chk.digest(sweep ? "p" + std::to_string(i) : "run",
               core::digestHex(pr.result));
  }
  return t;
}

Report tracedMode(const Inputs& in, Checker& chk, SpanRecorder& rec,
                  const std::string& out_dir) {
  Report rep;
  auto& m = rep.metrics;
  const platform::NamedScenario sc = platform::parseScenario(in.text);
  const core::SweepPoint primary = primaryPoint(in, sc);
  const bool bounded = primary.duration_ps != 0;
  const sim::Picos end = bounded ? primary.duration_ps : kMaxPs;
  const sim::Picos t_ff = ffInstant(sc);

  // Set-up, span by span.
  {
    std::vector<double> parse_ms, build_ms;
    const std::uint32_t root = rec.open("setup");
    for (int i = 0; i < kTracedSetupReps; ++i) {
      std::unique_ptr<platform::Platform> p = setUp(in, &rec, root);
      if (i == 0) {
        m["platform.components"] =
            static_cast<double>(p->simulator().totalComponents());
        m["platform.domains"] =
            static_cast<double>(p->simulator().domains().size());
      }
    }
    rec.close(root);
    for (const Span& s : rec.spans()) {
      const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      if (s.name == "platform.parse") parse_ms.push_back(ms);
      if (s.name == "platform.build") build_ms.push_back(ms);
    }
    m["platform.parse_ms"] = median(parse_ms);
    m["platform.build_ms"] = median(build_ms);
  }

  // Untraced reference runs of the primary point, one on each side of the
  // traced run: their mean wall time is the base of trace.overhead_pct and
  // their state digest must equal the traced run's.
  auto untracedRun = [&](platform::Platform& u) {
    chk.attempt();
    const Clock::time_point t0 = Clock::now();
    runToEnd(u, primary);
    const double s = secondsSince(t0);
    chk.digest("state", hex64(u.simulator().stateDigest()));
    return s;
  };
  double untraced_s = 0.0;
  std::uint64_t untraced_digest = 0;
  {
    platform::Platform u(primary.config);
    untraced_s = untracedRun(u);
    untraced_digest = u.simulator().stateDigest();
    m["sim.medges_per_s"] =
        static_cast<double>(u.simulator().edgesExecuted()) / untraced_s / 1e6;
    harvestCounts(u, rep);
    const double run_ns = untraced_s * 1e9;
    if (m["noc.packets_routed"] > 0) {
      m["noc.ns_per_packet"] = run_ns / m["noc.packets_routed"];
    }
    if (m["mem.lmi.served"] > 0) {
      m["mem.ns_per_lmi_request"] = run_ns / m["mem.lmi.served"];
    }
  }

  // The traced run: one record per edge.
  std::map<std::uint32_t, std::int64_t> edge_cover;
  double traced_s = 0.0;
  {
    chk.attempt();
    const std::uint32_t root = rec.open("traced_run");
    std::unique_ptr<platform::Platform> p;
    {
      ScopedSpan s(&rec, "platform.build", root);
      p = std::make_unique<platform::Platform>(primary.config);
    }
    EdgeTracer tracer(p->simulator(), rec);
    const std::uint32_t run_span = rec.open("sim.run", root);
    const Clock::time_point t0 = Clock::now();
    tracer.run(end, !bounded);
    traced_s = secondsSince(t0);
    rec.close(run_span);
    {
      ScopedSpan s(&rec, "sim.finish", root);
      p->simulator().finish();
    }
    std::uint64_t traced_digest = 0;
    {
      ScopedSpan s(&rec, "sim.state_digest", root);
      traced_digest = p->simulator().stateDigest();
    }
    rec.close(root);
    if (traced_digest != untraced_digest) {
      chk.fail("traced state digest " + hex64(traced_digest) +
               " != untraced " + hex64(untraced_digest));
    }
    const EdgeTracer::Summary es = tracer.summarize();
    m["sim.edges"] = static_cast<double>(es.edges);
    m["sim.step_ns.p50"] = es.step_ns_p50;
    m["sim.step_ns.p99"] = es.step_ns_p99;
    m["sim.coincident_frac"] = es.coincident_frac;
    m["sim.awake_frac"] = es.awake_frac;
    for (const auto& [name, ns] : es.domain_ns) {
      m["sim.domain." + name + ".ns_per_edge"] = ns;
    }
    std::int64_t covered = 0;
    for (const EdgeRecord& e : tracer.edges()) covered += e.dur_ns;
    edge_cover[run_span] = covered;
    rep.self_time["sim.edge"] = {static_cast<double>(covered) / 1e6,
                                 static_cast<double>(covered) / 1e6,
                                 es.edges};
    if (!out_dir.empty()) tracer.write(out_dir + "/edges.csv", run_span);
  }
  {
    platform::Platform u(primary.config);
    untraced_s = (untraced_s + untracedRun(u)) / 2;
  }

  // Accurate warm-up to the handoff instant, then checkpoint / restore /
  // stateDigest at that instant.
  {
    chk.attempt();
    const std::uint32_t root = rec.open("handoff");
    platform::Platform a(primary.config);
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan s(&rec, "fastforward.accurate_warmup", root);
      a.simulator().run(t_ff);
    }
    m["fastforward.accurate_warmup_ms"] = secondsSince(t0) * 1e3;
    std::vector<double> ck, rs, dg;
    std::uint64_t first = 0;
    for (int i = 0; i < kCheckpointReps; ++i) {
      Clock::time_point t = Clock::now();
      {
        ScopedSpan s(&rec, "sim.checkpoint", root);
        a.simulator().checkpoint();
      }
      ck.push_back(secondsSince(t) * 1e3);
      t = Clock::now();
      {
        ScopedSpan s(&rec, "sim.restore", root);
        a.simulator().restoreCheckpoint();
      }
      rs.push_back(secondsSince(t) * 1e3);
      t = Clock::now();
      std::uint64_t d = 0;
      {
        ScopedSpan s(&rec, "sim.state_digest", root);
        d = a.simulator().stateDigest();
      }
      dg.push_back(secondsSince(t) * 1e3);
      if (i == 0) first = d;
      if (d != first) chk.fail("state digest moved across checkpoint/restore");
    }
    rec.close(root);
    m["sim.checkpoint_ms"] = median(ck);
    m["sim.restore_ms"] = median(rs);
    m["sim.state_digest_ms"] = median(dg);
  }

  // Fast-forward warm-up to the same instant (Platform::run stops there:
  // the fast-forward lands exactly on the bound).
  {
    std::vector<double> ms;
    for (int i = 0; i < kFfReps; ++i) {
      chk.attempt();
      platform::PlatformConfig c = primary.config;
      c.ff_until_ps = t_ff;
      platform::Platform f(c);
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan s(&rec, "fastforward.warmup");
        f.run(t_ff);
      }
      ms.push_back(secondsSince(t0) * 1e3);
      if (const sim::FastForwardStats* st = f.ffStats()) {
        m["fastforward.quanta"] = static_cast<double>(st->quanta);
        m["fastforward.lt_transactions"] =
            static_cast<double>(st->lt_transactions);
      } else {
        chk.fail("fast-forward warm-up did not run");
      }
    }
    m["fastforward.warmup_ms"] = median(ms);
    m["fastforward.speedup"] =
        m["fastforward.accurate_warmup_ms"] / m["fastforward.warmup_ms"];
  }

  // Sweep: the workload's points (a single-run workload: kCopies copies of
  // its point) alone at -j 1 and together at -j kSweepJobs, in the order
  // alone, parallel, parallel, alone so slow drift of the host's speed does
  // not land on one side.  dse_sweep's run_s is the sweep wall time, so its
  // untraced sweep brackets the four.
  {
    std::vector<core::SweepPoint> pts = workloadPoints(in, sc);
    if (pts.size() == 1) pts.resize(kCopies, pts.front());
    const bool sweep = in.wl->sweep;
    std::vector<double> untraced_sweep_s;
    if (sweep) untraced_sweep_s.push_back(timedRun(pts, true, chk));
    std::vector<SweepTiming> alone, par;
    alone.push_back(tracedSweep(pts, sweep, 1, "alone", rec, chk));
    par.push_back(tracedSweep(pts, sweep, kSweepJobs, "parallel", rec, chk));
    par.push_back(tracedSweep(pts, sweep, kSweepJobs, "parallel", rec, chk));
    alone.push_back(tracedSweep(pts, sweep, 1, "alone", rec, chk));
    if (sweep) untraced_sweep_s.push_back(timedRun(pts, true, chk));

    std::vector<double> infl, par_ms;
    double busy_ms = 0.0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const double a = alone[0].point_ms[i] + alone[1].point_ms[i];
      const double b = par[0].point_ms[i] + par[1].point_ms[i];
      infl.push_back(b / a);
      par_ms.push_back(par[0].point_ms[i]);
      par_ms.push_back(par[1].point_ms[i]);
      busy_ms += b;
    }
    const double wall_ms = par[0].wall_ms + par[1].wall_ms;
    m["sweep.point_ms.p50"] = median(par_ms);
    m["sweep.point_inflation"] = median(infl);
    m["sweep.parallel_eff"] = busy_ms / (kSweepJobs * wall_ms);
    if (sweep) {
      untraced_s = (untraced_sweep_s[0] + untraced_sweep_s[1]) / 2;
      traced_s = wall_ms / 2e3;
    }
  }
  m["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0);
  rep.info["untraced_run_s"] = untraced_s;
  rep.info["traced_run_s"] = traced_s;

  rep.self_time.merge(rec.selfTimes(edge_cover));
  if (!out_dir.empty()) rec.write(out_dir + "/spans.jsonl");
  return rep;
}

// --- digests for the pin file -----------------------------------------------

void printDigests(const Inputs& in) {
  const Pins none;
  Checker chk(none, in.wl->name, in.seed);
  const platform::NamedScenario sc = platform::parseScenario(in.text);
  timedRun(workloadPoints(in, sc), in.wl->sweep, chk);
  ffErrorPct(in, sc, chk);
  const core::SweepPoint primary = primaryPoint(in, sc);
  platform::Platform u(primary.config);
  runToEnd(u, primary);
  chk.digest("state", hex64(u.simulator().stateDigest()));
  for (const auto& [label, d] : chk.seen()) {
    std::cout << in.wl->name << " " << in.seed << " " << label << " " << d
              << "\n";
  }
}

int usage() {
  std::cerr << "usage: mpsoc_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --scenarios <dir> "
               "[--pins <file>] [--out-dir <dir>] [--print-digests]\n";
  return 2;
}

int realMain(int argc, char** argv) {
  std::string workload, scen_dir, pins_path, out_dir;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool print_digests = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      workload = next();
    } else if (a == "--seed") {
      seed = std::stoull(next());
    } else if (a == "--seconds") {
      seconds = std::stod(next());
    } else if (a == "--trace") {
      trace = std::stoi(next());
    } else if (a == "--scenarios") {
      scen_dir = next();
    } else if (a == "--pins") {
      pins_path = next();
    } else if (a == "--out-dir") {
      out_dir = next();
    } else if (a == "--print-digests") {
      print_digests = true;
    } else {
      return usage();
    }
  }
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) wl = &w;
  }
  if (!wl || scen_dir.empty() || (trace != 0 && trace != 1) ||
      !(seconds > 0)) {
    return usage();
  }
  Inputs in;
  in.wl = wl;
  in.seed = seed;
  in.text = readFile(scen_dir + "/" + wl->scenario);

  if (print_digests) {
    printDigests(in);
    return 0;
  }
  const Pins pins = loadPins(pins_path);
  Checker chk(pins, wl->name, seed);
  Report rep;
  try {
    if (trace == 0) {
      rep = timedMode(in, seconds, chk);
    } else {
      if (!out_dir.empty()) std::filesystem::create_directories(out_dir);
      SpanRecorder rec(std::string(wl->name) + "-seed" + std::to_string(seed) +
                       "-pid" + std::to_string(::getpid()));
      rep = tracedMode(in, chk, rec, out_dir);
    }
  } catch (const std::exception& e) {
    if (chk.attempted() == 0) chk.attempt();
    chk.fail(std::string("exception: ") + e.what());
  }
  printJson(in, trace, chk, rep, trace == 0 ? endToEndNames() : perLayerNames());
  return 0;
}

}  // namespace
}  // namespace mpsocbench

int main(int argc, char** argv) {
  try {
    return mpsocbench::realMain(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "mpsoc_bench: " << e.what() << "\n";
    return 2;
  }
}
