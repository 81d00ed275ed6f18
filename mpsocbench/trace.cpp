#include "trace.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace mpsocbench {

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

SpanRecorder::SpanRecorder(std::string run_id)
    : run_id_(std::move(run_id)), origin_(Clock::now()) {}

std::int64_t SpanRecorder::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::uint32_t SpanRecorder::open(const std::string& name,
                                 std::uint32_t parent) {
  const std::int64_t t = nowNs();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.name = name;
  s.start_ns = t;
  s.end_ns = -1;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanRecorder::close(std::uint32_t id) {
  const std::int64_t t = nowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(id - 1).end_ns = t;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, SpanRecorder::SelfTime> SpanRecorder::selfTimes(
    const std::map<std::uint32_t, std::int64_t>& extra_child_ns) const {
  const std::vector<Span> all = spans();
  // Children of one parent may overlap (sweep points on two workers), so
  // the covered part is the union of their intervals.
  std::map<std::uint32_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      kids;
  for (const Span& s : all) {
    if (s.parent != 0 && s.end_ns >= 0) {
      kids[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, SelfTime> out;
  for (const Span& s : all) {
    if (s.end_ns < 0) continue;
    std::int64_t covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = iv.front().first, cur_hi = iv.front().second;
      for (const auto& [lo, hi] : iv) {
        if (lo > cur_hi) {
          covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      covered += cur_hi - cur_lo;
    }
    if (auto e = extra_child_ns.find(s.id); e != extra_child_ns.end()) {
      covered += e->second;
    }
    const std::int64_t dur = s.end_ns - s.start_ns;
    SelfTime& st = out[s.name];
    st.total_ms += static_cast<double>(dur) / 1e6;
    st.self_ms +=
        static_cast<double>(std::max<std::int64_t>(0, dur - covered)) / 1e6;
    ++st.count;
  }
  return out;
}

void SpanRecorder::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  for (const Span& s : spans()) {
    f << "{\"run_id\":\"" << run_id_ << "\",\"id\":" << s.id
      << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
      << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
      << "}\n";
  }
}

EdgeTracer::EdgeTracer(sim::Simulator& sim, const SpanRecorder& clock)
    : sim_(sim), clock_(clock) {
  for (const auto& d : sim_.domains()) domain_names_.push_back(d->name());
  if (domain_names_.size() > 8) {
    throw std::runtime_error("edge tracer supports at most 8 clock domains");
  }
}

void EdgeTracer::run(sim::Picos until, bool to_idle) {
  const auto& domains = sim_.domains();
  std::vector<sim::Cycle> last(domains.size());
  for (std::size_t i = 0; i < domains.size(); ++i) last[i] = domains[i]->now();

  constexpr int kQuiesceEdges = 8;  // Simulator::runUntilIdle's streak
  int idle_streak = 0;
  bool pending = false;  // an edge began at `cur` and is not recorded yet
  EdgeRecord cur;

  // Close the edge that ran since the previous callback.
  auto finishEdge = [&](std::int64_t t) {
    cur.dur_ns = static_cast<std::uint32_t>(
        std::min<std::int64_t>(t - cur.start_ns, UINT32_MAX));
    std::uint8_t mask = 0;
    for (std::size_t i = 0; i < domains.size(); ++i) {
      const sim::Cycle c = domains[i]->now();
      if (c != last[i]) {
        mask = static_cast<std::uint8_t>(mask | (1u << i));
        last[i] = c;
      }
    }
    cur.domains = mask;
    edges_.push_back(cur);
    pending = false;
  };

  bool stopped = false;
  auto stop = [&]() -> bool {
    if (pending) {
      finishEdge(clock_.nowNs());
      if (to_idle) {
        if (!sim_.anyComponentBusy()) {
          if (++idle_streak >= kQuiesceEdges) {
            stopped = true;
            return true;
          }
        } else {
          idle_streak = 0;
        }
      }
    }
    cur = EdgeRecord{};
    cur.awake = static_cast<std::uint16_t>(sim_.totalComponents() -
                                           sim_.asleepComponents());
    pending = true;
    cur.start_ns = clock_.nowNs();
    return false;
  };
  sim_.run(until, stop);
  // run() leaves without a final callback when the bound ends the loop.
  if (pending && !stopped) {
    const std::int64_t t = clock_.nowNs();
    // No edge ran after the last callback when the bound was already met.
    bool ticked = false;
    for (std::size_t i = 0; i < domains.size(); ++i) {
      ticked = ticked || domains[i]->now() != last[i];
    }
    if (ticked) finishEdge(t);
  }
}

EdgeTracer::Summary EdgeTracer::summarize() const {
  Summary s;
  s.edges = edges_.size();
  if (edges_.empty()) return s;
  std::vector<double> all;
  all.reserve(edges_.size());
  std::map<unsigned, std::vector<double>> by_set;  // tick set -> durations
  std::uint64_t coincident = 0;
  double awake_sum = 0.0;
  const double total = static_cast<double>(sim_.totalComponents());
  for (const EdgeRecord& e : edges_) {
    all.push_back(e.dur_ns);
    by_set[e.domains].push_back(e.dur_ns);
    if (std::popcount(static_cast<unsigned>(e.domains)) >= 2) ++coincident;
    if (total > 0) awake_sum += e.awake / total;
  }
  s.step_ns_p50 = percentile(all, 0.50);
  s.step_ns_p99 = percentile(all, 0.99);
  const double n = static_cast<double>(edges_.size());
  s.coincident_frac = static_cast<double>(coincident) / n;
  s.awake_frac = awake_sum / n;
  // A domain's cost is the median of the tick set it most often appears in,
  // less the median of that set without it (and without domains on its own
  // clock period, which always tick with it).  When the domain most often
  // ticks alone this is the median of its solo edges.  N1 and N5 (200 MHz)
  // never tick without st220 (400 MHz), so theirs is the {N1, N5, st220}
  // median less the st220-only median.
  const auto& domains = sim_.domains();
  for (std::size_t i = 0; i < domains.size(); ++i) {
    unsigned group = 0;
    for (std::size_t j = 0; j < domains.size(); ++j) {
      if (domains[j]->period() == domains[i]->period()) group |= 1u << j;
    }
    const std::vector<double>* best = nullptr;
    unsigned best_set = 0;
    for (const auto& [set, durs] : by_set) {
      if ((set >> i & 1u) && (!best || durs.size() > best->size())) {
        best = &durs;
        best_set = set;
      }
    }
    if (!best) continue;
    std::vector<double> with = *best;
    double ns = percentile(with, 0.50);
    if (auto base = by_set.find(best_set & ~group);
        (best_set & ~group) != 0 && base != by_set.end()) {
      std::vector<double> without = base->second;
      ns = std::max(0.0, ns - percentile(without, 0.50));
    }
    s.domain_ns[domain_names_[i]] = ns;
  }
  return s;
}

void EdgeTracer::write(const std::string& path,
                       std::uint32_t parent_span) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  f << "# parent_span=" << parent_span << " domains=";
  for (std::size_t i = 0; i < domain_names_.size(); ++i) {
    f << (i ? "," : "") << domain_names_[i];
  }
  f << "\nstart_ns,dur_ns,domain_mask,awake\n";
  for (const EdgeRecord& e : edges_) {
    f << e.start_ns << ',' << e.dur_ns << ',' << unsigned(e.domains) << ','
      << e.awake << '\n';
  }
}

}  // namespace mpsocbench
