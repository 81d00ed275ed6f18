// Simulator performance: simulated cycles per wall-clock second for
// platform instances of increasing size (google-benchmark harness).
//
// This is the engineering metric behind the paper's methodology argument:
// a behavioural cycle-accurate model must be fast enough to sweep
// architectural variants, unlike RTL simulation.
//
// The *Monitored variants run the same workloads with the protocol monitors
// and the conservation auditor attached; comparing them against the plain
// variants quantifies the cost of an attached monitor set.  The monitor hooks
// are always compiled; with nothing attached they cost one empty-vector or
// null-pointer test each, which a best-of-15 comparison against a build
// without them could not tell apart from run-to-run noise.

#include <benchmark/benchmark.h>

#include "core/rigs.hpp"
#include "platform/platform.hpp"

using namespace mpsoc;

namespace {

void runSingleLayer(benchmark::State& state, bool verify) {
  const auto masters = static_cast<std::size_t>(state.range(0));
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    core::SingleLayerConfig c;
    c.masters = masters;
    c.memories = 2;
    c.txns_per_master = 200;
    c.verify = verify;
    core::SingleLayerRig rig(c);
    const sim::Picos t = rig.run();
    cycles += t / 5000;  // 200 MHz bus cycles
    benchmark::DoNotOptimize(t);
  }
  state.counters["sim_cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}

void BM_SingleLayer(benchmark::State& state) {
  runSingleLayer(state, /*verify=*/false);
}
BENCHMARK(BM_SingleLayer)->Arg(2)->Arg(6)->Arg(12);

void BM_SingleLayerMonitored(benchmark::State& state) {
  runSingleLayer(state, /*verify=*/true);
}
BENCHMARK(BM_SingleLayerMonitored)->Arg(2)->Arg(6)->Arg(12);

void runFullPlatform(benchmark::State& state, bool verify) {
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    platform::PlatformConfig cfg;
    cfg.protocol = platform::Protocol::Stbus;
    cfg.topology = platform::Topology::Full;
    cfg.memory = state.range(0) == 0 ? platform::MemoryKind::OnChip
                                     : platform::MemoryKind::Lmi;
    cfg.workload_scale = 0.1;
    cfg.verify = verify;
    platform::Platform p(cfg);
    const sim::Picos t = p.run();
    cycles += t / 4000;  // 250 MHz central-node cycles
    benchmark::DoNotOptimize(t);
  }
  state.counters["sim_cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}

void BM_FullPlatform(benchmark::State& state) {
  runFullPlatform(state, /*verify=*/false);
}
BENCHMARK(BM_FullPlatform)->Arg(0)->Arg(1);

void BM_FullPlatformMonitored(benchmark::State& state) {
  runFullPlatform(state, /*verify=*/true);
}
BENCHMARK(BM_FullPlatformMonitored)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
