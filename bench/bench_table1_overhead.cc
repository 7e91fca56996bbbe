// Reproduces Table 1 (§5): CPU time of the coordinator's three tasks —
// the incremental linear-independence maintenance of the measure-point
// store, the hyperplane approximation, and the LP optimization — for
// N in {5, 10, 20, 30, 40, 50} nodes.
//
// The paper measured these on a 1996 SUN Sparc 4 (overall 1.24 ms at N=5 up
// to 24.4 ms at N=50); on modern hardware the absolute numbers are about
// three orders of magnitude smaller, but the growth with N — quadratic
// store/fit, LP growing most slowly — is the reproducible shape.

// Running with `--quick` skips the google-benchmark tables and instead runs
// the instrumentation-overhead gate: identical deterministic cluster runs —
// bare, with a tracer, a profiler, and an attainment tracker attached but
// disabled, and with the profiler (or attainment tracker) enabled — must
// agree bit-for-bit on the simulation outcome, and the disabled arm must
// stay within a small wall-clock envelope of the bare one. This is the
// guard that keeps the disabled tracing/profiling/attainment paths a
// branch-on-bool, and the guard that an *enabled* profiler or attainment
// tracker (which only read clocks already on the stack) cannot perturb the
// simulation.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench/experiment.h"
#include "common/config.h"
#include "common/rng.h"
#include "core/measure.h"
#include "core/optimizer.h"
#include "core/system.h"
#include "la/matrix.h"
#include "obs/attainment.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "workload/spec.h"

namespace memgoal::bench {
namespace {

la::Vector RandomAllocation(common::Rng* rng, size_t n) {
  la::Vector allocation(n);
  for (double& v : allocation) v = rng->Uniform(0.0, 2 << 20);
  return allocation;
}

// Fills a store with n+1 random measure points (random points are affinely
// independent with probability 1).
core::MeasureStore ReadyStore(common::Rng* rng, size_t n) {
  core::MeasureStore store(n);
  while (!store.ready()) {
    store.Observe(RandomAllocation(rng, n), rng->Uniform(1.0, 30.0),
                  rng->Uniform(1.0, 30.0));
  }
  return store;
}

// Table 1 column "Lin. Independence": folding one new measure point into
// the store (O(n) probes + one O(n^2) Sherman-Morrison row replacement).
void BM_LinIndependence(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  common::Rng rng(42);
  core::MeasureStore store = ReadyStore(&rng, n);
  for (auto _ : state) {
    store.Observe(RandomAllocation(&rng, n), rng.Uniform(1.0, 30.0),
                  rng.Uniform(1.0, 30.0));
    benchmark::DoNotOptimize(store.size());
  }
}

// Table 1 column "Approximation": solving for both response-time
// hyperplanes against the maintained inverse (two O(n^2) products).
void BM_Approximation(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  common::Rng rng(43);
  const core::MeasureStore store = ReadyStore(&rng, n);
  for (auto _ : state) {
    auto planes = store.FitPlanes();
    benchmark::DoNotOptimize(planes);
  }
}

core::OptimizerInput RandomLp(common::Rng* rng, size_t n) {
  core::OptimizerInput input;
  input.planes.grad_k.resize(n);
  input.planes.grad_0.resize(n);
  input.upper_bounds.assign(n, 2 << 20);
  for (size_t i = 0; i < n; ++i) {
    input.planes.grad_k[i] = -rng->Uniform(1e-6, 5e-6);
    input.planes.grad_0[i] = rng->Uniform(1e-7, 1e-6);
  }
  input.planes.intercept_k = 20.0;
  input.planes.intercept_0 = 2.0;
  input.goal_rt = 10.0;  // reachable: equality LP runs to optimality
  return input;
}

// Table 1 column "Optimization": the simplex solve of §4's LP.
void BM_Optimization(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  common::Rng rng(44);
  const core::OptimizerInput input = RandomLp(&rng, n);
  for (auto _ : state) {
    core::OptimizerOutput output = SolvePartitioning(input);
    benchmark::DoNotOptimize(output);
  }
}

// Table 1 row "Overall": one full coordinator optimization phase.
void BM_Overall(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  common::Rng rng(45);
  core::MeasureStore store = ReadyStore(&rng, n);
  for (auto _ : state) {
    store.Observe(RandomAllocation(&rng, n), rng.Uniform(1.0, 30.0),
                  rng.Uniform(1.0, 30.0));
    auto planes = store.FitPlanes();
    if (!planes.has_value()) {
      // The condition guard reset the store (random byte-scale points do
      // drift ill-conditioned over enough replacements): re-arm and move on.
      store = ReadyStore(&rng, n);
      continue;
    }
    core::OptimizerInput input;
    input.planes = std::move(*planes);
    input.goal_rt = 10.0;
    input.upper_bounds.assign(n, 2 << 20);
    core::OptimizerOutput output = SolvePartitioning(input);
    benchmark::DoNotOptimize(output);
  }
}

BENCHMARK(BM_LinIndependence)->Arg(5)->Arg(10)->Arg(20)->Arg(30)->Arg(40)->Arg(50);
BENCHMARK(BM_Approximation)->Arg(5)->Arg(10)->Arg(20)->Arg(30)->Arg(40)->Arg(50);
BENCHMARK(BM_Optimization)->Arg(5)->Arg(10)->Arg(20)->Arg(30)->Arg(40)->Arg(50);
BENCHMARK(BM_Overall)->Arg(5)->Arg(10)->Arg(20)->Arg(30)->Arg(40)->Arg(50);

// -- Tracing-overhead gate (--quick) -----------------------------------------

std::unique_ptr<core::ClusterSystem> BuildGateSystem() {
  core::SystemConfig config;
  config.num_nodes = 3;
  config.cache_bytes_per_node = 2ull << 20;
  config.db_pages = 2000;
  config.seed = 7;
  auto system = std::make_unique<core::ClusterSystem>(config);
  workload::ClassSpec goal;
  goal.id = 1;
  goal.goal_rt_ms = 8.0;
  goal.pages = {0, 1000};
  goal.mean_interarrival_ms = 40.0;
  workload::ClassSpec nogoal;
  nogoal.id = 0;
  nogoal.pages = {1000, 2000};
  nogoal.mean_interarrival_ms = 40.0;
  system->AddClass(goal);
  system->AddClass(nogoal);
  return system;
}

enum class GateArm {
  kBare,                // no instrumentation objects at all
  kDisabled,            // tracer + profiler + attainment attached, disabled
  kProfilerEnabled,     // profiler enabled: must not perturb the simulation
  kAttainmentEnabled,   // attainment tracking enabled: same requirement
};

// One full deterministic run under the selected instrumentation arm. The
// kDisabled arm exercises exactly the branch-on-bool no-op paths the wall
// gate is about; kProfilerEnabled accumulates real phase timings (discarded
// here) and is checked for fingerprint equality only. The fingerprint folds
// every per-class access counter plus the network byte totals, so any
// behavioral divergence fails loudly.
uint64_t RunGateArm(GateArm arm, int intervals, BenchReporter* reporter) {
  auto system = BuildGateSystem();
  obs::Tracer tracer;  // never enabled
  obs::Profiler profiler;
  profiler.Enable(arm == GateArm::kProfilerEnabled);
  obs::AttainmentTracker attainment;
  attainment.Enable(arm == GateArm::kAttainmentEnabled);
  // The bare arm installs null so no profiler on this thread can leak
  // instrumentation into the reference timing.
  obs::Profiler::ScopedInstall install(arm == GateArm::kBare ? nullptr
                                                             : &profiler);
  if (arm != GateArm::kBare) {
    system->SetTracer(&tracer);
    system->SetAttainment(&attainment);
  }
  system->Start();
  system->RunIntervals(intervals);
  if (reporter != nullptr) {
    reporter->AddEvents(system->simulator().events_processed());
  }

  uint64_t fp = 1469598103934665603ull;
  const auto mix = [&fp](uint64_t v) {
    fp ^= v;
    fp *= 1099511628211ull;
  };
  for (const workload::ClassSpec& spec : system->classes()) {
    const core::AccessCounters& counters = system->counters(spec.id);
    for (uint64_t count : counters.by_level) mix(count);
    mix(counters.fetch_fallbacks);
    mix(system->TotalDedicatedBytes(spec.id));
  }
  mix(system->network().total_bytes_sent());
  return fp;
}

int RunInstrumentationOverheadGate(common::Config* args) {
  constexpr int kReps = 7;
  // Sized so one arm runs a few hundred milliseconds on the event core
  // (re-tuned when the calendar-queue/arena rework made runs ~3x faster):
  // much shorter and the min-of-reps estimator is measuring scheduler and
  // frequency noise, not the instrumentation.
  constexpr int kIntervals = 120;
  constexpr double kMaxOverheadRatio = 1.02;
  // Floor on the allowed absolute gap: on very fast runs scheduler noise
  // alone exceeds 2%, and the ratio gate would be measuring the OS, not us.
  constexpr double kAbsoluteSlackMs = 15.0;

  BenchReporter reporter("table1_overhead", args);
  // Accepted like every bench's; the gate's arms always run serially.
  (void)args->GetInt("threads", 0);
  if (!args->RejectUnknownFlags()) {
    std::fprintf(stderr, "%s\n", args->error().c_str());
    return 1;
  }
  reporter.AddSetup("intervals", kIntervals);
  reporter.AddSetup("reps", kReps);

  // Warm-up pass (page cache, allocator arenas), results discarded.
  (void)RunGateArm(GateArm::kBare, kIntervals, nullptr);
  (void)RunGateArm(GateArm::kDisabled, kIntervals, nullptr);

  // Wall arms interleave bare/disabled rep pairs and keep the per-arm
  // minimum: the minimum strips strictly additive noise (scheduler
  // preemption), and pairing the arms rep-by-rep keeps slow multiplicative
  // drift (CPU frequency, noisy virtualized hosts) from landing on one arm
  // wholesale, which a block of plain reps followed by a block of traced
  // reps cannot avoid.
  uint64_t plain_fp = 0;
  uint64_t traced_fp = 0;
  double plain_min_s = 0.0;
  std::vector<double> diffs_ms;
  for (int rep = 0; rep < kReps; ++rep) {
    double plain_s = 0.0;
    double traced_s = 0.0;
    const auto run_plain = [&] {
      plain_s = MinOfRepsSeconds(1, [&] {
        plain_fp = RunGateArm(GateArm::kBare, kIntervals, &reporter);
      });
    };
    const auto run_traced = [&] {
      traced_s = MinOfRepsSeconds(1, [&] {
        traced_fp = RunGateArm(GateArm::kDisabled, kIntervals, &reporter);
      });
    };
    // Alternate which arm goes first so a monotone frequency ramp inflates
    // the pair difference in one rep and deflates it in the next.
    if (rep % 2 == 0) {
      run_plain();
      run_traced();
    } else {
      run_traced();
      run_plain();
    }
    plain_min_s = rep == 0 ? plain_s : std::min(plain_min_s, plain_s);
    diffs_ms.push_back((traced_s - plain_s) * 1e3);
  }
  std::sort(diffs_ms.begin(), diffs_ms.end());
  const double plain_min = plain_min_s * 1e3;
  // The best (quietest) pair bounds the true overhead from above: noise on
  // this machine is strictly additive within a pair once drift is paired
  // away, so min-of-pair-differences is the right upper estimate — per-arm
  // minima taken in different noise regimes are not comparable.
  const double traced_min = plain_min + std::max(0.0, diffs_ms.front());

  // The enabled-profiler and enabled-attainment arms are correctness-only:
  // they pay for their bookkeeping, so they are exempt from the wall
  // envelope, but they must not change one bit of simulation output.
  const uint64_t profiled_fp =
      RunGateArm(GateArm::kProfilerEnabled, kIntervals, &reporter);
  const uint64_t attained_fp =
      RunGateArm(GateArm::kAttainmentEnabled, kIntervals, &reporter);

  // Wall numbers go to stdout only: the record holds deterministic fields.
  // The spread of the pair differences is printed so a failing run shows
  // whether one noisy pair or a shift of every pair moved the estimate.
  const double ratio = traced_min / plain_min;
  std::printf("instrumentation_overhead_gate: plain=%.2f ms "
              "instrumented=%.2f ms ratio=%.4f pair_diff_ms min=%.2f "
              "median=%.2f max=%.2f (limit %.2f, slack %.1f ms)\n",
              plain_min, traced_min, ratio, diffs_ms.front(),
              diffs_ms[diffs_ms.size() / 2], diffs_ms.back(),
              kMaxOverheadRatio, kAbsoluteSlackMs);

  int rc = 0;
  if (plain_fp != traced_fp) {
    std::fprintf(stderr,
                 "FAIL: disabled instrumentation changed the simulation "
                 "(fingerprint %llu vs %llu)\n",
                 static_cast<unsigned long long>(plain_fp),
                 static_cast<unsigned long long>(traced_fp));
    rc = 1;
  }
  if (profiled_fp != plain_fp) {
    std::fprintf(stderr,
                 "FAIL: ENABLED profiler changed the simulation "
                 "(fingerprint %llu vs %llu)\n",
                 static_cast<unsigned long long>(plain_fp),
                 static_cast<unsigned long long>(profiled_fp));
    rc = 1;
  }
  if (attained_fp != plain_fp) {
    std::fprintf(stderr,
                 "FAIL: ENABLED attainment tracking changed the simulation "
                 "(fingerprint %llu vs %llu)\n",
                 static_cast<unsigned long long>(plain_fp),
                 static_cast<unsigned long long>(attained_fp));
    rc = 1;
  }
  if (ratio > kMaxOverheadRatio &&
      traced_min - plain_min > kAbsoluteSlackMs) {
    std::fprintf(stderr,
                 "FAIL: disabled instrumentation costs %.1f%% wall clock "
                 "(limit %.0f%%)\n",
                 100.0 * (ratio - 1.0), 100.0 * (kMaxOverheadRatio - 1.0));
    rc = 1;
  }
  if (rc == 0) std::printf("instrumentation_overhead_gate: PASS\n");
  return reporter.Finish(rc);
}

}  // namespace
}  // namespace memgoal::bench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      // Config parsing only happens on the gate path: in table mode the
      // arguments belong to google-benchmark untouched.
      memgoal::common::Config args;
      if (!args.ParseArgs(argc, argv)) {
        std::fprintf(stderr, "%s\n", args.error().c_str());
        return 1;
      }
      return memgoal::bench::RunInstrumentationOverheadGate(&args);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
