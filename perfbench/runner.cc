// perfbench_runner — one run of one memgoal benchmark workload.
//
//   perfbench_runner mode=plain|traced seed=N intervals=N out=DIR run_id=ID
//       <bench keys> <scenario keys>
//
// Scenario keys are the memgoal_sim scenario format (core::LoadScenario).
// Bench keys:
//   warmup_intervals       intervals run before the goal band is derived
//   calibration_intervals  intervals per goal-band calibration point (three
//                          static partitionings, without faults or updates)
//   driven_classes         goal classes whose goals are set and re-drawn
//                          (the first N; default all); the rest keep their
//                          scenario goal
//   updates                true adds read-write transactions from a
//                          txn::UpdateSource with its default Params
//
// The run sets up the system kSetupReps times (each fresh, all with the
// same seed) and keeps the last; then it times `intervals` observation
// intervals one RunIntervals(1) call at a time. mode=traced additionally
// enables the wall-clock profiler, the attainment tracker and the
// invariant auditor, records spans, times PageSelector::Sample, and writes
// the spans to DIR/spans.jsonl. The result is one JSON object on stdout.
// Correctness checks that fail are listed in it by name.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baseline/static_controllers.h"
#include "bench/experiment.h"
#include "common/config.h"
#include "common/rng.h"
#include "core/scenario.h"
#include "core/system.h"
#include "obs/attainment.h"
#include "obs/latency_budget.h"
#include "obs/profiler.h"
#include "sim/invariant_auditor.h"
#include "spans.h"
#include "timed_controller.h"
#include "txn/transaction.h"
#include "txn/update_source.h"
#include "workload/page_selector.h"

namespace memgoal::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 5;

struct BenchParams {
  std::string mode;
  uint64_t seed = 0;
  int intervals = 0;
  std::string out_dir;
  std::string run_id;
  int warmup_intervals = 0;
  int calibration_intervals = 0;
  int driven_classes = 0;
  bool updates = false;

  bool traced() const { return mode == "traced"; }
};

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

/// One set-up system with everything that drives or observes it. Members
/// are declared so that observers outlive the system and the drivers and
/// update stream die before it.
struct Instance {
  obs::AttainmentTracker attainment;
  sim::InvariantAuditor auditor;
  std::unique_ptr<core::ClusterSystem> system;
  TimedController* controller = nullptr;
  std::unique_ptr<txn::TransactionManager> txn_manager;
  std::unique_ptr<txn::UpdateSource> updates;
  std::vector<std::unique_ptr<bench::GoalChangeDriver>> drivers;
  /// Cumulative node crashes at the end of each interval, one entry per
  /// MetricsLog row.
  std::vector<uint64_t> crashes_at_end;
};

std::vector<ClassId> GoalClasses(const core::Scenario& scenario) {
  std::vector<ClassId> ids;
  for (const workload::ClassSpec& spec : scenario.classes) {
    if (spec.goal_rt_ms.has_value()) ids.push_back(spec.id);
  }
  return ids;
}

/// The first `driven` goal classes (all of them when `driven` is 0): the
/// classes whose goals the goal-change protocol sets and re-draws.
std::vector<ClassId> DrivenClasses(const core::Scenario& scenario,
                                   int driven) {
  std::vector<ClassId> ids = GoalClasses(scenario);
  if (driven > 0 && static_cast<size_t>(driven) < ids.size()) {
    ids.resize(static_cast<size_t>(driven));
  }
  return ids;
}

/// Settled-tail mean response time of the `driven` classes when `fraction`
/// of every node's cache is statically dedicated to them in equal shares,
/// on the scenario without faults or updates. This is bench::CalibrateRt
/// for a declared core::Scenario (per-class shapes) and for several goal
/// classes sharing the dedicated fraction, as wide-grid needs.
double CalibrateRt(const core::Scenario& scenario,
                   const std::vector<ClassId>& driven, double fraction,
                   int intervals, uint64_t seed) {
  core::SystemConfig config = scenario.system;
  config.seed = seed;
  config.faults = sim::FaultInjector::Params{};
  config.scrub_interval_ms = 0.0;
  core::ClusterSystem system(config);
  for (const workload::ClassSpec& spec : scenario.classes) {
    system.AddClass(spec);
  }
  system.SetController(
      std::make_unique<baseline::NoPartitioningController>());
  system.Start();
  const auto bytes = static_cast<uint64_t>(
      fraction * static_cast<double>(config.cache_bytes_per_node) /
      static_cast<double>(driven.size()));
  for (ClassId klass : driven) {
    for (NodeId node = 0; node < config.num_nodes; ++node) {
      system.ApplyAllocation(klass, node, bytes);
    }
  }
  system.RunIntervals(intervals);
  const auto& records = system.metrics().records();
  double sum = 0.0;
  int count = 0;
  for (size_t i = records.size() * 2 / 3; i < records.size(); ++i) {
    for (ClassId klass : driven) {
      const core::ClassIntervalMetrics& m = records[i].ForClass(klass);
      if (m.ops_completed > 0) {
        sum += m.observed_rt_ms;
        ++count;
      }
    }
  }
  return count > 0 ? sum / count : 0.0;
}

struct Band {
  double lo = 0.0;
  double hi = 0.0;
};

/// Goal band shared by the driven classes, after the §7.1 protocol: between
/// the response times with 2/3 and with 1/3 of the cache dedicated to them,
/// capped at 3/4 of the undedicated response time so that every goal is
/// binding. (The paper's band runs from RT(2/3) up to RT(1/3); with many
/// nodes the response curve need not be monotone, so the ends are ordered.)
Band CalibrateBand(const core::Scenario& scenario, const BenchParams& params) {
  const double fractions[] = {2.0 / 3.0, 1.0 / 3.0, 0.0};
  double rt[3];
  for (int point = 0; point < 3; ++point) {
    rt[point] = CalibrateRt(
        scenario, DrivenClasses(scenario, params.driven_classes),
        fractions[point], params.calibration_intervals,
        common::DeriveStreamSeed(params.seed,
                                 bench::kCalibrationStreamBase +
                                     static_cast<uint64_t>(point)));
  }
  return Band{std::min(rt[0], rt[1]),
              std::min(std::max(rt[0], rt[1]), 0.75 * rt[2])};
}

/// Builds, starts and warms up one system, then derives the goal band and
/// installs the goal-change drivers. Spans (when recorded) nest under
/// `parent`.
std::unique_ptr<Instance> SetUp(const core::Scenario& scenario,
                                const BenchParams& params,
                                SpanRecorder* spans, int parent,
                                std::vector<std::string>* failed_checks) {
  auto instance = std::make_unique<Instance>();
  core::ClusterSystem* system = nullptr;
  {
    ScopedSpan span(spans, "setup.construct", parent);
    instance->system = std::make_unique<core::ClusterSystem>(scenario.system);
    system = instance->system.get();
    for (const workload::ClassSpec& spec : scenario.classes) {
      system->AddClass(spec);
    }
    auto controller = std::make_unique<TimedController>();
    instance->controller = controller.get();
    system->SetController(std::move(controller));
    if (params.traced()) {
      instance->attainment.Enable(true);
      system->SetAttainment(&instance->attainment);
      system->EnableAuditor(&instance->auditor);
    }
  }
  {
    ScopedSpan span(spans, "setup.start", parent);
    system->Start();
    if (params.updates) {
      instance->txn_manager = std::make_unique<txn::TransactionManager>(system);
      instance->updates = std::make_unique<txn::UpdateSource>(
          system, instance->txn_manager.get(), txn::UpdateSource::Params{});
      instance->updates->Start();
    }
    Instance* raw = instance.get();
    system->SetIntervalCallback([raw](const core::IntervalRecord& record) {
      raw->crashes_at_end.push_back(
          raw->system->fault_injector().stats().crashes);
      for (auto& driver : raw->drivers) driver->OnInterval(record);
    });
  }
  {
    ScopedSpan span(spans, "setup.warmup", parent);
    system->RunIntervals(params.warmup_intervals);
  }
  {
    ScopedSpan span(spans, "setup.goal_band", parent);
    const Band band = CalibrateBand(scenario, params);
    if (band.lo > 0.0 && band.lo < band.hi) {
      for (ClassId klass : DrivenClasses(scenario, params.driven_classes)) {
        instance->drivers.push_back(std::make_unique<bench::GoalChangeDriver>(
            system, klass, band.lo, band.hi,
            common::DeriveStreamSeed(params.seed,
                                     bench::kGoalDriverStreamBase + klass)));
      }
    } else {
      failed_checks->push_back("goal_band_nonempty");
    }
  }
  return instance;
}

/// FNV-1a over the simulation's observable outputs.
class Digest {
 public:
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  void Add(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Digest of every MetricsLog row, the per-class AccessCounters and the
/// network bytes and messages per traffic class.
uint64_t SimulationDigest(const Instance& instance) {
  core::ClusterSystem& system = *instance.system;
  Digest digest;
  for (const core::IntervalRecord& record : system.metrics().records()) {
    digest.Add(static_cast<uint64_t>(record.index));
    digest.Add(record.end_time_ms);
    digest.Add(static_cast<uint64_t>(record.nodes_up));
    digest.Add(record.lp.optimal);
    digest.Add(record.lp.infeasible);
    digest.Add(record.lp.unbounded);
    digest.Add(record.lp.iteration_limit);
    digest.Add(record.lp.relaxed_retries);
    for (const core::ClassIntervalMetrics& m : record.classes) {
      digest.Add(static_cast<uint64_t>(m.klass));
      digest.Add(m.observed_rt_ms);
      digest.Add(m.goal_rt_ms);
      digest.Add(m.tolerance_ms);
      digest.Add(static_cast<uint64_t>(m.satisfied));
      digest.Add(m.dedicated_bytes);
      digest.Add(m.ops_completed);
      digest.Add(m.ops_arrived);
      digest.Add(m.ops_failed);
    }
  }
  for (const workload::ClassSpec& spec : system.classes()) {
    const core::AccessCounters& counters = system.counters(spec.id);
    for (uint64_t count : counters.by_level) digest.Add(count);
    digest.Add(counters.fetch_fallbacks);
  }
  for (int tc = 0; tc < net::kNumTrafficClasses; ++tc) {
    const auto traffic = static_cast<net::TrafficClass>(tc);
    digest.Add(system.network().bytes_sent(traffic));
    digest.Add(system.network().messages_sent(traffic));
  }
  return digest.value();
}

/// Cumulative counters of one instance at one instant; the timed phase's
/// numbers are differences of two snapshots.
struct Totals {
  double sim_ms = 0.0;
  uint64_t events = 0;
  std::map<ClassId, core::AccessCounters> counters;
  std::array<uint64_t, net::kNumTrafficClasses> bytes{};
  uint64_t messages = 0;
  uint64_t dropped = 0;
  uint64_t disk_reads = 0;
  uint64_t disk_writes = 0;
  uint64_t corrupt_detected = 0;
  uint64_t repairs_replica = 0;
  uint64_t pages_lost = 0;
  uint64_t pages_scrubbed = 0;
  uint64_t crashes = 0;
  /// Per node: busy unit-ms of the CPU and the disk arm, and their pooled
  /// queue-wait sums and counts.
  std::vector<double> cpu_busy_ms;
  std::vector<double> disk_busy_ms;
  common::RunningStats cpu_wait;
  common::RunningStats disk_wait;
  core::GoalOrientedController::ProtocolStats controller;
  txn::TransactionManager::Stats txn;
  uint64_t lock_waits = 0;
  uint64_t wal_forces = 0;
  uint64_t txn_committed = 0;
  uint64_t txn_failed = 0;
  double commit_ms_sum = 0.0;
  size_t records = 0;

  uint64_t accesses() const {
    uint64_t total = 0;
    for (const auto& [klass, c] : counters) total += c.total();
    return total;
  }
  uint64_t level(StorageLevel level) const {
    uint64_t total = 0;
    for (const auto& [klass, c] : counters) {
      total += c.by_level[static_cast<int>(level)];
    }
    return total;
  }
  uint64_t fetch_fallbacks() const {
    uint64_t total = 0;
    for (const auto& [klass, c] : counters) total += c.fetch_fallbacks;
    return total;
  }
};

/// Busy unit-ms of a resource up to `now`, per unit of capacity. A node's
/// resources are built with the system and integrate from simulated time
/// 0, where UtilizationAt's time-weighted mean starts.
double BusyMs(const sim::Resource& resource, double now) {
  return resource.UtilizationAt(now) * now;
}

Totals Snapshot(const Instance& instance) {
  core::ClusterSystem& system = *instance.system;
  Totals t;
  t.sim_ms = system.simulator().Now();
  t.events = system.simulator().events_processed();
  for (const workload::ClassSpec& spec : system.classes()) {
    t.counters[spec.id] = system.counters(spec.id);
  }
  for (int tc = 0; tc < net::kNumTrafficClasses; ++tc) {
    const auto traffic = static_cast<net::TrafficClass>(tc);
    t.bytes[static_cast<size_t>(tc)] = system.network().bytes_sent(traffic);
    t.messages += system.network().messages_sent(traffic);
    t.dropped += system.network().messages_dropped(traffic);
  }
  for (NodeId node = 0; node < system.num_nodes(); ++node) {
    t.disk_reads += system.node(node).disk().reads_completed();
    t.disk_writes += system.node(node).disk().writes_completed();
  }
  t.corrupt_detected = system.corrupt_detected();
  t.repairs_replica = system.repairs_replica();
  t.pages_lost = system.pages_lost();
  t.pages_scrubbed = system.pages_scrubbed();
  t.crashes = system.fault_injector().stats().crashes;
  for (NodeId node = 0; node < system.num_nodes(); ++node) {
    const sim::Resource& cpu = system.node(node).cpu();
    const sim::Resource& disk = system.node(node).disk().resource();
    t.cpu_busy_ms.push_back(BusyMs(cpu, t.sim_ms));
    t.disk_busy_ms.push_back(BusyMs(disk, t.sim_ms));
    t.cpu_wait.Merge(cpu.wait_stats());
    t.disk_wait.Merge(disk.wait_stats());
  }
  t.controller = instance.controller->inner().stats();
  if (instance.txn_manager != nullptr) {
    t.txn = instance.txn_manager->stats();
    t.lock_waits = instance.txn_manager->lock_manager().stats().waits;
    for (NodeId node = 0; node < system.num_nodes(); ++node) {
      t.wal_forces += instance.txn_manager->wal(node).forces();
    }
    t.txn_committed = instance.updates->committed();
    t.txn_failed = instance.updates->failed();
    t.commit_ms_sum = instance.updates->commit_latency_ms().sum();
  }
  t.records = system.metrics().records().size();
  return t;
}

/// Self time of the profiler's outermost dispatch frame ("memgoal;sim.step"
/// in the folded output): dispatch time no deeper profiler phase claims.
uint64_t SimStepSelfNs(const obs::Profiler& profiler) {
  char* text = nullptr;
  size_t size = 0;
  std::FILE* stream = open_memstream(&text, &size);
  if (stream == nullptr) return 0;
  profiler.WriteFolded(stream);
  std::fclose(stream);
  uint64_t self_ns = 0;
  const std::string folded(text, size);
  std::free(text);
  const std::string key = "memgoal;sim.step ";
  size_t pos = 0;
  while (pos < folded.size()) {
    const size_t end = folded.find('\n', pos);
    const std::string line = folded.substr(
        pos, end == std::string::npos ? std::string::npos : end - pos);
    if (line.compare(0, key.size(), key) == 0) {
      self_ns = std::strtoull(line.c_str() + key.size(), nullptr, 10);
    }
    if (end == std::string::npos) break;
    pos = end + 1;
  }
  return self_ns;
}

double PhaseMs(const obs::Profiler& profiler, obs::Phase phase) {
  return static_cast<double>(profiler.stats(phase).total_ns) / 1e6;
}

/// Largest per-node utilization between two snapshots.
double MaxUtilization(const std::vector<double>& busy_before,
                      const std::vector<double>& busy_after, double span_ms) {
  double max = 0.0;
  for (size_t node = 0; node < busy_after.size(); ++node) {
    max = std::max(max, Ratio(busy_after[node] - busy_before[node], span_ms));
  }
  return max;
}

/// Mean queue wait of the samples added between two snapshots.
double MeanWaitMs(const common::RunningStats& before,
                  const common::RunningStats& after) {
  return Ratio(after.sum() - before.sum(),
               static_cast<double>(after.count() - before.count()));
}

int Main(int argc, char** argv) {
  common::Config config;
  if (!config.ParseArgs(argc, argv)) {
    std::fprintf(stderr, "perfbench_runner: %s\n", config.error().c_str());
    return 2;
  }
  for (const char* key : {"mode", "seed", "intervals", "out", "run_id",
                          "warmup_intervals", "calibration_intervals"}) {
    if (!config.Has(key)) {
      std::fprintf(stderr, "perfbench_runner: missing key %s\n", key);
      return 2;
    }
  }
  BenchParams params;
  params.mode = config.GetString("mode", "");
  params.seed = static_cast<uint64_t>(config.GetInt("seed", 0));
  params.intervals = static_cast<int>(config.GetInt("intervals", 0));
  params.out_dir = config.GetString("out", "");
  params.run_id = config.GetString("run_id", "");
  params.warmup_intervals = static_cast<int>(config.GetInt("warmup_intervals", 0));
  params.calibration_intervals =
      static_cast<int>(config.GetInt("calibration_intervals", 0));
  params.driven_classes = static_cast<int>(config.GetInt("driven_classes", 0));
  params.updates = config.GetBool("updates", false);
  if ((params.mode != "plain" && params.mode != "traced") ||
      params.intervals < 1) {
    std::fprintf(stderr, "perfbench_runner: bad mode or intervals\n");
    return 2;
  }

  std::string error;
  std::optional<core::Scenario> scenario = core::LoadScenario(config, &error);
  if (!scenario.has_value()) {
    std::fprintf(stderr, "perfbench_runner: %s\n", error.c_str());
    return 2;
  }
  const std::vector<std::string> unused = config.UnusedKeys();
  if (!unused.empty()) {
    std::fprintf(stderr, "perfbench_runner: unknown key %s\n",
                 unused.front().c_str());
    return 2;
  }
  scenario->system.seed = params.seed;
  if (GoalClasses(*scenario).empty()) {
    std::fprintf(stderr, "perfbench_runner: the scenario has no goal class\n");
    return 2;
  }

  const bool traced = params.traced();
  std::optional<SpanRecorder> recorder;
  if (traced) recorder.emplace(params.run_id);
  SpanRecorder* spans = traced ? &*recorder : nullptr;
  std::vector<std::string> failed_checks;

  // -- Set-up, repeated; the last instance runs the timed phase. ----------
  std::vector<double> setup_s;
  std::vector<uint64_t> setup_digests;
  std::unique_ptr<Instance> instance;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    instance.reset();
    ScopedSpan span(spans, "setup");
    const Clock::time_point start = Clock::now();
    instance = SetUp(*scenario, params, spans, span.id(), &failed_checks);
    setup_s.push_back(MsSince(start) / 1e3);
    setup_digests.push_back(SimulationDigest(*instance));
  }
  for (uint64_t digest : setup_digests) {
    if (digest != setup_digests.front()) {
      failed_checks.push_back("setup_deterministic");
      break;
    }
  }
  core::ClusterSystem& system = *instance->system;

  // -- Timed phase. --------------------------------------------------------
  obs::Profiler profiler;
  std::optional<obs::Profiler::ScopedInstall> profile_install;
  if (traced) {
    profiler.Enable(true);
    profile_install.emplace(&profiler);
  }
  const Totals before = Snapshot(*instance);
  const size_t ctrl_before = instance->controller->interval_end_ms().size();
  std::vector<double> interval_ms;
  interval_ms.reserve(static_cast<size_t>(params.intervals));
  size_t pending_max = 0;
  double cached_pages_sum = 0.0;
  const Clock::time_point timed_start = Clock::now();
  for (int i = 0; i < params.intervals; ++i) {
    ScopedSpan span(spans, "interval");
    instance->controller->SetSpanParent(spans, span.id());
    const Clock::time_point start = Clock::now();
    system.RunIntervals(1);
    interval_ms.push_back(MsSince(start));
    pending_max = std::max(pending_max, system.simulator().pending_events());
    cached_pages_sum +=
        static_cast<double>(system.directory().total_cached_pages());
  }
  const double timed_wall_s = MsSince(timed_start) / 1e3;
  profile_install.reset();
  profiler.Enable(false);
  instance->controller->SetSpanParent(nullptr, SpanRecorder::kNoParent);
  const Totals after = Snapshot(*instance);

  std::map<std::string, double> m;
  const uint64_t accesses = after.accesses() - before.accesses();
  const uint64_t events = after.events - before.events;

  // -- End-to-end metrics. -------------------------------------------------
  m["setup_s"] = Quantile(setup_s, 0.5);
  m["accesses_per_s"] = Ratio(static_cast<double>(accesses), timed_wall_s);
  m["interval_ms.p50"] = Quantile(interval_ms, 0.5);
  m["interval_ms.p90"] = Quantile(interval_ms, 0.9);
  m["interval_ms.samples"] = static_cast<double>(interval_ms.size());
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  m["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;

  const auto& records = system.metrics().records();
  const std::vector<ClassId> driven =
      DrivenClasses(*scenario, params.driven_classes);
  uint64_t goal_intervals = 0;
  uint64_t goal_satisfied = 0;
  double nogoal_rt_sum = 0.0;
  uint64_t nogoal_ops = 0;
  uint64_t ops_completed = 0;
  uint64_t ops_failed = 0;
  for (size_t i = before.records; i < records.size(); ++i) {
    for (const core::ClassIntervalMetrics& c : records[i].classes) {
      ops_completed += c.ops_completed;
      ops_failed += c.ops_failed;
      if (c.klass == kNoGoalClass) {
        nogoal_rt_sum += c.observed_rt_ms * static_cast<double>(c.ops_completed);
        nogoal_ops += c.ops_completed;
      } else if (std::find(driven.begin(), driven.end(), c.klass) !=
                 driven.end()) {
        ++goal_intervals;
        if (c.satisfied) ++goal_satisfied;
      }
    }
  }
  m["goal_attainment"] =
      Ratio(static_cast<double>(goal_satisfied), static_cast<double>(goal_intervals));
  // A goal not met within the censor limit counts as met at the limit
  // (right-censored), so goals that become unreachable raise the mean
  // instead of dropping out of it.
  double convergence_sum = 0.0;
  int64_t convergence_count = 0;
  int censored = 0;
  for (const auto& driver : instance->drivers) {
    convergence_sum += driver->iterations().sum() +
                       bench::GoalChangeDriver::kCensorLimit * driver->censored();
    convergence_count += driver->iterations().count() + driver->censored();
    censored += driver->censored();
  }
  m["convergence_intervals"] =
      Ratio(convergence_sum, static_cast<double>(convergence_count));
  m["convergence.samples"] = static_cast<double>(convergence_count);
  m["convergence.censored"] = censored;
  m["nogoal_rt_ms"] = Ratio(nogoal_rt_sum, static_cast<double>(nogoal_ops));
  const double txn_committed =
      static_cast<double>(after.txn_committed - before.txn_committed);
  const double txn_failed =
      static_cast<double>(after.txn_failed - before.txn_failed);
  const double attempted = static_cast<double>(ops_completed + ops_failed) +
                           txn_committed + txn_failed;
  const double failed = static_cast<double>(ops_failed) + txn_failed;
  m["failed_share"] = Ratio(failed, attempted);
  m["completed_share"] = 1.0 - m["failed_share"];
  m["ops.attempted"] = attempted;
  m["txn_commit_ms"] =
      Ratio(after.commit_ms_sum - before.commit_ms_sum, txn_committed);

  // -- Correctness checks on every run. ------------------------------------
  for (const workload::ClassSpec& spec : system.classes()) {
    uint64_t arrived = 0;
    uint64_t completed = 0;
    uint64_t failed_ops = 0;
    for (const core::IntervalRecord& record : records) {
      const core::ClassIntervalMetrics& c = record.ForClass(spec.id);
      arrived += c.ops_arrived;
      completed += c.ops_completed;
      failed_ops += c.ops_failed;
    }
    if (completed + failed_ops > arrived) {
      failed_checks.push_back("ops_le_arrived.class" + std::to_string(spec.id));
    }
    // Every completed operation made exactly accesses_per_op accesses and
    // no arrived one made more; update transactions add accesses to their
    // class beyond its operations, so that class has only the lower bound.
    const core::AccessCounters& counters = system.counters(spec.id);
    const uint64_t k = static_cast<uint64_t>(spec.accesses_per_op);
    const bool has_updates =
        instance->updates != nullptr && spec.id == GoalClasses(*scenario).front();
    if (counters.total() < completed * k ||
        (!has_updates && counters.total() > arrived * k)) {
      failed_checks.push_back("accesses_match_levels.class" +
                              std::to_string(spec.id));
    }
  }
  if (system.corrupt_served() != 0) failed_checks.push_back("corrupt_served_zero");
  if (convergence_count == 0) failed_checks.push_back("convergence_observed");
  // Operations fail only when their node crashes under them, so a failure
  // needs a crash in its interval or the one before, or a node that was
  // already down when the interval began. Without faults none may fail.
  if (instance->crashes_at_end.size() != records.size()) {
    failed_checks.push_back("crash_count_per_interval");
  } else {
    for (size_t i = before.records; i < records.size(); ++i) {
      uint64_t failed_in_interval = 0;
      for (const core::ClassIntervalMetrics& c : records[i].classes) {
        failed_in_interval += c.ops_failed;
      }
      const uint64_t crashes_before =
          i >= 2 ? instance->crashes_at_end[i - 2] : 0;
      const bool crash_near = instance->crashes_at_end[i] > crashes_before;
      const bool down_at_start =
          i >= 1 && records[i - 1].nodes_up < system.num_nodes();
      if (failed_in_interval > 0 && !crash_near && !down_at_start) {
        failed_checks.push_back("ops_fail_only_at_crashes");
        break;
      }
    }
  }

  // -- Per-layer metrics (traced run). -------------------------------------
  std::map<std::string, SpanRecorder::Totals> span_totals;
  if (traced) {
    if (!instance->auditor.ok()) {
      instance->auditor.WriteReport(stderr);
      failed_checks.push_back("auditor_zero_violations");
    }
    if (!(instance->attainment.max_sum_error() <= 1e-9)) {
      failed_checks.push_back("budget_sums_to_rt");
    }

    // PageSelector timing from outside: as many draws per class as the
    // timed phase made accesses of that class.
    uint64_t draws = 0;
    double sample_ms = 0.0;
    {
      ScopedSpan span(spans, "workload.selector_loop");
      common::Rng rng(
          common::DeriveStreamSeed(params.seed, bench::kAuxStreamBase));
      uint64_t sink = 0;
      for (const workload::ClassSpec& spec : system.classes()) {
        const workload::PageSelector selector(spec);
        const uint64_t n = after.counters.at(spec.id).total() -
                           before.counters.at(spec.id).total();
        const Clock::time_point start = Clock::now();
        for (uint64_t i = 0; i < n; ++i) sink += selector.Sample(&rng);
        sample_ms += MsSince(start);
        draws += n;
      }
      m["workload.sample_checksum"] = static_cast<double>(sink % 1000003);
    }
    m["workload.sample_ns"] = Ratio(sample_ms * 1e6, static_cast<double>(draws));

    m["sim.events"] = static_cast<double>(events);
    m["sim.events_per_access"] =
        Ratio(static_cast<double>(events), static_cast<double>(accesses));
    m["sim.pending_events.max"] = static_cast<double>(pending_max);
    const double timed_sim_ms = after.sim_ms - before.sim_ms;
    m["sim.cpu_util.max"] =
        MaxUtilization(before.cpu_busy_ms, after.cpu_busy_ms, timed_sim_ms);
    m["sim.cpu_wait_ms.mean"] = MeanWaitMs(before.cpu_wait, after.cpu_wait);

    const double acc = static_cast<double>(accesses);
    const auto level_delta = [&](StorageLevel level) {
      return static_cast<double>(after.level(level) - before.level(level));
    };
    m["cache.local_hit_ratio"] = Ratio(level_delta(StorageLevel::kLocalBuffer), acc);
    m["cache.remote_hit_ratio"] =
        Ratio(level_delta(StorageLevel::kRemoteBuffer), acc);
    m["cache.disk_ratio"] = Ratio(level_delta(StorageLevel::kLocalDisk) +
                                      level_delta(StorageLevel::kRemoteDisk),
                                  acc);
    uint64_t heat_records = 0;
    uint64_t quarantined = 0;
    for (NodeId node = 0; node < system.num_nodes(); ++node) {
      heat_records += system.node(node).HeatHistorySize();
      quarantined += system.node(node).node_cache().quarantined();
    }
    m["cache.heat_records"] = static_cast<double>(heat_records);
    m["cache.quarantined"] = static_cast<double>(quarantined);
    m["cache.victim_select_ms"] = PhaseMs(profiler, obs::Phase::kVictimSelect);
    m["cache.heap_maintain_ms"] = PhaseMs(profiler, obs::Phase::kHeapMaintain);
    m["cache.heat_update_ms"] = PhaseMs(profiler, obs::Phase::kHeatUpdate);

    uint64_t bytes = 0;
    for (size_t tc = 0; tc < after.bytes.size(); ++tc) {
      bytes += after.bytes[tc] - before.bytes[tc];
    }
    const size_t protocol = static_cast<size_t>(net::TrafficClass::kPartitionProtocol);
    m["net.bytes_per_access"] = Ratio(static_cast<double>(bytes), acc);
    m["net.messages"] = static_cast<double>(after.messages - before.messages);
    m["net.dropped"] = static_cast<double>(after.dropped - before.dropped);
    m["net.protocol_share"] = Ratio(
        static_cast<double>(after.bytes[protocol] - before.bytes[protocol]),
        static_cast<double>(bytes));
    m["directory.cached_pages.mean"] = cached_pages_sum / params.intervals;
    const double remote_hits = level_delta(StorageLevel::kRemoteBuffer);
    const double fallbacks =
        static_cast<double>(after.fetch_fallbacks() - before.fetch_fallbacks());
    m["directory.fetch_success"] = Ratio(remote_hits, remote_hits + fallbacks);
    m["net.send_ms"] = PhaseMs(profiler, obs::Phase::kNetSend);
    m["net.receive_ms"] = PhaseMs(profiler, obs::Phase::kNetReceive);

    m["storage.disk_reads"] = static_cast<double>(after.disk_reads - before.disk_reads);
    m["storage.disk_writes"] =
        static_cast<double>(after.disk_writes - before.disk_writes);
    m["storage.disk_util.max"] =
        MaxUtilization(before.disk_busy_ms, after.disk_busy_ms, timed_sim_ms);
    m["storage.disk_wait_ms.mean"] = MeanWaitMs(before.disk_wait, after.disk_wait);
    m["storage.corrupt_detected"] =
        static_cast<double>(after.corrupt_detected - before.corrupt_detected);
    m["storage.repairs_replica"] =
        static_cast<double>(after.repairs_replica - before.repairs_replica);
    m["storage.pages_lost"] = static_cast<double>(after.pages_lost - before.pages_lost);
    m["storage.pages_scrubbed"] =
        static_cast<double>(after.pages_scrubbed - before.pages_scrubbed);

    const std::vector<double>& all_ctrl = instance->controller->interval_end_ms();
    const std::vector<double> ctrl(all_ctrl.begin() + static_cast<long>(ctrl_before),
                                   all_ctrl.end());
    double ctrl_total = 0.0;
    for (double v : ctrl) ctrl_total += v;
    m["controller.interval_end_ms"] = ctrl_total;
    m["controller.interval_end_ms.p50"] = Quantile(ctrl, 0.5);
    m["controller.interval_end_ms.max"] =
        ctrl.empty() ? 0.0 : *std::max_element(ctrl.begin(), ctrl.end());
    m["controller.interval_end_share"] = Ratio(ctrl_total, timed_wall_s * 1e3);
    const auto& c0 = before.controller;
    const auto& c1 = after.controller;
    m["controller.checks"] = static_cast<double>(c1.checks - c0.checks);
    m["controller.lp_optimizations"] =
        static_cast<double>(c1.lp_optimizations - c0.lp_optimizations);
    const double warm = static_cast<double>(c1.lp_warm_starts - c0.lp_warm_starts);
    const double cold = static_cast<double>(c1.lp_cold_starts - c0.lp_cold_starts);
    m["controller.lp_warm_share"] = Ratio(warm, warm + cold);
    const double optimal =
        static_cast<double>(c1.lp_status_optimal - c0.lp_status_optimal);
    const double solves =
        optimal +
        static_cast<double>(c1.lp_status_infeasible - c0.lp_status_infeasible) +
        static_cast<double>(c1.lp_status_unbounded - c0.lp_status_unbounded) +
        static_cast<double>(c1.lp_status_iteration_limit -
                            c0.lp_status_iteration_limit);
    m["controller.lp_optimal_share"] = Ratio(optimal, solves);
    m["controller.relaxed_retries"] =
        static_cast<double>(c1.lp_relaxed_retries - c0.lp_relaxed_retries);
    m["controller.warmup_steps"] =
        static_cast<double>(c1.warmup_steps - c0.warmup_steps);
    m["la.simplex_solve_ms"] = PhaseMs(profiler, obs::Phase::kSimplexSolve);
    m["la.row_replace_ms"] = PhaseMs(profiler, obs::Phase::kRowReplace);
    m["ctrl.check_ms"] = PhaseMs(profiler, obs::Phase::kControllerCheck);

    const double commits = static_cast<double>(after.txn.commits - before.txn.commits);
    const double deaths = static_cast<double>(after.txn.deaths - before.txn.deaths);
    m["txn.commit_share"] = Ratio(commits, commits + deaths);
    m["txn.deaths"] = deaths;
    m["txn.retries_exhausted"] = static_cast<double>(
        after.txn.retries_exhausted - before.txn.retries_exhausted);
    m["txn.lock_waits"] = static_cast<double>(after.lock_waits - before.lock_waits);
    m["txn.wal_forces"] = static_cast<double>(after.wal_forces - before.wal_forces);
    m["txn.pages_invalidated"] = static_cast<double>(
        after.txn.pages_invalidated - before.txn.pages_invalidated);

    m["faults.crashes"] = static_cast<double>(after.crashes - before.crashes);
    m["faults.fetch_fallbacks"] = fallbacks;
    m["faults.lease_acquisitions"] =
        static_cast<double>(c1.lease_acquisitions - c0.lease_acquisitions);
    m["faults.ops_failed"] = static_cast<double>(ops_failed);

    // Sim-time latency budget per request, goal classes pooled and the
    // no-goal class, over the timed intervals.
    double goal_requests = 0.0;
    double nogoal_requests = 0.0;
    double goal_phase[obs::kNumBudgetPhases] = {};
    double nogoal_phase[obs::kNumBudgetPhases] = {};
    for (const obs::AttainmentTracker::BudgetRow& row :
         instance->attainment.rows()) {
      if (row.sim_time_ms <= before.sim_ms) continue;
      const bool nogoal = row.klass == kNoGoalClass;
      (nogoal ? nogoal_requests : goal_requests) += static_cast<double>(row.requests);
      for (int p = 0; p < obs::kNumBudgetPhases; ++p) {
        (nogoal ? nogoal_phase : goal_phase)[p] += row.phase_ms[p];
      }
    }
    for (int p = 0; p < obs::kNumBudgetPhases; ++p) {
      const std::string phase = obs::BudgetPhaseName(static_cast<obs::BudgetPhase>(p));
      m["budget.goal." + phase + "_ms"] = Ratio(goal_phase[p], goal_requests);
      m["budget.nogoal." + phase + "_ms"] = Ratio(nogoal_phase[p], nogoal_requests);
    }

    // Unattributed: dispatch time no profiler phase claims, plus interval
    // time spent outside the dispatch loop altogether.
    span_totals = spans->Summarize();
    const double interval_total_ms = span_totals["interval"].total_ms;
    const double sim_step_ms = PhaseMs(profiler, obs::Phase::kSimStep);
    const double unattributed_ms =
        static_cast<double>(SimStepSelfNs(profiler)) / 1e6 +
        std::max(0.0, interval_total_ms - sim_step_ms);
    m["obs.unattributed_share"] = Ratio(unattributed_ms, interval_total_ms);
    m["obs.spans"] = static_cast<double>(spans->spans().size());

    if (!params.out_dir.empty()) {
      const std::string path = params.out_dir + "/spans.jsonl";
      std::FILE* out = std::fopen(path.c_str(), "w");
      if (out == nullptr) {
        failed_checks.push_back("spans_written");
      } else {
        spans->WriteJsonl(out);
        std::fclose(out);
      }
    }
  }

  // -- Result. -------------------------------------------------------------
  std::sort(failed_checks.begin(), failed_checks.end());
  failed_checks.erase(std::unique(failed_checks.begin(), failed_checks.end()),
                      failed_checks.end());
  std::printf("{\"digest\":\"%016" PRIx64 "\",\"setup_digest\":\"%016" PRIx64
              "\",\"setup_reps\":%d,\"timed_wall_s\":%.17g,\"events\":%" PRIu64
              ",\"accesses\":%" PRIu64 ",\"failed_checks\":[",
              SimulationDigest(*instance), setup_digests.front(), kSetupReps,
              timed_wall_s, events, accesses);
  for (size_t i = 0; i < failed_checks.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ",", failed_checks[i].c_str());
  }
  std::printf("],\"metrics\":{");
  bool first = true;
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(),
                std::isfinite(value) ? value : 0.0);
    first = false;
  }
  std::printf("},\"spans\":{");
  first = true;
  for (const auto& [name, t] : span_totals) {
    std::printf("%s\"%s\":{\"count\":%" PRIu64
                ",\"total_ms\":%.17g,\"self_ms\":%.17g}",
                first ? "" : ",", name.c_str(), t.count, t.total_ms, t.self_ms);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace memgoal::perfbench

int main(int argc, char** argv) { return memgoal::perfbench::Main(argc, argv); }
