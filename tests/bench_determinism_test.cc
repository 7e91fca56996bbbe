// Reproducibility harness for the parallel trial runner: the same `Setup`
// must yield bit-identical interval records no matter when it runs, and a
// pooled experiment must yield bit-identical statistics no matter how many
// runner threads execute its trials. These tests pin the contract stated in
// bench/trial_runner.h; a failure here means some shared mutable state or
// order-dependent seeding crept back into the trial path.
//
// The GoldenDigest suite extends the same idea across commits: every
// scenario file under tools/scenarios/ and a set of fault, chaos and
// observability configurations must reproduce pinned digests of their
// metrics CSV and controller decision logs, so any change in simulated
// behaviour shows up as a reviewed re-pin. One fault case also pins its
// Chrome trace, so the access path's span emission is held byte for byte.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/experiment.h"
#include "bench/trial_runner.h"
#include "common/config.h"
#include "common/rng.h"
#include "core/goal_controller.h"
#include "core/metrics.h"
#include "core/scenario.h"
#include "core/system.h"
#include "obs/attainment.h"
#include "obs/decision_log.h"
#include "obs/trace.h"
#include "sim/chaos_schedule.h"
#include "sim/invariant_auditor.h"

namespace memgoal::bench {
namespace {

using ExperimentSetup = ::memgoal::bench::Setup;

ExperimentSetup SmallSetup(uint64_t seed) {
  ExperimentSetup setup;
  setup.seed = seed;
  setup.pages_per_class = 100;
  setup.cache_bytes_per_node = 64 * 4096;
  setup.interarrival_ms = 50.0;
  setup.observation_interval_ms = 2000.0;
  return setup;
}

// An in-memory FILE* whose bytes are read back once it is closed.
class MemoryStream {
 public:
  MemoryStream() : file_(open_memstream(&buf_, &size_)) {}
  MemoryStream(const MemoryStream&) = delete;
  MemoryStream& operator=(const MemoryStream&) = delete;
  ~MemoryStream() {
    if (file_ != nullptr) std::fclose(file_);
    std::free(buf_);
  }

  std::FILE* file() const { return file_; }

  // Closes the stream and returns every byte written to it.
  std::string Take() {
    std::fclose(file_);
    file_ = nullptr;
    return std::string(buf_, size_);
  }

 private:
  char* buf_ = nullptr;
  size_t size_ = 0;
  std::FILE* file_ = nullptr;
};

// The bytes `write` emits to a FILE*.
template <typename WriteFn>
std::string Capture(WriteFn&& write) {
  MemoryStream stream;
  write(stream.file());
  return stream.Take();
}

// Renders a run's full interval log as CSV, the same bytes
// `tools/memgoal_sim` would emit. Comparing the serialized form catches any
// divergence in any field of any record.
std::string CsvOf(const core::MetricsLog& log) {
  return Capture([&](std::FILE* f) { log.WriteCsv(f); });
}

// One complete simulation trial -> its interval CSV.
std::string RunTrialCsv(uint64_t master_seed, int trial, int intervals) {
  ExperimentSetup setup =
      SmallSetup(common::DeriveStreamSeed(master_seed, static_cast<uint64_t>(trial)));
  std::unique_ptr<core::ClusterSystem> system = BuildSystem(setup);
  system->SetGoal(1, 30.0);
  system->Start();
  system->RunIntervals(intervals);
  return CsvOf(system->metrics());
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

TEST(TrialRunnerTest, ResultsLandInTrialOrder) {
  TrialRunner runner(4);
  const std::vector<int> results =
      runner.Run(16, [](int trial) { return trial * trial; });
  ASSERT_EQ(results.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(results[static_cast<size_t>(i)], i * i);
}

TEST(TrialRunnerTest, HandlesZeroTrialsAndMoreThreadsThanTrials) {
  TrialRunner runner(8);
  EXPECT_TRUE(runner.Run(0, [](int trial) { return trial; }).empty());
  const std::vector<int> two = runner.Run(2, [](int trial) { return trial + 1; });
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], 1);
  EXPECT_EQ(two[1], 2);
}

TEST(TrialRunnerTest, PropagatesTrialExceptions) {
  TrialRunner runner(4);
  EXPECT_THROW(runner.Run(8,
                          [](int trial) {
                            if (trial == 5) throw std::runtime_error("trial 5");
                            return trial;
                          }),
               std::runtime_error);
}

TEST(DeterminismTest, SameSetupTwiceGivesIdenticalIntervalCsv) {
  // Two cold runs of the same Setup in the same process: every interval
  // record must serialize to the same bytes. Guards against static caches
  // or other cross-run state in the simulator.
  const std::string first = RunTrialCsv(17, 0, 10);
  const std::string second = RunTrialCsv(17, 0, 10);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(DeterminismTest, TrialCsvsIdenticalAcrossThreadCounts) {
  // Four independent trials run serially and on a 4-thread pool must
  // produce identical per-trial CSVs: trial randomness derives from
  // (master_seed, trial_index) only, never from scheduling order.
  constexpr int kTrials = 4;
  const auto run_all = [](int threads) {
    TrialRunner runner(threads);
    return runner.Run(kTrials, [](int trial) {
      return RunTrialCsv(23, trial, 8);
    });
  };
  const std::vector<std::string> serial = run_all(1);
  const std::vector<std::string> parallel = run_all(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (int i = 0; i < kTrials; ++i) {
    EXPECT_EQ(serial[static_cast<size_t>(i)], parallel[static_cast<size_t>(i)])
        << "trial " << i << " diverged between 1 and 4 threads";
  }
  // And the trials are genuinely distinct experiments, not copies.
  EXPECT_NE(serial[0], serial[1]);
}

TEST(DeterminismTest, PooledConvergenceStatsBitIdenticalAcrossThreadCounts) {
  // The full Table-2 protocol: calibration + pooled convergence runs. Every
  // field of the pooled result — including the accumulated doubles — must
  // be bit-for-bit identical between a serial and a 4-thread execution.
  const ExperimentSetup base = SmallSetup(31);
  ConvergencePlan plan;
  plan.max_runs = 3;
  plan.intervals_per_run = 20;
  plan.calibration_intervals = 8;

  TrialRunner serial_runner(1);
  TrialRunner parallel_runner(4);
  const ConvergenceResult serial = MeasureConvergence(base, plan, &serial_runner);
  const ConvergenceResult parallel =
      MeasureConvergence(base, plan, &parallel_runner);

  EXPECT_EQ(serial.goals_completed, parallel.goals_completed);
  EXPECT_EQ(serial.censored, parallel.censored);
  EXPECT_EQ(serial.runs_used, parallel.runs_used);
  EXPECT_EQ(Bits(serial.goal_lo), Bits(parallel.goal_lo));
  EXPECT_EQ(Bits(serial.goal_hi), Bits(parallel.goal_hi));
  EXPECT_EQ(serial.iterations.count(), parallel.iterations.count());
  EXPECT_EQ(Bits(serial.iterations.mean()), Bits(parallel.iterations.mean()));
  EXPECT_EQ(Bits(serial.iterations.variance()),
            Bits(parallel.iterations.variance()));
  EXPECT_EQ(Bits(serial.iterations.min()), Bits(parallel.iterations.min()));
  EXPECT_EQ(Bits(serial.iterations.max()), Bits(parallel.iterations.max()));

  // The protocol actually produced samples (the assertions above are not
  // vacuously comparing empty accumulators).
  EXPECT_GT(serial.iterations.count(), 0);
  EXPECT_GT(serial.goals_completed, 0);
}

TEST(DeterminismTest, MeasureConvergenceDefaultsToInlineRunner) {
  // Without a runner the protocol runs inline and must match a 1-thread
  // runner exactly.
  const ExperimentSetup base = SmallSetup(37);
  ConvergencePlan plan;
  plan.max_runs = 2;
  plan.intervals_per_run = 15;
  plan.calibration_intervals = 6;
  TrialRunner one(1);
  const ConvergenceResult inline_result = MeasureConvergence(base, plan);
  const ConvergenceResult runner_result = MeasureConvergence(base, plan, &one);
  EXPECT_EQ(inline_result.iterations.count(), runner_result.iterations.count());
  EXPECT_EQ(Bits(inline_result.iterations.mean()),
            Bits(runner_result.iterations.mean()));
  EXPECT_EQ(inline_result.runs_used, runner_result.runs_used);
  EXPECT_EQ(Bits(inline_result.goal_lo), Bits(runner_result.goal_lo));
  EXPECT_EQ(Bits(inline_result.goal_hi), Bits(runner_result.goal_hi));
}


// ---------------------------------------------------------------------------
// Golden digests of whole-scenario runs.
//
// Each case below is a complete cluster run reduced to its observable
// outputs — event count, interval metrics CSV, controller decision log,
// the metrics registry's CSV and JSONL export and (when tracked) attainment
// JSONL — and pinned by FNV-1a digest. The cases
// cover every checked-in scenario file, generated chaos schedules (also
// through their repro-file text form), burst loss with the auditor, active
// corruption with scrubbing, the corruption machinery at rate zero,
// enabled attainment tracking, and the heat-history sweep under a short
// horizon. Any change in simulated behaviour — event order, RNG draw
// order, a controller decision, one LP answer — changes a digest. On a
// mismatch the test prints the recomputed table; an intended change is
// then a reviewed re-pin of the affected rows.

struct RunOutputs {
  uint64_t events = 0;
  std::string metrics_csv;
  std::string decision_jsonl;
  std::string attainment_jsonl;
  std::string trace_json;
  /// The registry's CSV export followed by its JSONL export.
  std::string registry_export;
};

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 0xCBF29CE484222325ull;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

// The optimality certificate must hold for every LP the controller solved.
void ExpectLpCertified(core::ClusterSystem& system, const std::string& what) {
  const auto* controller =
      dynamic_cast<const core::GoalOrientedController*>(&system.controller());
  ASSERT_NE(controller, nullptr) << what;
  EXPECT_EQ(controller->stats().lp_certificate_failures, 0u) << what;
}

struct GoldenCase {
  std::string name;
  /// Scenario key=value text; later lines override earlier ones.
  std::string text;
  /// Fault schedule applied after loading, as chaos_fuzz replays a repro.
  std::optional<sim::chaos::Schedule> schedule;
  bool track_attainment = false;
  /// Overrides SystemConfig::heat_horizon_intervals (no scenario key).
  std::optional<double> heat_horizon_intervals;
  /// When set, the case runs with an enabled tracer attached and its trace
  /// JSON must hash to this digest. A tracer is a pure observer, so the
  /// case's other digests are those of its untraced run.
  std::optional<uint64_t> trace_digest = std::nullopt;
};

std::optional<RunOutputs> RunCase(const GoldenCase& c) {
  common::Config config;
  if (!config.ParseText(c.text)) {
    ADD_FAILURE() << c.name << ": bad scenario text: " << config.error();
    return std::nullopt;
  }
  std::string error;
  std::optional<core::Scenario> scenario = core::LoadScenario(config, &error);
  if (!scenario.has_value()) {
    ADD_FAILURE() << c.name << ": LoadScenario: " << error;
    return std::nullopt;
  }
  if (c.schedule.has_value()) {
    sim::chaos::ApplyToFaultParams(*c.schedule, &scenario->system.faults);
  }
  if (c.heat_horizon_intervals.has_value()) {
    scenario->system.heat_horizon_intervals = *c.heat_horizon_intervals;
  }
  core::ClusterSystem system(scenario->system);
  for (const workload::ClassSpec& spec : scenario->classes) {
    system.AddClass(spec);
  }
  obs::DecisionLog decision_log;
  system.SetDecisionLog(&decision_log);
  obs::AttainmentTracker tracker;
  if (c.track_attainment) {
    tracker.Enable(true);
    system.SetAttainment(&tracker);
  }
  obs::Tracer tracer;
  if (c.trace_digest.has_value()) {
    tracer.Enable(true);
    system.SetTracer(&tracer);
  }
  sim::InvariantAuditor auditor;
  if (scenario->audit) system.EnableAuditor(&auditor);
  MemoryStream registry_csv;
  MemoryStream registry_jsonl;
  system.registry().AttachCsv(registry_csv.file());
  system.registry().AttachJsonl(registry_jsonl.file());
  system.Start();
  system.RunIntervals(scenario->intervals);
  EXPECT_TRUE(!scenario->audit || auditor.ok()) << c.name;
  ExpectLpCertified(system, c.name);

  RunOutputs out;
  out.events = system.simulator().events_processed();
  out.metrics_csv = CsvOf(system.metrics());
  out.decision_jsonl =
      Capture([&](std::FILE* f) { decision_log.WriteJsonl(f); });
  if (c.track_attainment) {
    EXPECT_GT(tracker.requests_recorded(), 0u) << c.name;
    EXPECT_LE(tracker.max_sum_error(), 1e-9) << c.name;
    out.attainment_jsonl =
        Capture([&](std::FILE* f) { tracker.WriteJsonl(f); });
  }
  if (c.trace_digest.has_value()) tracer.AppendJson(&out.trace_json);
  out.registry_export = registry_csv.Take() + registry_jsonl.Take();
  return out;
}

std::vector<GoldenCase> GoldenCases() {
  std::vector<GoldenCase> cases;
  // Every checked-in scenario file, cut to a test-sized horizon: multiclass
  // goals, crash faults, gray degradation, burst loss, partitions,
  // corruption.
  for (const char* name : {"base.conf", "corrupt.conf", "faults.conf",
                           "gray.conf", "oltp_dss.conf", "partition.conf"}) {
    const std::string path = std::string(MEMGOAL_SCENARIO_DIR "/") + name;
    std::ifstream file(path);
    EXPECT_TRUE(file.is_open()) << path;
    std::ostringstream buffer;
    buffer << file.rdbuf();
    cases.push_back(
        {name, buffer.str() + "\nintervals=6\n", {}, false, {}});
  }
  // Chaos-fuzz configurations: a generated schedule of crashes, gray
  // episodes and partitions over a small multiclass cluster.
  const std::string chaos_base =
      "nodes=4\ndb_pages=800\ncache_bytes=262144\n"
      "interval_ms=2000\nintervals=8\nseed=5\n"
      "classes=2\nclass1_goal_ms=60\n";
  for (const uint64_t chaos_seed : {11ull, 4242ull, 987654321ull}) {
    cases.push_back({"chaos_seed=" + std::to_string(chaos_seed),
                     chaos_base +
                         "class0_interarrival_ms=40\n"
                         "class1_interarrival_ms=40\n"
                         "chaos_seed=" + std::to_string(chaos_seed) + "\n",
                     {}, false, {}});
  }
  // The repro-file path: a generated schedule serialized with ToText and
  // parsed back with FromText before it is applied.
  sim::chaos::GenerateLimits limits;
  limits.num_nodes = 4;
  limits.horizon_ms = 8 * 2000.0;
  sim::chaos::Schedule replayed;
  EXPECT_TRUE(sim::chaos::FromText(
      sim::chaos::ToText(sim::chaos::Generate(777u, limits)), &replayed));
  cases.push_back({"repro-file-777", chaos_base, replayed, false, {}});
  // Burst-loss retransmission timers give the densest same-timestamp
  // collisions; the auditor adds interval-boundary sweeps.
  cases.push_back({"burst-loss+audit",
                   "nodes=3\ndb_pages=600\ncache_bytes=262144\n"
                   "interval_ms=2000\nintervals=6\nseed=3\n"
                   "net_loss_model=burst\nnet_burst_g2b=0.01\n"
                   "net_burst_b2g=0.3\nnet_loss=0.02\naudit=1\n"
                   "classes=2\nclass1_goal_ms=80\n",
                   {}, false, {}});
  const std::string mixed =
      chaos_base +
      "class0_interarrival_ms=40\nclass1_interarrival_ms=40\n";
  // Active corruption: a scripted multi-strike episode plus the MTTC
  // process, with the idle-bandwidth scrubber running.
  cases.push_back({"corruption+scrub",
                   mixed +
                       "corrupt=all\ncorrupt_latent=0.25\nfault_mttc_ms=4000\n"
                       "corrupt_node=1\ncorrupt_at_ms=1500\ncorrupt_count=3\n"
                       "corrupt_salt=9\nscrub=idle\nscrub_interval_ms=500\n"
                       "audit=1\n",
                   {}, false, {}});
  // Crash faults without and with the corruption keys at rate zero, and
  // with attainment tracking enabled: the invariance checks in the test
  // compare these three.
  const std::string crashes =
      mixed + "fault_mttf_ms=30000\nfault_mttr_ms=5000\n";
  cases.push_back({"crashes", crashes, {}, false, {}});
  cases.push_back({"crashes+zero-rate-corruption",
                   crashes + "corrupt=all\ncorrupt_latent=0.25\n", {}, false,
                   {}});
  cases.push_back({"crashes+attainment", crashes, {}, true, {}});
  // Crashes plus a gray episode whose late answers make requesters hedge,
  // traced and budgeted: every access-path span and instant occurs, and the
  // fetch-wait and backoff phases are charged. The digests were pinned
  // before the page-access path was split into stages.
  cases.push_back({"crashes+gray+trace",
                   crashes +
                       "degrade_node=2\ndegrade_at_ms=4000\n"
                       "degrade_factor=25\nrestore_at_ms=10000\n"
                       "crash_detect_timeout_ms=2.0\n",
                   {}, true, {}, 0x8F9B16300CD53219ull});
  // The bounded-memory heat sweep: a 2-interval horizon over 36 intervals
  // ages histories out every interval. A crash wipes one node's heat
  // state, and a partition swallows heat hints that the heal re-reports
  // after their pages' histories aged out, leaving hint bookkeeping with no
  // history behind for the sweep to prune.
  cases.push_back({"heat-sweep+crash+partition",
                   "nodes=3\ndb_pages=600\ncache_bytes=262144\n"
                   "interval_ms=1000\nintervals=36\nseed=13\n"
                   "crash_node=1\ncrash_at_ms=6000\nrecover_at_ms=11000\n"
                   "partition_nodes=2\npartition_at_ms=15000\n"
                   "heal_at_ms=24000\ncrash_detect_timeout_ms=2.0\naudit=1\n"
                   "classes=2\nclass1_goal_ms=60\n"
                   "class0_interarrival_ms=40\nclass1_interarrival_ms=40\n",
                   {}, false, 2.0});
  return cases;
}

struct GoldenDigests {
  const char* name;
  uint64_t events;
  uint64_t metrics_csv;
  uint64_t decision_jsonl;
  /// 0 when the case does not track attainment.
  uint64_t attainment_jsonl;
  uint64_t registry_export;
};

// Recorded before the event queue and the LP solver were reduced to one
// implementation each, where the calendar queue and the binary heap, and
// the revised and dense simplex, still produced these bytes identically.
// The registry digests (last column) were recorded while the registry kept
// every snapshot and exported the whole history at the end of the run.
constexpr GoldenDigests kGolden[] = {
    {"base.conf", 167669u, 0x154120DC3F5A3C48ull, 0x8273710A041BFB3Eull,
     0x0000000000000000ull, 0x909263CEDD115B13ull},
    {"corrupt.conf", 168377u, 0x375FE475E817FB57ull, 0xF52C3324E61F425Eull,
     0x0000000000000000ull, 0xCCD340B0A316A882ull},
    {"faults.conf", 168317u, 0x567381C4B0A21547ull, 0xF2CAB393807069D8ull,
     0x0000000000000000ull, 0x3556BFDB6A420F45ull},
    {"gray.conf", 167669u, 0x154120DC3F5A3C48ull, 0x8273710A041BFB3Eull,
     0x0000000000000000ull, 0x909263CEDD115B13ull},
    {"oltp_dss.conf", 99551u, 0x80AA29E818BFD46Full, 0x93A6866F0F2CC5AEull,
     0x0000000000000000ull, 0x8580281A8FD7CED6ull},
    {"partition.conf", 167669u, 0x154120DC3F5A3C48ull, 0x8273710A041BFB3Eull,
     0x0000000000000000ull, 0x5ADA5CBCEE8AE8ADull},
    {"chaos_seed=11", 68230u, 0xBEB58FF65C76FBDBull, 0x2000BEB85B4458F7ull,
     0x0000000000000000ull, 0xD1B45C926D10A5DDull},
    {"chaos_seed=4242", 78289u, 0x7FA7322535339397ull, 0x92CF6CDA046EB51Cull,
     0x0000000000000000ull, 0xAD0BB8DB9305C777ull},
    {"chaos_seed=987654321", 77163u, 0xC7C6A462DD852343ull, 0x50769F5CD6F8DDFCull,
     0x0000000000000000ull, 0x64DE43378141383Cull},
    {"repro-file-777", 41675u, 0xAC276CCCD50EBFAFull, 0xC7AA9588845B9E7Bull,
     0x0000000000000000ull, 0xE13BFC7F5E7A3997ull},
    {"burst-loss+audit", 24489u, 0x9C0BF2841ED14ECFull, 0xA45B0752EB4E634Bull,
     0x0000000000000000ull, 0x2B1E46CC2A8B905Full},
    {"corruption+scrub", 95179u, 0x4F2813A6650F4D29ull, 0xF9373305E76AB8C8ull,
     0x0000000000000000ull, 0x68B9010512BA741Dull},
    {"crashes", 88822u, 0x9CE540EC09B15C78ull, 0x0A80A04406BE58D2ull,
     0x0000000000000000ull, 0xE4501DE4B8D18FACull},
    {"crashes+zero-rate-corruption", 88822u, 0x9CE540EC09B15C78ull, 0x0A80A04406BE58D2ull,
     0x0000000000000000ull, 0xE4501DE4B8D18FACull},
    {"crashes+attainment", 88822u, 0x9CE540EC09B15C78ull, 0x02DB7D9E55335C60ull,
     0x0125739A0C539EFEull, 0x3A1DA2454BDCB33Dull},
    // Recorded before the page-access path was split into stages.
    {"crashes+gray+trace", 81558u, 0x2FCDA9CE89131B81ull, 0xB0B235C8FC67804Full,
     0x6C212FA56DD13EF1ull, 0x9002AE2BD4B529ACull},
    // Recorded while the heat sweep still scanned every record.
    {"heat-sweep+crash+partition", 128279u, 0xCB201FE1350D0344ull,
     0x48764E36E7240303ull, 0x0000000000000000ull, 0x0BFE6362AF313E91ull},
};

TEST(GoldenDigest, EveryCaseReplaysItsPinnedOutputs) {
  std::map<std::string, RunOutputs> runs;
  std::ostringstream table;
  bool mismatch = false;
  for (const GoldenCase& c : GoldenCases()) {
    const std::optional<RunOutputs> out = RunCase(c);
    ASSERT_TRUE(out.has_value()) << c.name;
    EXPECT_GT(out->events, 0u) << c.name;
    EXPECT_FALSE(out->decision_jsonl.empty()) << c.name;
    const GoldenDigests got = {
        c.name.c_str(), out->events, Fnv1a(out->metrics_csv),
        Fnv1a(out->decision_jsonl),
        c.track_attainment ? Fnv1a(out->attainment_jsonl) : 0,
        Fnv1a(out->registry_export)};
    char line[224];
    std::snprintf(line, sizeof(line),
                  "    {\"%s\", %lluu, 0x%016llXull, 0x%016llXull,\n"
                  "     0x%016llXull, 0x%016llXull},\n",
                  got.name, static_cast<unsigned long long>(got.events),
                  static_cast<unsigned long long>(got.metrics_csv),
                  static_cast<unsigned long long>(got.decision_jsonl),
                  static_cast<unsigned long long>(got.attainment_jsonl),
                  static_cast<unsigned long long>(got.registry_export));
    table << line;
    const GoldenDigests* pinned = nullptr;
    for (const GoldenDigests& g : kGolden) {
      if (c.name == g.name) pinned = &g;
    }
    if (pinned == nullptr || pinned->events != got.events ||
        pinned->metrics_csv != got.metrics_csv ||
        pinned->decision_jsonl != got.decision_jsonl ||
        pinned->attainment_jsonl != got.attainment_jsonl ||
        pinned->registry_export != got.registry_export) {
      ADD_FAILURE() << c.name << ": outputs differ from the pinned digests";
      mismatch = true;
    }
    if (c.trace_digest.has_value()) {
      // Every span and instant the access path emits must occur, so the
      // digest covers each emission site.
      for (const char* name :
           {"access", "cache_probe", "dir_lookup", "hedge", "fetch_timeout",
            "fetch_wait", "backoff", "disk_read"}) {
        EXPECT_NE(out->trace_json.find("{\"name\":\"" + std::string(name) +
                                       "\",\"cat\":\"access\""),
                  std::string::npos)
            << c.name << ": no " << name << " in the trace";
      }
      const uint64_t trace = Fnv1a(out->trace_json);
      EXPECT_EQ(trace, *c.trace_digest)
          << c.name << ": trace digest differs; recomputed 0x" << std::hex
          << std::uppercase << trace << "ull";
    }
    runs.emplace(c.name, std::move(*out));
  }
  if (mismatch) {
    ADD_FAILURE() << "recomputed digest table:\n" << table.str();
  }

  // The corruption machinery at rate zero makes no RNG draw and schedules
  // no event, so its run is byte-identical to one without the keys.
  const RunOutputs& bare = runs.at("crashes");
  const RunOutputs& zero_rate = runs.at("crashes+zero-rate-corruption");
  EXPECT_EQ(bare.events, zero_rate.events);
  EXPECT_EQ(bare.metrics_csv, zero_rate.metrics_csv);
  EXPECT_EQ(bare.decision_jsonl, zero_rate.decision_jsonl);
  EXPECT_EQ(bare.registry_export, zero_rate.registry_export);
  // The attainment tracker is a pure observer: the simulation is unchanged
  // (its decision records legitimately gain miss-card fields).
  const RunOutputs& tracked = runs.at("crashes+attainment");
  EXPECT_EQ(bare.events, tracked.events);
  EXPECT_EQ(bare.metrics_csv, tracked.metrics_csv);
  EXPECT_FALSE(tracked.attainment_jsonl.empty());
}

}  // namespace
}  // namespace memgoal::bench
