// Certified replay of the controller's LPs. Every LP a scenario run posed
// (planes, goal and bounds straight from its decision log) is re-solved
// offline, and every optimal solve must pass its optimality certificate
// (la::CheckKkt via SimplexSolver): primal feasibility, reduced-cost signs,
// complementary slackness and strong duality, independent of the solver's
// own tolerances. Cold replays must reproduce the logged decision bit for
// bit, and warm-started ones must reproduce it from the logged basis. The
// §8 variance objective, which no committed scenario runs, is pinned at its
// known outcomes. Whole-run behaviour is pinned separately by the golden
// digests in bench_determinism_test.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.h"
#include "core/goal_controller.h"
#include "core/metrics.h"
#include "core/optimizer.h"
#include "core/scenario.h"
#include "core/system.h"
#include "core/variance_optimizer.h"
#include "la/simplex.h"
#include "obs/decision_log.h"

namespace memgoal::core {
namespace {

std::string CsvOf(const MetricsLog& log) {
  char* buf = nullptr;
  size_t size = 0;
  std::FILE* stream = open_memstream(&buf, &size);
  log.WriteCsv(stream);
  std::fclose(stream);
  std::string csv(buf, size);
  std::free(buf);
  return csv;
}

struct LpRun {
  std::string metrics_csv;
  std::vector<obs::DecisionRecord> records;
  uint64_t events = 0;
};

// One full scenario run of `text` (scenario key=value lines).
std::optional<LpRun> RunScenarioLp(const std::string& text) {
  common::Config config;
  if (!config.ParseText(text)) {
    ADD_FAILURE() << "bad scenario text: " << config.error();
    return std::nullopt;
  }
  std::string error;
  std::optional<Scenario> scenario = LoadScenario(config, &error);
  if (!scenario.has_value()) {
    ADD_FAILURE() << "LoadScenario: " << error;
    return std::nullopt;
  }
  ClusterSystem system(scenario->system);
  for (const workload::ClassSpec& spec : scenario->classes) {
    system.AddClass(spec);
  }
  obs::DecisionLog decision_log;
  system.SetDecisionLog(&decision_log);
  system.Start();
  system.RunIntervals(scenario->intervals);
  const auto& controller =
      dynamic_cast<const GoalOrientedController&>(system.controller());
  EXPECT_EQ(controller.stats().lp_certificate_failures, 0u);

  LpRun run;
  run.metrics_csv = CsvOf(system.metrics());
  run.records = decision_log.records();
  run.events = system.simulator().events_processed();
  return run;
}

std::optional<LpRun> RunScenarioFile(const std::string& name,
                                     int intervals) {
  const std::string path = std::string(MEMGOAL_SCENARIO_DIR "/") + name;
  std::ifstream file(path);
  EXPECT_TRUE(file.is_open()) << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return RunScenarioLp(buffer.str() + "\nintervals=" +
                       std::to_string(intervals) + "\n");
}

// The partitioning LP a decision record logged, as the optimizer's input.
OptimizerInput InputOf(const obs::DecisionRecord& record) {
  OptimizerInput input;
  input.planes.grad_k = record.grad_k;
  input.planes.intercept_k = record.intercept_k;
  input.planes.grad_0 = record.grad_0;
  input.planes.intercept_0 = record.intercept_0;
  input.goal_rt = record.goal_rt;
  input.upper_bounds = record.upper_bounds;
  return input;
}

TEST(LpCertificateReplay, EveryLoggedLpResolvesCertifiedOffline) {
  // Take every LP the production runs actually posed and re-solve it cold,
  // decoupled from the feedback loop (a near-miss at record 3 cannot hide
  // behind downstream behaviour). Every optimal solve of the fallback
  // chain must be certified, the mode must match the log, and a record
  // that was itself solved cold must reproduce its allocation exactly.
  size_t replayed = 0;
  uint64_t certified = 0;
  for (const char* name : {"base.conf", "gray.conf", "oltp_dss.conf"}) {
    // The measure store needs N+1 warm-up points before any check reaches
    // the LP, hence the longer horizon.
    const std::optional<LpRun> run = RunScenarioFile(name, 16);
    ASSERT_TRUE(run.has_value()) << name;
    for (const obs::DecisionRecord& record : run->records) {
      if (!record.lp_run || !record.has_planes) continue;
      const OptimizerOutput output = SolvePartitioning(InputOf(record));
      EXPECT_EQ(output.lp_stats.certificate_failures, 0u) << name;
      certified += output.lp_stats.optimal;
      EXPECT_EQ(OptimizerModeName(output.mode), record.lp_mode) << name;
      if (!record.lp_warm) {
        EXPECT_EQ(output.allocation, record.lp_allocation) << name;
      }
      ++replayed;
    }
  }
  EXPECT_GT(replayed, 10u);
  EXPECT_GT(certified, 10u);
}

TEST(LpCertificateReplay, WarmStartedSolvesReplayBitForBit) {
  // The lp_warm_basis field's contract: a warm-started production solve is
  // reproducible offline by re-offering the logged basis. Replay every
  // warm record and require the bit-identical allocation the controller
  // logged, under a valid certificate.
  const std::optional<LpRun> run = RunScenarioFile("base.conf", 8);
  ASSERT_TRUE(run.has_value());
  size_t warm_replayed = 0;
  for (const obs::DecisionRecord& record : run->records) {
    if (!record.lp_run || !record.has_planes || !record.lp_warm) continue;
    la::SimplexBasis basis;
    ASSERT_TRUE(la::SimplexBasis::FromText(record.lp_warm_basis, &basis));
    ASSERT_FALSE(basis.empty());
    OptimizerInput input = InputOf(record);
    input.warm = &basis;
    const OptimizerOutput replayed = SolvePartitioning(input);
    EXPECT_EQ(replayed.lp_stats.certificate_failures, 0u);
    EXPECT_EQ(OptimizerModeName(replayed.mode), record.lp_mode);
    ASSERT_EQ(replayed.allocation.size(), record.lp_allocation.size());
    for (size_t i = 0; i < replayed.allocation.size(); ++i) {
      EXPECT_EQ(replayed.allocation[i], record.lp_allocation[i])
          << "node " << i;
    }
    ++warm_replayed;
  }
  // Steady state warms: most checks past warm-up must have offered a basis.
  EXPECT_GT(warm_replayed, 0u);
}

TEST(LpCertificateReplay, VarianceObjectiveOutcomesArePinned) {
  // No committed scenario runs the §8 variance objective, so cover its
  // 2n-variable LP shape directly. The goal is unreachable outright but
  // reachable on the relaxation ladder — at a deeper rung as n (and the
  // zero-allocation mean) grows — so every rung's LP is exercised. The
  // minimum-MAD face is typically not a single vertex, so the point itself
  // is not pinned; the mode, the relaxed goal and the optimal dispersion
  // are, at the values the solver produced when a second, dense-tableau
  // simplex still agreed with it to 1e-9.
  struct Pinned {
    size_t n;
    double relaxed_goal_rt;
    double predicted_mad_rt;
  };
  for (const Pinned& pinned : {Pinned{3, 19.8, 0.0},
                               Pinned{6, 22.5, 0.45801998222222373},
                               Pinned{12, 27.0, 1.4232453485714307}}) {
    const size_t n = pinned.n;
    VarianceOptimizerInput input;
    input.node_planes.resize(n);
    input.mean_grad.assign(n, 0.0);
    input.upper_bounds.assign(n, 2.0 * 1024 * 1024);
    for (size_t i = 0; i < n; ++i) {
      const double slope = -1e-6 * (1.0 + 0.37 * static_cast<double>(i));
      input.node_planes[i].grad.assign(n, 0.0);
      input.node_planes[i].grad[i] = slope;
      // Strictly distinct intercepts keep the optimum's objective unique.
      input.node_planes[i].intercept = 20.0 + 1.7 * static_cast<double>(i);
      input.mean_grad[i] = slope / static_cast<double>(n);
      input.mean_intercept += input.node_planes[i].intercept /
                              static_cast<double>(n);
    }
    input.goal_rt = 18.0;

    const VarianceOptimizerOutput out = SolveVariancePartitioning(input);
    EXPECT_EQ(out.mode, OptimizerMode::kGoalRelaxed) << "n=" << n;
    EXPECT_EQ(out.relaxed_goal_rt, pinned.relaxed_goal_rt) << "n=" << n;
    EXPECT_NEAR(out.predicted_mad_rt, pinned.predicted_mad_rt,
                1e-9 * std::max(1.0, pinned.predicted_mad_rt))
        << "n=" << n;
    EXPECT_GT(out.lp_stats.optimal, 0u) << "n=" << n;
    EXPECT_EQ(out.lp_stats.certificate_failures, 0u) << "n=" << n;
    // The relaxed rung solves an *inequality* LP, so the mean is only
    // bounded, not pinned.
    EXPECT_LE(out.predicted_mean_rt, out.relaxed_goal_rt + 1e-6) << "n=" << n;
    ASSERT_EQ(out.allocation.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_GE(out.allocation[i], 0.0) << "n=" << n << " node " << i;
      EXPECT_LE(out.allocation[i], input.upper_bounds[i])
          << "n=" << n << " node " << i;
    }
  }
}

}  // namespace
}  // namespace memgoal::core
