#ifndef MEMGOAL_CORE_OPTIMIZER_H_
#define MEMGOAL_CORE_OPTIMIZER_H_

#include <cstdint>

#include "core/measure.h"
#include "la/matrix.h"
#include "la/simplex.h"

namespace memgoal::core {

/// Inputs of the buffer-partitioning linear program (§4).
struct OptimizerInput {
  /// Fitted response-time hyperplanes of the goal class and no-goal class.
  MeasureStore::Planes planes;
  /// Response-time goal of the class being re-partitioned (ms).
  double goal_rt = 0.0;
  /// Per-node upper bounds U_i = SIZE_i - sum_{l != k} LM_l,i (equation 6),
  /// in bytes.
  la::Vector upper_bounds;
  /// Optional warm-start basis from the previous control interval's solve.
  /// Applied to the first (equality) solve; the fallback chain re-poses the
  /// LP, so later rungs start cold. The solver validates the basis and
  /// silently cold-starts when it no longer fits.
  const la::SimplexBasis* warm = nullptr;
};

/// How the returned allocation was obtained.
enum class OptimizerMode {
  /// LP solved with the goal constraint as an equality (the paper's
  /// formulation).
  kGoalEquality,
  /// Equality was infeasible within bounds but satisfying the goal with
  /// slack was possible (predicted RT_k <= goal).
  kGoalInequality,
  /// Even the inequality LP was infeasible, but a retry with a
  /// proportionally relaxed goal succeeded: the allocation aims at the
  /// loosest of goal·(1+ρ) that was feasible per the fitted planes,
  /// instead of silently keeping a stale partitioning.
  kGoalRelaxed,
  /// The goal is unreachable even with all available memory: the allocation
  /// minimizes the predicted RT_k instead, and the feedback loop retries
  /// next interval.
  kBestEffort,
};

/// Per-SimplexStatus outcome counts accumulated across the fallback chain
/// of one solve (an equality miss plus an inequality hit counts both).
struct LpOutcomeStats {
  uint64_t optimal = 0;
  uint64_t infeasible = 0;
  uint64_t unbounded = 0;
  /// Solves cut off by the simplex iteration safety bound. Distinct from
  /// infeasible: the LP was never classified, and the retry ladder re-poses
  /// it rather than trusting a half-finished basis.
  uint64_t iteration_limit = 0;
  /// Relaxed-goal retries attempted after the inequality LP was infeasible.
  uint64_t relaxed_retries = 0;
  /// Optimal solves whose optimality certificate (la::CheckKkt) failed.
  /// The answer is still used; a nonzero count flags a solver defect.
  uint64_t certificate_failures = 0;

  LpOutcomeStats& operator+=(const LpOutcomeStats& other) {
    optimal += other.optimal;
    infeasible += other.infeasible;
    unbounded += other.unbounded;
    iteration_limit += other.iteration_limit;
    relaxed_retries += other.relaxed_retries;
    certificate_failures += other.certificate_failures;
    return *this;
  }
};

/// Stable label for logs and the decision records.
inline const char* OptimizerModeName(OptimizerMode mode) {
  switch (mode) {
    case OptimizerMode::kGoalEquality:
      return "goal_equality";
    case OptimizerMode::kGoalInequality:
      return "goal_inequality";
    case OptimizerMode::kGoalRelaxed:
      return "goal_relaxed";
    case OptimizerMode::kBestEffort:
      return "best_effort";
  }
  return "?";
}

/// Relaxation ladder tried when the inequality LP is infeasible: the goal
/// constraint is re-posed at goal·(1+ρ) for each ρ in order, first feasible
/// wins. Beyond +50% the best-effort saturation is more honest.
inline constexpr double kGoalRelaxationLadder[] = {0.10, 0.25, 0.50};

/// Adds one simplex solve's terminal status and certificate outcome to the
/// counters.
inline void CountLpOutcome(const la::SimplexResult& result,
                           LpOutcomeStats* stats) {
  switch (result.status) {
    case la::SimplexStatus::kOptimal:
      ++stats->optimal;
      if (!result.certified) ++stats->certificate_failures;
      break;
    case la::SimplexStatus::kInfeasible:
      ++stats->infeasible;
      break;
    case la::SimplexStatus::kUnbounded:
      ++stats->unbounded;
      break;
    case la::SimplexStatus::kIterationLimit:
      ++stats->iteration_limit;
      break;
  }
}

struct OptimizerOutput {
  OptimizerMode mode = OptimizerMode::kBestEffort;
  /// New per-node dedicated buffer sizes (bytes).
  la::Vector allocation;
  /// Plane-predicted response times at `allocation`.
  double predicted_rt_k = 0.0;
  double predicted_rt_0 = 0.0;
  /// The relaxed goal actually used (mode == kGoalRelaxed only).
  double relaxed_goal_rt = 0.0;
  /// Index into kGoalRelaxationLadder of the rung that produced a feasible
  /// LP (mode == kGoalRelaxed only); -1 otherwise.
  int relaxed_rung = -1;
  /// Simplex outcome counts of this solve's fallback chain.
  LpOutcomeStats lp_stats;
  /// Final basis of the solve that produced `allocation` (empty when none
  /// did). Feed back as `OptimizerInput::warm` next interval.
  la::SimplexBasis basis;
};

/// Solves for the new partitioning of one goal class: minimize the
/// predicted no-goal response time subject to the goal class's hyperplane
/// meeting its goal and the per-node capacity bounds (§4's LP), with the
/// documented fallbacks when that LP is infeasible.
OptimizerOutput SolvePartitioning(const OptimizerInput& input);

}  // namespace memgoal::core

#endif  // MEMGOAL_CORE_OPTIMIZER_H_
