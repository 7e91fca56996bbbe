#include "core/optimizer.h"

#include <cmath>
#include <iterator>

#include "common/check.h"
#include "la/simplex.h"

namespace memgoal::core {

namespace {

double PredictRt(const la::Vector& grad, double intercept,
                 const la::Vector& x) {
  return la::Dot(grad, x) + intercept;
}

la::SimplexResult SolveLp(const OptimizerInput& input, bool equality,
                          double goal_rt, const la::SimplexBasis* warm,
                          LpOutcomeStats* stats) {
  const size_t n = input.upper_bounds.size();
  la::SimplexSolver solver(n);
  solver.SetObjective(input.planes.grad_0);
  const double rhs = goal_rt - input.planes.intercept_k;
  if (equality) {
    solver.AddEq(input.planes.grad_k, rhs);
  } else {
    solver.AddLe(input.planes.grad_k, rhs);
  }
  for (size_t i = 0; i < n; ++i) {
    solver.SetUpperBound(i, input.upper_bounds[i]);
  }
  la::SimplexResult result = solver.Solve(warm);
  CountLpOutcome(result, stats);
  return result;
}

}  // namespace

OptimizerOutput SolvePartitioning(const OptimizerInput& input) {
  const size_t n = input.upper_bounds.size();
  MEMGOAL_CHECK(n > 0);
  MEMGOAL_CHECK(input.planes.grad_k.size() == n);
  MEMGOAL_CHECK(input.planes.grad_0.size() == n);

  OptimizerOutput output;

  la::SimplexResult lp = SolveLp(input, /*equality=*/true, input.goal_rt,
                                 input.warm, &output.lp_stats);
  if (lp.status == la::SimplexStatus::kOptimal) {
    output.mode = OptimizerMode::kGoalEquality;
    output.allocation = std::move(lp.x);
    output.basis = std::move(lp.basis);
  } else {
    lp = SolveLp(input, /*equality=*/false, input.goal_rt, /*warm=*/nullptr,
                 &output.lp_stats);
    if (lp.status == la::SimplexStatus::kOptimal) {
      output.mode = OptimizerMode::kGoalInequality;
      output.allocation = std::move(lp.x);
      output.basis = std::move(lp.basis);
    }
  }
  if (output.allocation.empty()) {
    // Inequality infeasible: retry with proportionally relaxed goals
    // before giving up, so a transiently pessimistic fit (e.g. points
    // polluted by a gray-failure episode) still yields a best *aimed*
    // allocation rather than silently keeping the stale one.
    for (size_t rung = 0; rung < std::size(kGoalRelaxationLadder); ++rung) {
      ++output.lp_stats.relaxed_retries;
      const double relaxed =
          input.goal_rt * (1.0 + kGoalRelaxationLadder[rung]);
      lp = SolveLp(input, /*equality=*/false, relaxed, /*warm=*/nullptr,
                   &output.lp_stats);
      if (lp.status == la::SimplexStatus::kOptimal) {
        output.mode = OptimizerMode::kGoalRelaxed;
        output.relaxed_goal_rt = relaxed;
        output.relaxed_rung = static_cast<int>(rung);
        output.allocation = std::move(lp.x);
        output.basis = std::move(lp.basis);
        break;
      }
    }
  }
  if (output.allocation.empty()) {
    // Goal unreachable within bounds according to the fitted plane. The
    // fit may well be stale or noisy here (points collected around a
    // stuck allocation are nearly collinear), so fall back on the paper's
    // §3 monotonicity assumption — more dedicated buffer never hurts the
    // class — and allocate everything available. The feedback loop
    // revisits the decision with fresh measurements next interval.
    output.mode = OptimizerMode::kBestEffort;
    output.allocation = input.upper_bounds;
  }

  // Snap values within relative LP tolerance of a bound exactly onto it,
  // then clamp, so sub-tolerance arithmetic residue never reaches the
  // controller's page rounding downstream.
  for (size_t i = 0; i < n; ++i) {
    const double ub = input.upper_bounds[i];
    const double snap = 1e-9 * std::max(1.0, ub);
    double v = output.allocation[i];
    if (std::fabs(v - ub) <= snap) {
      v = ub;
    } else if (std::fabs(v) <= snap) {
      v = 0.0;
    }
    output.allocation[i] = std::min(std::max(v, 0.0), ub);
  }
  output.predicted_rt_k =
      PredictRt(input.planes.grad_k, input.planes.intercept_k,
                output.allocation);
  output.predicted_rt_0 =
      PredictRt(input.planes.grad_0, input.planes.intercept_0,
                output.allocation);
  return output;
}

}  // namespace memgoal::core
