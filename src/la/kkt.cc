#include "la/kkt.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace memgoal::la {

namespace {
constexpr double kPrimalTol = 1e-9;
constexpr double kObjectiveTol = 1e-9;
}  // namespace

KktReport CheckKkt(const RevisedLp& lp, const SimplexResult& result) {
  KktReport report;
  const auto fail = [&report](const char* what, size_t index,
                              double violation) {
    report.failed = what;
    report.index = index;
    report.violation = violation;
    return report;
  };
  const size_t n = lp.num_vars;
  const size_t m = lp.rows.size();
  if (result.x.size() != n || result.duals.size() != m) {
    return fail("shape", 0, 0.0);
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Everything below is in the minimizing orientation.
  const double sign = lp.minimize ? 1.0 : -1.0;
  const double z = sign * result.objective;

  // Columns 0..n-1 are the variables, n + i is row i's slack.
  Vector value(n + m), upper(n + m), reduced(n + m), primal_tol(n + m);
  for (size_t j = 0; j < n; ++j) {
    value[j] = result.x[j];
    upper[j] = lp.upper[j];
    reduced[j] = sign * lp.objective[j];
    primal_tol[j] =
        kPrimalTol *
        (1.0 + (upper[j] == kInf ? std::fabs(value[j]) : upper[j]));
  }
  double dual_objective = 0.0;
  double dual_magnitude = 0.0;
  for (size_t i = 0; i < m; ++i) {
    const double y = sign * result.duals[i];
    double activity = 0.0;
    double scale = 1.0 + std::fabs(lp.rhs[i]);
    for (size_t j = 0; j < n; ++j) {
      const double a = lp.rows[i][j];
      activity += a * result.x[j];
      scale += std::fabs(a * result.x[j]);
      reduced[j] -= y * a;
    }
    const double slack_sign =
        lp.relations[i] == RevisedLp::Relation::kGe ? -1.0 : 1.0;
    value[n + i] = slack_sign * (lp.rhs[i] - activity);
    upper[n + i] = lp.relations[i] == RevisedLp::Relation::kEq ? 0.0 : kInf;
    reduced[n + i] = -slack_sign * y;
    primal_tol[n + i] = kPrimalTol * scale;
    dual_objective += lp.rhs[i] * y;
    dual_magnitude += std::fabs(lp.rhs[i] * y);
  }

  for (size_t k = 0; k < n + m; ++k) {
    if (value[k] < -primal_tol[k]) return fail("primal", k, -value[k]);
    if (value[k] > upper[k] + primal_tol[k]) {
      return fail("primal", k, value[k] - upper[k]);
    }
  }

  const double objective_tol = kObjectiveTol * (1.0 + std::fabs(z));
  for (size_t k = 0; k < n + m; ++k) {
    const bool at_lower = value[k] <= primal_tol[k];
    const bool at_upper =
        upper[k] != kInf && value[k] >= upper[k] - primal_tol[k];
    if (at_lower && at_upper) continue;  // fixed column: any sign is fine
    const double range =
        upper[k] == kInf ? 1.0 + std::fabs(value[k]) : upper[k];
    const double d = reduced[k];
    if (at_lower || at_upper) {
      const double wrong = at_lower ? std::max(0.0, -d) : std::max(0.0, d);
      if (wrong * range > objective_tol) {
        return fail("reduced_cost", k, wrong * range);
      }
    } else if (std::fabs(d) * range > objective_tol) {
      return fail("complementary", k, std::fabs(d) * range);
    }
  }

  for (size_t k = 0; k < n + m; ++k) {
    if (upper[k] == kInf) continue;
    dual_objective += upper[k] * std::min(0.0, reduced[k]);
    dual_magnitude += std::fabs(upper[k] * std::min(0.0, reduced[k]));
  }
  const double gap = std::fabs(z - dual_objective);
  if (gap > kObjectiveTol * (1.0 + std::fabs(z) + dual_magnitude)) {
    return fail("duality", 0, gap);
  }
  return report;
}

}  // namespace memgoal::la
