#ifndef MEMGOAL_LA_KKT_H_
#define MEMGOAL_LA_KKT_H_

#include <cstddef>

#include "la/simplex.h"

namespace memgoal::la {

/// Outcome of CheckKkt.
struct KktReport {
  /// The condition that failed first — "shape", "primal", "reduced_cost",
  /// "complementary" or "duality" — or nullptr when the certificate holds.
  const char* failed = nullptr;
  /// Offending column: 0..n-1 are the variables, n + i is row i's slack.
  size_t index = 0;
  /// Size of the failure: a bound or row residual for "primal", otherwise
  /// its effect on the objective.
  double violation = 0.0;

  bool ok() const { return failed == nullptr; }
};

/// Checks that (result.x, result.duals) certify an optimum of `lp`.
///
/// Each row i gets a slack s_i in [0, inf) (kLe: a_i.x + s_i = b_i; kGe:
/// a_i.x - s_i = b_i) or fixed at 0 (kEq), so every column — variable or
/// slack — has bounds [0, u]. With reduced costs d = c - A^T y (slacks:
/// d = -(+-y_i)), taken in the minimizing orientation, the checks are:
///  - primal feasibility: every row holds within
///    1e-9 * (1 + |b_i| + sum_j |a_ij x_j|), every bound within
///    1e-9 * (1 + u_j) (1 + |x_j| when u_j is infinite);
///  - reduced-cost signs: a column at its lower bound has d >= 0, one at
///    its upper bound d <= 0 (fixed columns are free);
///  - complementary slackness: a column strictly between its bounds has
///    d = 0 (for a slack: an inactive row has a zero dual);
///  - strong duality: b^T y + sum_j u_j min(0, d_j) equals the reported
///    objective.
/// A reduced-cost or complementarity violation is judged by its effect on
/// the objective, |d_j| * range_j, against 1e-9 * (1 + |z|).
/// range_j is u_j for a bounded column and 1 + |x_j| for a column without
/// an upper bound (judged over its own magnitude). The duality gap gets
/// the same tolerance, widened by the magnitude of the terms it sums. The
/// tolerances are stated against the problem's own scales and do not
/// depend on the solver's pivot or pricing tolerances.
KktReport CheckKkt(const RevisedLp& lp, const SimplexResult& result);

}  // namespace memgoal::la

#endif  // MEMGOAL_LA_KKT_H_
