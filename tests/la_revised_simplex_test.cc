// Checks of the revised simplex against its optimality certificate
// (la::CheckKkt, run on every optimal solve below) and, for small box-
// bounded instances, a brute-force vertex enumerator; plus the warm-start
// contract (a re-solve seeded with the previous basis must reproduce the
// cold solution) and the certificate's own power: at partitioning-LP scale
// it must reject a feasible vertex only ~1e-3 worse than the optimum. The
// corpus leans on small integer coefficients on purpose: they manufacture
// primal and dual degeneracy (ties in the ratio test, zero reduced costs at
// the optimum), which is exactly where a simplex implementation breaks.

#include "la/revised_simplex.h"

#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "la/gauss.h"
#include "la/kkt.h"
#include "la/simplex.h"

namespace memgoal::la {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

enum class Rel { kLe, kGe, kEq };

/// One LP in the solver's native form: min/max c.x, rows, bounds [0, ub].
struct Lp {
  const char* name;
  bool minimize = true;
  Vector c;
  std::vector<Vector> rows;
  std::vector<Rel> rels;
  Vector rhs;
  Vector ub;  // kInf entries mean unbounded above
  /// Expected status, stated for instances the vertex enumerator cannot
  /// judge (not box-bounded); unset for box-bounded ones.
  std::optional<SimplexStatus> expected = std::nullopt;
};

SimplexSolver Pose(const Lp& lp) {
  SimplexSolver solver(lp.c.size());
  solver.SetObjective(lp.c, lp.minimize);
  for (size_t i = 0; i < lp.rows.size(); ++i) {
    switch (lp.rels[i]) {
      case Rel::kLe:
        solver.AddLe(lp.rows[i], lp.rhs[i]);
        break;
      case Rel::kGe:
        solver.AddGe(lp.rows[i], lp.rhs[i]);
        break;
      case Rel::kEq:
        solver.AddEq(lp.rows[i], lp.rhs[i]);
        break;
    }
  }
  for (size_t j = 0; j < lp.ub.size(); ++j) {
    if (lp.ub[j] < kInf) solver.SetUpperBound(j, lp.ub[j]);
  }
  return solver;
}

std::string Describe(const KktReport& report) {
  if (report.ok()) return "certified";
  return std::string(report.failed) + " at column " +
         std::to_string(report.index) + " by " +
         std::to_string(report.violation);
}

/// Solves `lp`; every optimal answer must carry a valid certificate.
SimplexResult SolveWith(const Lp& lp, const SimplexBasis* warm = nullptr) {
  SimplexSolver solver = Pose(lp);
  SimplexResult result = solver.Solve(warm);
  if (result.status == SimplexStatus::kOptimal) {
    EXPECT_TRUE(result.certified) << lp.name;
    const KktReport report = CheckKkt(solver.lp(), result);
    EXPECT_TRUE(report.ok()) << lp.name << ": " << Describe(report);
  }
  return result;
}

bool Feasible(const Lp& lp, const Vector& x, double tol) {
  for (size_t j = 0; j < x.size(); ++j) {
    if (x[j] < -tol || x[j] > lp.ub[j] + tol) return false;
  }
  for (size_t i = 0; i < lp.rows.size(); ++i) {
    const double lhs = Dot(lp.rows[i], x);
    switch (lp.rels[i]) {
      case Rel::kLe:
        if (lhs > lp.rhs[i] + tol) return false;
        break;
      case Rel::kGe:
        if (lhs < lp.rhs[i] - tol) return false;
        break;
      case Rel::kEq:
        if (std::fabs(lhs - lp.rhs[i]) > tol) return false;
        break;
    }
  }
  return true;
}

/// Brute-force oracle for fully box-bounded instances (compact feasible
/// region, so the LP is feasible iff a feasible vertex exists, and the
/// optimum is attained at one). Enumerates every choice of n active
/// constraints from {rows-as-equalities, x_j = 0, x_j = ub_j}, solves the
/// n x n system, and keeps the best feasible solution. Exponential — only
/// for n <= 4.
std::optional<double> BestVertexObjective(const Lp& lp) {
  const size_t n = lp.c.size();
  const size_t m = lp.rows.size();
  const size_t total = m + 2 * n;
  std::optional<double> best;
  std::vector<size_t> pick(n, 0);
  // Odometer over all C(total, n) subsets.
  for (size_t i = 0; i < n; ++i) pick[i] = i;
  while (true) {
    Matrix a(n, n);
    Vector b(n, 0.0);
    for (size_t k = 0; k < n; ++k) {
      const size_t idx = pick[k];
      Vector row(n, 0.0);
      double rhs = 0.0;
      if (idx < m) {
        row = lp.rows[idx];
        rhs = lp.rhs[idx];
      } else if (idx < m + n) {
        row[idx - m] = 1.0;  // x_j = 0
      } else {
        row[idx - m - n] = 1.0;
        rhs = lp.ub[idx - m - n];  // x_j = ub_j
      }
      a.SetRow(k, row);
      b[k] = rhs;
    }
    std::optional<Vector> x = SolveLinearSystem(a, b);
    if (x.has_value() && Feasible(lp, *x, 1e-7)) {
      const double z = Dot(lp.c, *x);
      if (!best.has_value() ||
          (lp.minimize ? z < *best : z > *best)) {
        best = z;
      }
    }
    // Advance the subset odometer.
    size_t k = n;
    while (k-- > 0) {
      if (pick[k] + (n - k) < total) {
        ++pick[k];
        for (size_t t = k + 1; t < n; ++t) pick[t] = pick[t - 1] + 1;
        break;
      }
      if (k == 0) return best;
    }
  }
}

/// Box-bounded instances are judged by the vertex enumerator (status and
/// optimal value); the others by their stated status. Optimal answers are
/// certified by SolveWith either way.
void ExpectSolvedCorrectly(const Lp& lp) {
  const SimplexResult result = SolveWith(lp);
  if (lp.expected.has_value()) {
    EXPECT_EQ(result.status, *lp.expected) << lp.name;
  } else {
    ASSERT_LE(lp.c.size(), 4u) << lp.name;
    for (double ub : lp.ub) ASSERT_LT(ub, kInf) << lp.name;
    const std::optional<double> oracle = BestVertexObjective(lp);
    if (!oracle.has_value()) {
      EXPECT_EQ(result.status, SimplexStatus::kInfeasible) << lp.name;
      return;
    }
    ASSERT_EQ(result.status, SimplexStatus::kOptimal) << lp.name;
    EXPECT_NEAR(result.objective, *oracle, 1e-7 * (1.0 + std::fabs(*oracle)))
        << lp.name;
  }
  if (result.status == SimplexStatus::kOptimal) {
    EXPECT_TRUE(Feasible(lp, result.x, 1e-7)) << lp.name;
  }
}

TEST(RevisedSimplexCorpus, DegenerateAndPathologicalInstancesSolve) {
  const std::vector<Lp> corpus = {
      // Primal degeneracy: three constraints meet at the optimum vertex.
      {"degenerate-vertex", true, {-1.0, -1.0},
       {{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}},
       {Rel::kLe, Rel::kLe, Rel::kLe}, {1.0, 1.0, 2.0}, {kInf, kInf},
       SimplexStatus::kOptimal},
      // Dual degeneracy: objective parallel to a binding row, a whole edge
      // of alternate optima.
      {"dual-degenerate", true, {1.0, 1.0},
       {{1.0, 1.0}}, {Rel::kGe}, {4.0}, {kInf, kInf},
       SimplexStatus::kOptimal},
      // Beale-style cycling-prone instance (classic anti-cycling stressor).
      {"beale", true, {-0.75, 150.0, -0.02, 6.0},
       {{0.25, -60.0, -1.0 / 25.0, 9.0},
        {0.5, -90.0, -1.0 / 50.0, 3.0},
        {0.0, 0.0, 1.0, 0.0}},
       {Rel::kLe, Rel::kLe, Rel::kLe}, {0.0, 0.0, 1.0},
       {kInf, kInf, kInf, kInf}, SimplexStatus::kOptimal},
      // Infeasible by contradictory rows.
      {"infeasible-rows", true, {1.0},
       {{1.0}, {1.0}}, {Rel::kLe, Rel::kGe}, {1.0, 2.0}, {kInf},
       SimplexStatus::kInfeasible},
      // Infeasible by bound: the equality needs x0 = 7 but ub is 5.
      {"infeasible-bound", true, {1.0},
       {{1.0}}, {Rel::kEq}, {7.0}, {5.0}},
      // Unbounded ray along x1.
      {"unbounded", false, {0.0, 1.0},
       {{1.0, 0.0}}, {Rel::kLe}, {3.0}, {kInf, kInf},
       SimplexStatus::kUnbounded},
      // Redundant equality pair keeps an artificial basic at zero.
      {"redundant-eq", true, {1.0, 1.0},
       {{1.0, 1.0}, {2.0, 2.0}}, {Rel::kEq, Rel::kEq}, {5.0, 10.0},
       {kInf, kInf}, SimplexStatus::kOptimal},
      // Fixed variable (ub == 0) plus a goal row.
      {"fixed-var", true, {1.0, 2.0},
       {{1.0, 1.0}}, {Rel::kGe}, {3.0}, {0.0, kInf},
       SimplexStatus::kOptimal},
      // Equality whose slack bounds force phase 1, negative rhs.
      {"negative-rhs-eq", true, {0.5, 1.0, 0.8},
       {{-2.0, -1.0, -3.0}}, {Rel::kEq}, {-12.0}, {4.0, 4.0, 4.0}},
      // Zero rows the degraded controller emits for dead nodes.
      {"zero-row-feasible", true, {1.0, 1.0},
       {{0.0, 0.0}}, {Rel::kLe}, {5.0}, {kInf, kInf},
       SimplexStatus::kOptimal},
      {"zero-row-infeasible", true, {1.0, 1.0},
       {{0.0, 0.0}}, {Rel::kGe}, {2.0}, {kInf, kInf},
       SimplexStatus::kInfeasible},
  };
  for (const Lp& lp : corpus) ExpectSolvedCorrectly(lp);
}

TEST(RevisedSimplexOracle, RandomSmallInstancesMatchVertexEnumeration) {
  // Small integer coefficients with full box bounds: compact region, heavy
  // primal/dual degeneracy, frequent infeasibility. The solver must agree
  // with exhaustive vertex enumeration on status and optimal value, and
  // certify every optimum (both orientations, all three row relations).
  common::Rng rng(20260809);
  int optimal_seen = 0, infeasible_seen = 0;
  for (int trial = 0; trial < 400; ++trial) {
    Lp lp;
    lp.name = "random";
    const size_t n = static_cast<size_t>(rng.UniformInt(2, 4));
    const size_t m = static_cast<size_t>(rng.UniformInt(1, 4));
    lp.minimize = rng.UniformInt(0, 1) == 0;
    lp.c.resize(n);
    for (double& v : lp.c) v = static_cast<double>(rng.UniformInt(-3, 3));
    for (size_t i = 0; i < m; ++i) {
      Vector row(n);
      for (double& v : row) v = static_cast<double>(rng.UniformInt(-2, 2));
      lp.rows.push_back(row);
      lp.rels.push_back(static_cast<Rel>(rng.UniformInt(0, 2)));
      lp.rhs.push_back(static_cast<double>(rng.UniformInt(-4, 8)));
    }
    lp.ub.resize(n);
    for (double& v : lp.ub) v = static_cast<double>(rng.UniformInt(1, 5));

    const std::optional<double> oracle = BestVertexObjective(lp);
    const SimplexResult revised = SolveWith(lp);
    if (oracle.has_value()) {
      ++optimal_seen;
      ASSERT_EQ(revised.status, SimplexStatus::kOptimal) << "trial " << trial;
      const double tol = 1e-7 * (1.0 + std::fabs(*oracle));
      EXPECT_NEAR(revised.objective, *oracle, tol) << "trial " << trial;
      EXPECT_TRUE(Feasible(lp, revised.x, 1e-7)) << "trial " << trial;
    } else {
      ++infeasible_seen;
      EXPECT_EQ(revised.status, SimplexStatus::kInfeasible)
          << "trial " << trial;
    }
  }
  // The generator must actually exercise both sides.
  EXPECT_GT(optimal_seen, 50);
  EXPECT_GT(infeasible_seen, 50);
}

/// Random partitioning-shaped LP: one goal coupling row over n bounded
/// variables — the exact block structure the optimizer poses every control
/// interval.
Lp RandomPartitioningLp(common::Rng& rng, size_t n, bool equality) {
  Lp lp;
  lp.name = "partitioning";
  lp.c.resize(n);
  Vector grad(n);
  for (size_t j = 0; j < n; ++j) {
    lp.c[j] = rng.Uniform(1e-8, 1e-6);     // no-goal gradient (cost)
    grad[j] = -rng.Uniform(1e-7, 5e-6);    // goal gradient (negative slope)
  }
  lp.rows.push_back(grad);
  lp.rels.push_back(equality ? Rel::kEq : Rel::kLe);
  lp.rhs.push_back(rng.Uniform(-20.0, 5.0));
  lp.ub.assign(n, 2.0 * 1024 * 1024);
  return lp;
}

TEST(RevisedSimplexWarmStart, WarmEqualsColdOnIdenticalProgram) {
  common::Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(2, 16));
    const Lp lp = RandomPartitioningLp(rng, n, trial % 2 == 0);
    const SimplexResult cold = SolveWith(lp);
    if (cold.status != SimplexStatus::kOptimal) continue;
    ASSERT_FALSE(cold.basis.empty()) << "trial " << trial;
    const SimplexResult warm =
        SolveWith(lp, &cold.basis);
    ASSERT_EQ(warm.status, SimplexStatus::kOptimal) << "trial " << trial;
    // Same basis in, same program: the canonical cleanup makes the point a
    // pure function of the final basis, so the warm re-solve is exact.
    EXPECT_EQ(warm.objective, cold.objective) << "trial " << trial;
    ASSERT_EQ(warm.x.size(), cold.x.size());
    for (size_t j = 0; j < n; ++j) {
      EXPECT_EQ(warm.x[j], cold.x[j]) << "trial " << trial << " var " << j;
    }
    // A warm start prices from the old optimum: re-solving must not need
    // more iterations than the cold solve.
    EXPECT_LE(warm.iterations, cold.iterations) << "trial " << trial;
  }
}

TEST(RevisedSimplexWarmStart, WarmEqualsColdAfterRhsPerturbation) {
  // The steady-state controller pattern: the goal moves a little between
  // intervals, the basis is re-offered. Warm and cold must land on the
  // same optimum (objective within 1e-9 relative).
  common::Rng rng(78);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(2, 16));
    Lp lp = RandomPartitioningLp(rng, n, trial % 2 == 0);
    const SimplexResult prev = SolveWith(lp);
    if (prev.status != SimplexStatus::kOptimal) continue;
    lp.rhs[0] *= rng.Uniform(0.95, 1.05);
    const SimplexResult cold = SolveWith(lp);
    const SimplexResult warm =
        SolveWith(lp, &prev.basis);
    ASSERT_EQ(warm.status, cold.status) << "trial " << trial;
    if (cold.status != SimplexStatus::kOptimal) continue;
    const double tol = 1e-9 * (1.0 + std::fabs(cold.objective));
    EXPECT_NEAR(warm.objective, cold.objective, tol) << "trial " << trial;
    EXPECT_TRUE(Feasible(lp, warm.x, 1e-7)) << "trial " << trial;
  }
}

TEST(RevisedSimplexWarmStart, MismatchedBasisFallsBackToColdStart) {
  common::Rng rng(79);
  const Lp lp = RandomPartitioningLp(rng, 6, /*equality=*/true);
  const SimplexResult cold = SolveWith(lp);
  ASSERT_EQ(cold.status, SimplexStatus::kOptimal);
  // Wrong dimension: silently ignored.
  SimplexBasis wrong;
  wrong.status.assign(3, SimplexBasis::VarStatus::kAtLower);
  const SimplexResult r1 = SolveWith(lp, &wrong);
  EXPECT_EQ(r1.status, SimplexStatus::kOptimal);
  EXPECT_EQ(r1.objective, cold.objective);
  // Structurally absurd basis (everything basic): rejected, cold result.
  SimplexBasis absurd;
  absurd.status.assign(cold.basis.status.size(),
                       SimplexBasis::VarStatus::kBasic);
  const SimplexResult r2 = SolveWith(lp, &absurd);
  EXPECT_EQ(r2.status, SimplexStatus::kOptimal);
  EXPECT_EQ(r2.objective, cold.objective);
}

TEST(RevisedSimplexIterationLimit, CapSurfacesAsDistinctStatus) {
  // A direct SolveRevised call with a tiny budget: the solve cannot finish,
  // and the outcome must be kIterationLimit — not infeasible, not
  // unbounded, and certainly not a crash.
  RevisedLp lp;
  lp.num_vars = 3;
  lp.objective = {0.5, 1.0, 0.8};
  lp.rows = {{-2.0, -1.0, -3.0}};
  lp.relations = {RevisedLp::Relation::kEq};
  lp.rhs = {-12.0};
  lp.upper = {4.0, 4.0, 4.0};
  const SimplexResult limited = SolveRevised(lp, nullptr, /*max_iterations=*/1);
  EXPECT_EQ(limited.status, SimplexStatus::kIterationLimit);
  const SimplexResult full = SolveRevised(lp, nullptr, 1000);
  EXPECT_EQ(full.status, SimplexStatus::kOptimal);
  EXPECT_TRUE(CheckKkt(lp, full).ok()) << Describe(CheckKkt(lp, full));
}

TEST(KktCertificate, RejectsTamperedCertificates) {
  // negative-rhs-eq from the corpus: min 0.5x0 + x1 + 0.8x2 subject to
  // 2x0 + x1 + 3x2 = 12 over [0, 4]^3. Each tampering breaks exactly the
  // condition it targets.
  const Lp lp = {"tamper", true, {0.5, 1.0, 0.8}, {{-2.0, -1.0, -3.0}},
                 {Rel::kEq}, {-12.0}, {4.0, 4.0, 4.0}};
  SimplexSolver solver = Pose(lp);
  const SimplexResult optimal = solver.Solve();
  ASSERT_EQ(optimal.status, SimplexStatus::kOptimal);
  ASSERT_TRUE(CheckKkt(solver.lp(), optimal).ok());

  SimplexResult bad = optimal;
  bad.x[0] = 4.5;  // beyond its upper bound
  EXPECT_STREQ(CheckKkt(solver.lp(), bad).failed, "primal");

  bad = optimal;
  bad.duals[0] = -bad.duals[0];  // wrong-signed prices
  EXPECT_FALSE(CheckKkt(solver.lp(), bad).ok());

  bad = optimal;
  bad.objective += 1e-3;  // misreported optimum
  EXPECT_STREQ(CheckKkt(solver.lp(), bad).failed, "duality");

  bad = optimal;
  bad.duals.clear();
  EXPECT_STREQ(CheckKkt(solver.lp(), bad).failed, "shape");
}

/// The partitioning LP at n = 256, shaped like the production instances
/// bench_scaling part=l poses: min c.x subject to one goal equality
/// g.x = rhs, 0 <= x <= 2 MB, with cost and goal gradients around 1e-7 per
/// byte. Megabyte ranges turn a 5e-10 reduced cost into a 1e-3 objective
/// difference, the scale at which a too-loose pricing tolerance stops the
/// simplex one vertex short of the optimum.
Lp PartitioningLp256(common::Rng& rng) {
  constexpr size_t kNodes = 256;
  Lp lp;
  lp.name = "partitioning-256";
  lp.c.resize(kNodes);
  Vector grad(kNodes);
  for (size_t j = 0; j < kNodes; ++j) {
    lp.c[j] = rng.Uniform(0.5e-7, 2e-7);
    grad[j] = -rng.Uniform(0.5e-7, 2e-7);
  }
  lp.rows.push_back(grad);
  lp.rels.push_back(Rel::kEq);
  lp.rhs.push_back(-rng.Uniform(5.0, 30.0));
  lp.ub.assign(kNodes, 2.0 * 1024 * 1024);
  return lp;
}

TEST(KktCertificate, CertifiesSolverOptimaAtPartitioningScale) {
  common::Rng rng(20261017);
  for (int trial = 0; trial < 20; ++trial) {
    const Lp lp = PartitioningLp256(rng);
    const SimplexResult result = SolveWith(lp);  // certifies
    ASSERT_EQ(result.status, SimplexStatus::kOptimal) << "trial " << trial;
    EXPECT_TRUE(Feasible(lp, result.x, 1e-7)) << "trial " << trial;
  }
}

TEST(KktCertificate, RejectsFeasibleVertexAThousandthWorse) {
  // The failure class a too-loose pricing tolerance produces: the simplex
  // stops at a feasible vertex whose objective is ~1e-3 worse, because the
  // variable that should still enter has a reduced cost near 5e-10. Build
  // such a vertex directly: pin one at-upper variable j of the optimum to
  // 0 and re-solve. The result is the best vertex of the original LP with
  // x_j at its lower bound, and its duals are its own basis duals (x_j is
  // nonbasic, the costs are unchanged), so it is exactly what a solver
  // that skipped x_j would report. Among the candidates of a few instances,
  // take the j whose vertex is closest to 1e-3 worse.
  common::Rng rng(20261018);
  std::optional<Lp> lp;
  std::optional<SimplexResult> worse;
  size_t pinned = 0;
  double best_gap = kInf;
  for (int trial = 0; trial < 8; ++trial) {
    const Lp candidate = PartitioningLp256(rng);
    const SimplexResult optimal = SolveWith(candidate);
    ASSERT_EQ(optimal.status, SimplexStatus::kOptimal);
    for (size_t j = 0; j < candidate.c.size(); ++j) {
      if (optimal.x[j] != candidate.ub[j]) continue;
      const double reduced =
          candidate.c[j] - optimal.duals[0] * candidate.rows[0][j];
      const double effect = -reduced * candidate.ub[j];
      if (effect < 1e-4 || effect > 1e-2) continue;
      Lp pin = candidate;
      pin.ub[j] = 0.0;
      const SimplexResult vertex = SolveWith(pin);
      if (vertex.status != SimplexStatus::kOptimal) continue;
      const double gap = vertex.objective - optimal.objective;
      if (std::fabs(std::log(gap / 1e-3)) <
          std::fabs(std::log(best_gap / 1e-3))) {
        best_gap = gap;
        pinned = j;
        lp = candidate;
        worse = vertex;
      }
    }
  }
  ASSERT_TRUE(worse.has_value()) << "no candidate vertex near 1e-3";
  EXPECT_GT(best_gap, 3e-4);
  EXPECT_LT(best_gap, 3e-3);
  EXPECT_TRUE(Feasible(*lp, worse->x, 1e-7));
  const KktReport report = CheckKkt(Pose(*lp).lp(), *worse);
  EXPECT_STREQ(report.failed, "reduced_cost") << Describe(report);
  EXPECT_EQ(report.index, pinned);
  // The wrong-signed reduced cost's effect is of the order of the gap, far
  // above the certificate's 1e-9 * (1 + |z|) tolerance.
  EXPECT_GT(report.violation, 1e-4);
}

TEST(SimplexBasisText, RoundTripsAndRejectsGarbage) {
  SimplexBasis basis;
  basis.status = {SimplexBasis::VarStatus::kAtLower,
                  SimplexBasis::VarStatus::kBasic,
                  SimplexBasis::VarStatus::kAtUpper,
                  SimplexBasis::VarStatus::kAtLower};
  EXPECT_EQ(basis.ToText(), "LBUL");
  SimplexBasis parsed;
  ASSERT_TRUE(SimplexBasis::FromText("LBUL", &parsed));
  EXPECT_EQ(parsed.status, basis.status);
  EXPECT_TRUE(SimplexBasis::FromText("", &parsed));
  EXPECT_TRUE(parsed.empty());
  EXPECT_FALSE(SimplexBasis::FromText("LBX", &parsed));
}

}  // namespace
}  // namespace memgoal::la
