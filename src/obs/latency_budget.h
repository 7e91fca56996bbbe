#ifndef MEMGOAL_OBS_LATENCY_BUDGET_H_
#define MEMGOAL_OBS_LATENCY_BUDGET_H_

namespace memgoal::obs {

/// Phases a completed request's simulated response time is attributed to.
/// The decomposition follows the resources a request can block on in the
/// modeled NOW: CPU and disk split into queue wait vs. service, the shared
/// network medium into queue wait vs. transmission+latency, plus the
/// request-level phases the access path introduces on top — the hedged
/// remote-fetch window and the post-fetch backoff. kLockWait and kWalForce
/// are columns of the export schema only: transactions are not budgeted,
/// so they read 0. kResidual absorbs whatever the instrumented spans did
/// not cover (e.g. inline repair work), so a budget always sums to the
/// measured response time exactly by construction.
enum class BudgetPhase : int {
  kCpuWait = 0,
  kCpuService,
  kDiskWait,
  kDiskService,
  kNetWait,
  kNetTransfer,
  kFetchWait,
  kBackoff,
  kLockWait,
  kWalForce,
  kResidual,
};

inline constexpr int kNumBudgetPhases = 11;

/// Stable export name of a phase ("cpu_wait", "fetch_wait", ...).
const char* BudgetPhaseName(BudgetPhase phase);

/// One request's latency budget: sim-milliseconds per phase. Plain
/// accumulator struct — the resources, the network and the access path
/// charge it through an optional pointer, so a null budget keeps the hot
/// path at one branch per site.
struct RequestBudget {
  double phase_ms[kNumBudgetPhases] = {};

  void Add(BudgetPhase phase, double ms) {
    phase_ms[static_cast<int>(phase)] += ms;
  }

  /// Adds every phase of `other` (e.g. one access into its operation).
  void Merge(const RequestBudget& other) {
    for (int i = 0; i < kNumBudgetPhases; ++i) phase_ms[i] += other.phase_ms[i];
  }

  /// Sum over every phase including the residual, in fixed phase order
  /// (deterministic float summation).
  double Sum() const {
    double total = 0.0;
    for (double v : phase_ms) total += v;
    return total;
  }

  /// Sum of the attributed phases (everything but kResidual).
  double AttributedSum() const {
    double total = 0.0;
    for (int i = 0; i < kNumBudgetPhases - 1; ++i) total += phase_ms[i];
    return total;
  }

  /// Closes the budget against the measured response time: the residual
  /// becomes total_rt_ms minus the attributed sum. A (tiny) negative
  /// residual means over-attribution and is kept as-is so the property
  /// test can see it.
  void SetResidual(double total_rt_ms) {
    phase_ms[static_cast<int>(BudgetPhase::kResidual)] =
        total_rt_ms - AttributedSum();
  }
};

}  // namespace memgoal::obs

#endif  // MEMGOAL_OBS_LATENCY_BUDGET_H_
