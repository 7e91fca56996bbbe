#ifndef MEMGOAL_BENCH_TRIAL_RUNNER_H_
#define MEMGOAL_BENCH_TRIAL_RUNNER_H_

#include <functional>
#include <utility>
#include <vector>

namespace memgoal::bench {

/// Executes independent simulation trials on a pool of std::threads while
/// keeping every observable result bit-identical to a single-threaded run.
///
/// The evaluation protocol (paper §7, Table 2) pools convergence samples
/// from many independently seeded runs; each such run is an isolated
/// single-threaded `Simulator` + `ClusterSystem`, so trials parallelize
/// trivially — *provided* nothing couples them. The contract that makes
/// that true, and that every future perf PR must keep:
///
///  - Each trial derives all of its randomness from
///    `common::DeriveStreamSeed(master_seed, trial_index)` — a pure
///    function of the pair, never from the order in which trials start or
///    from a shared forked `Rng`.
///  - Trial `i`'s result is stored into slot `i` of the result vector;
///    reductions over the results run on the caller's thread in trial-index
///    order after all trials joined.
///
/// Under that contract `Run()` returns the same bytes for 1, 4, or N
/// threads, which the determinism regression test asserts.
class TrialRunner {
 public:
  /// `threads` < 1 selects std::thread::hardware_concurrency().
  explicit TrialRunner(int threads = 1);

  int threads() const { return threads_; }

  /// Runs `fn(trial)` for every trial in [0, num_trials) and returns the
  /// results in trial order. `fn` must not touch shared mutable state; it
  /// is invoked concurrently from pool threads (or inline when the pool has
  /// one thread). The first exception thrown by any trial is rethrown on
  /// the calling thread after all workers joined.
  template <typename Fn>
  auto Run(int num_trials, Fn&& fn) -> std::vector<decltype(fn(0))> {
    using Result = decltype(fn(0));
    std::vector<Result> slots(static_cast<size_t>(num_trials > 0 ? num_trials
                                                                 : 0));
    RunIndexed(num_trials, [&slots, &fn](int trial) {
      slots[static_cast<size_t>(trial)] = fn(trial);
    });
    return slots;
  }

  /// Untyped core: runs `body(trial)` for every trial in [0, num_trials).
  /// Useful when the trial writes its outputs somewhere slot-indexed
  /// itself.
  void RunIndexed(int num_trials, const std::function<void(int)>& body);

 private:
  int threads_;
};

}  // namespace memgoal::bench

#endif  // MEMGOAL_BENCH_TRIAL_RUNNER_H_
