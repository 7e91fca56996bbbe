#include "bench/trial_runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace memgoal::bench {

TrialRunner::TrialRunner(int threads) {
  if (threads < 1) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 0 ? static_cast<int>(hw) : 1;
  }
  threads_ = threads;
}

void TrialRunner::RunIndexed(int num_trials,
                             const std::function<void(int)>& body) {
  if (num_trials <= 0) return;

  // One thread (or one trial): run inline. Bit-identical to the pooled path
  // by construction — the pooled path only changes *when* a trial executes,
  // never what it computes — and friendlier to debuggers and sanitizers.
  const int workers = std::min(threads_, num_trials);
  if (workers == 1) {
    for (int trial = 0; trial < num_trials; ++trial) body(trial);
    return;
  }

  std::atomic<int> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto worker = [&] {
    for (;;) {
      const int trial = next.fetch_add(1, std::memory_order_relaxed);
      if (trial >= num_trials) return;
      try {
        body(trial);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace memgoal::bench
