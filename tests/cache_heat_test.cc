#include "cache/heat.h"

#include <algorithm>
#include <deque>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace memgoal::cache {
namespace {

TEST(HeatTrackerTest, NeverAccessedIsZero) {
  HeatTracker tracker(2);
  EXPECT_DOUBLE_EQ(tracker.HeatOf(1, 100.0), 0.0);
  EXPECT_EQ(tracker.AccessCount(1), 0);
}

TEST(HeatTrackerTest, SingleAccessHeat) {
  HeatTracker tracker(2, /*epsilon_ms=*/1.0);
  tracker.RecordAccess(1, 100.0);
  // heat = 1 / (now - t1 + eps).
  EXPECT_DOUBLE_EQ(tracker.HeatOf(1, 150.0), 1.0 / 51.0);
  EXPECT_EQ(tracker.AccessCount(1), 1);
}

TEST(HeatTrackerTest, LruKUsesKthMostRecent) {
  HeatTracker tracker(2, 1.0);
  tracker.RecordAccess(1, 100.0);
  tracker.RecordAccess(1, 200.0);
  tracker.RecordAccess(1, 300.0);
  // K=2: second most recent access is at t=200.
  EXPECT_DOUBLE_EQ(tracker.BackwardKTime(1), 200.0);
  EXPECT_DOUBLE_EQ(tracker.HeatOf(1, 400.0), 2.0 / 201.0);
}

TEST(HeatTrackerTest, HeatDecaysOverTime) {
  HeatTracker tracker(2, 1.0);
  tracker.RecordAccess(1, 0.0);
  tracker.RecordAccess(1, 10.0);
  const double early = tracker.HeatOf(1, 20.0);
  const double late = tracker.HeatOf(1, 2000.0);
  EXPECT_GT(early, late);
}

TEST(HeatTrackerTest, FrequentAccessesAreHotter) {
  HeatTracker tracker(2, 1.0);
  tracker.RecordAccess(1, 90.0);
  tracker.RecordAccess(1, 100.0);
  tracker.RecordAccess(2, 10.0);
  tracker.RecordAccess(2, 100.0);
  EXPECT_GT(tracker.HeatOf(1, 101.0), tracker.HeatOf(2, 101.0));
}

TEST(HeatTrackerTest, HistorySurvivesForget) {
  HeatTracker tracker(2);
  tracker.RecordAccess(1, 10.0);
  EXPECT_EQ(tracker.tracked_pages(), 1u);
  tracker.Forget(1);
  EXPECT_EQ(tracker.tracked_pages(), 0u);
  EXPECT_DOUBLE_EQ(tracker.HeatOf(1, 20.0), 0.0);
}

TEST(HeatTrackerTest, BackwardKTimeBeforeKAccesses) {
  HeatTracker tracker(3);
  tracker.RecordAccess(1, 50.0);
  tracker.RecordAccess(1, 60.0);
  // Only 2 of 3 accesses: oldest retained is t=50.
  EXPECT_DOUBLE_EQ(tracker.BackwardKTime(1), 50.0);
}

class HeatKSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(HeatKSweepTest, CircularBufferWrapsCorrectly) {
  const int k = GetParam();
  HeatTracker tracker(k, 1.0);
  // 3k accesses at times 1, 2, ..., 3k.
  for (int t = 1; t <= 3 * k; ++t) {
    tracker.RecordAccess(7, static_cast<double>(t));
  }
  // The K-th most recent is at time 3k - (k - 1) = 2k + 1.
  EXPECT_DOUBLE_EQ(tracker.BackwardKTime(7), static_cast<double>(2 * k + 1));
  const double now = static_cast<double>(3 * k + 10);
  EXPECT_DOUBLE_EQ(tracker.HeatOf(7, now),
                   static_cast<double>(k) / (now - (2 * k + 1) + 1.0));
}

INSTANTIATE_TEST_SUITE_P(Ks, HeatKSweepTest, ::testing::Values(1, 2, 3, 5, 8));

TEST(HeatTrackerTest, EvictColderThanDropsStaleHistory) {
  HeatTracker tracker(2);
  tracker.RecordAccess(1, 10.0);
  tracker.RecordAccess(1, 20.0);   // backward-2 time 10
  tracker.RecordAccess(2, 90.0);   // backward time 90
  tracker.RecordAccess(3, 40.0);
  tracker.RecordAccess(3, 95.0);   // backward-2 time 40
  ASSERT_EQ(tracker.tracked_pages(), 3u);

  EXPECT_EQ(tracker.EvictColderThan(50.0), 2u);  // pages 1 and 3
  EXPECT_EQ(tracker.tracked_pages(), 1u);
  EXPECT_EQ(tracker.AccessCount(1), 0);
  EXPECT_EQ(tracker.AccessCount(3), 0);
  // Page 2 survives with its history intact.
  EXPECT_DOUBLE_EQ(tracker.BackwardKTime(2), 90.0);
  // An evicted page restarts cold, exactly like one never seen.
  EXPECT_DOUBLE_EQ(tracker.HeatOf(1, 100.0), 0.0);
  tracker.RecordAccess(1, 100.0);
  EXPECT_EQ(tracker.AccessCount(1), 1);
}

TEST(HeatTrackerTest, EvictColderThanHonorsRetainPredicate) {
  HeatTracker tracker(2);
  tracker.RecordAccess(1, 10.0);
  tracker.RecordAccess(2, 10.0);
  // Both are stale, but page 1 is "resident" and must be kept.
  const size_t evicted = tracker.EvictColderThan(
      50.0, [](PageId page) { return page == 1; });
  EXPECT_EQ(evicted, 1u);
  EXPECT_EQ(tracker.tracked_pages(), 1u);
  EXPECT_EQ(tracker.AccessCount(1), 1);
  EXPECT_EQ(tracker.AccessCount(2), 0);
}

TEST(HeatTrackerTest, LongScanStaysBoundedUnderPeriodicEviction) {
  // A pure sequential scan touches each page once. Without pruning the map
  // grows by one record per page forever; with a periodic horizon sweep the
  // footprint is bounded by the pages touched within one horizon.
  HeatTracker tracker(2);
  constexpr double kHorizonMs = 1000.0;
  constexpr double kStepMs = 1.0;
  size_t max_tracked = 0;
  for (int page = 0; page < 20000; ++page) {
    const double now = page * kStepMs;
    tracker.RecordAccess(static_cast<PageId>(page), now);
    if (page % 500 == 0 && now > kHorizonMs) {
      tracker.EvictColderThan(now - kHorizonMs);
    }
    max_tracked = std::max(max_tracked, tracker.tracked_pages());
  }
  // Bound: one horizon's worth of scan pages plus one sweep period of slack
  // — far below the 20000 pages touched.
  EXPECT_LE(max_tracked,
            static_cast<size_t>(kHorizonMs / kStepMs) + 500 + 1);
  EXPECT_GE(max_tracked, static_cast<size_t>(kHorizonMs / kStepMs) / 2);
}

// The full-scan pruning HeatTracker::EvictColderThan replaced, over the
// plainest possible history store: the oracle the aging heap must agree
// with on every sweep.
class FullScanHeatTracker {
 public:
  explicit FullScanHeatTracker(int k) : k_(k) {}

  void RecordAccess(PageId page, sim::SimTime now) {
    History& h = history_[page];
    h.times.push_back(now);
    if (static_cast<int>(h.times.size()) > k_) h.times.pop_front();
    ++h.count;
  }
  void Forget(PageId page) { history_.erase(page); }

  double HeatOf(PageId page, sim::SimTime now) const {
    auto it = history_.find(page);
    if (it == history_.end()) return 0.0;
    const int m = static_cast<int>(it->second.times.size());
    return static_cast<double>(m) / (now - it->second.times.front() + 1.0);
  }
  sim::SimTime BackwardKTime(PageId page) const {
    auto it = history_.find(page);
    return it == history_.end() ? 0.0 : it->second.times.front();
  }
  int AccessCount(PageId page) const {
    auto it = history_.find(page);
    return it == history_.end() ? 0 : it->second.count;
  }
  size_t tracked_pages() const { return history_.size(); }

  std::vector<PageId> EvictColderThan(
      sim::SimTime horizon, const std::function<bool(PageId)>& retain) {
    std::vector<PageId> evicted;
    for (auto it = history_.begin(); it != history_.end();) {
      if (it->second.times.front() < horizon && !retain(it->first)) {
        evicted.push_back(it->first);
        it = history_.erase(it);
      } else {
        ++it;
      }
    }
    return evicted;
  }

 private:
  struct History {
    std::deque<sim::SimTime> times;  // last up-to-K access times, oldest first
    int count = 0;
  };
  int k_;
  std::map<PageId, History> history_;
};

class HeatAgingEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(HeatAgingEquivalenceTest, RandomOpsMatchFullScanOracle) {
  const int k = GetParam();
  constexpr PageId kPages = 48;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    common::Rng rng(seed * 1000 + static_cast<uint64_t>(k));
    HeatTracker tracker(k, 1.0);
    FullScanHeatTracker oracle(k);
    // Even seeds churn: Forget-heavy with rare sweeps, so stale aging
    // entries pile up and the heap is rebuilt from the live histories.
    const bool churn = seed % 2 == 0;
    const double sweep_share = churn ? 0.02 : 0.12;
    const double forget_share = churn ? 0.3 : 0.08;
    sim::SimTime now = 0.0;
    size_t sweeps_with_evictions = 0;
    for (int op = 0; op < 3000; ++op) {
      // Same-instant steps are common, as in a simulation.
      if (rng.NextDouble() < 0.6) now += rng.Exponential(3.0);
      // A small page universe with a hot subset: pages age out, get
      // evicted and are re-created by later accesses.
      const PageId page = static_cast<PageId>(
          rng.NextDouble() < 0.5 ? rng.UniformInt(0, 7)
                                 : rng.UniformInt(0, kPages - 1));
      const double action = rng.NextDouble();
      if (action >= sweep_share + forget_share) {
        oracle.RecordAccess(page, now);
        if (rng.NextDouble() < 0.5) {
          tracker.RecordAccess(page, now);
        } else {
          ASSERT_EQ(tracker.RecordAndHeat(page, now),
                    oracle.HeatOf(page, now));
        }
      } else if (action >= sweep_share) {
        tracker.Forget(page);
        oracle.Forget(page);
      } else {
        const sim::SimTime horizon = now - rng.Uniform(0.0, 60.0);
        // Random residency per sweep; sometimes nothing is retained.
        std::vector<bool> resident(kPages);
        const double share = rng.NextDouble() < 0.2 ? 0.0 : rng.NextDouble();
        for (PageId p = 0; p < kPages; ++p) {
          resident[p] = rng.NextDouble() < share;
        }
        const auto retain = [&](PageId p) { return bool{resident[p]}; };
        std::vector<PageId> evicted;
        const size_t count = tracker.EvictColderThan(horizon, retain, &evicted);
        std::vector<PageId> expected = oracle.EvictColderThan(horizon, retain);
        std::sort(evicted.begin(), evicted.end());
        ASSERT_EQ(count, expected.size()) << "seed " << seed << " op " << op;
        ASSERT_EQ(evicted, expected) << "seed " << seed << " op " << op;
        if (!expected.empty()) ++sweeps_with_evictions;
      }
      ASSERT_EQ(tracker.tracked_pages(), oracle.tracked_pages());
      for (PageId p = 0; p < kPages; ++p) {
        ASSERT_EQ(tracker.AccessCount(p), oracle.AccessCount(p));
        ASSERT_EQ(tracker.BackwardKTime(p), oracle.BackwardKTime(p));
        ASSERT_EQ(tracker.HeatOf(p, now), oracle.HeatOf(p, now));
      }
    }
    EXPECT_GT(sweeps_with_evictions, 10u) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, HeatAgingEquivalenceTest,
                         ::testing::Values(1, 2, 3, 5));

}  // namespace
}  // namespace memgoal::cache
