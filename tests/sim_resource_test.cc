#include "sim/resource.h"

#include <vector>

#include <gtest/gtest.h>

#include "obs/latency_budget.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace memgoal::sim {
namespace {

using obs::BudgetPhase;
using obs::RequestBudget;

double Phase(const RequestBudget& budget, BudgetPhase phase) {
  return budget.phase_ms[static_cast<int>(phase)];
}

Task<void> UseOnce(Simulator* simulator, Resource* resource, SimTime service,
                   int id, std::vector<std::pair<int, double>>* done,
                   RequestBudget* budget = nullptr) {
  co_await resource->Use(service, budget);
  done->push_back({id, simulator->Now()});
}

TEST(ResourceTest, SerializesUnitCapacity) {
  Simulator simulator;
  Resource cpu(&simulator, 1, "cpu");
  std::vector<std::pair<int, double>> done;
  RequestBudget budgets[3];
  for (int i = 0; i < 3; ++i) {
    simulator.Spawn(UseOnce(&simulator, &cpu, 10.0, i, &done, &budgets[i]));
  }
  simulator.Run();
  ASSERT_EQ(done.size(), 3u);
  // FCFS: completion order equals arrival order, spaced by service time.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(done[i].first, i);
    EXPECT_DOUBLE_EQ(done[i].second, 10.0 * (i + 1));
  }
  // Each user queued exactly as long as its predecessors held the unit, and
  // the budget charges nothing but the resource's wait/service phases.
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(Phase(budgets[i], BudgetPhase::kCpuService), 10.0);
    EXPECT_DOUBLE_EQ(budgets[i].Sum(), 10.0 * (i + 1));
  }
  EXPECT_DOUBLE_EQ(Phase(budgets[0], BudgetPhase::kCpuWait), 0.0);
  EXPECT_DOUBLE_EQ(Phase(budgets[1], BudgetPhase::kCpuWait),
                   Phase(budgets[0], BudgetPhase::kCpuService));
  EXPECT_DOUBLE_EQ(Phase(budgets[2], BudgetPhase::kCpuWait), 20.0);
}

TEST(ResourceTest, ParallelismUpToCapacity) {
  Simulator simulator;
  Resource cpu(&simulator, 2, "cpu");
  std::vector<std::pair<int, double>> done;
  for (int i = 0; i < 4; ++i) {
    simulator.Spawn(UseOnce(&simulator, &cpu, 10.0, i, &done));
  }
  simulator.Run();
  ASSERT_EQ(done.size(), 4u);
  // Two at a time: finish at 10, 10, 20, 20.
  EXPECT_DOUBLE_EQ(done[0].second, 10.0);
  EXPECT_DOUBLE_EQ(done[1].second, 10.0);
  EXPECT_DOUBLE_EQ(done[2].second, 20.0);
  EXPECT_DOUBLE_EQ(done[3].second, 20.0);
}

Task<void> StaggeredUse(Simulator* simulator, Resource* resource,
                        SimTime start, SimTime service,
                        std::vector<double>* completions) {
  co_await simulator->Delay(start);
  co_await resource->Acquire();
  co_await simulator->Delay(service);
  resource->Release();
  completions->push_back(simulator->Now());
}

TEST(ResourceTest, WaitStatisticsRecorded) {
  Simulator simulator;
  Resource disk(&simulator, 1, "disk");
  std::vector<double> completions;
  // First arrives at 0 (no wait), second at 1 (waits 9).
  simulator.Spawn(StaggeredUse(&simulator, &disk, 0.0, 10.0, &completions));
  simulator.Spawn(StaggeredUse(&simulator, &disk, 1.0, 10.0, &completions));
  simulator.Run();
  EXPECT_EQ(disk.total_acquisitions(), 2u);
  EXPECT_DOUBLE_EQ(disk.wait_stats().min(), 0.0);
  EXPECT_DOUBLE_EQ(disk.wait_stats().max(), 9.0);
}

TEST(ResourceTest, UtilizationIntegratesBusyTime) {
  Simulator simulator;
  Resource disk(&simulator, 1, "disk");
  std::vector<double> completions;
  simulator.Spawn(StaggeredUse(&simulator, &disk, 0.0, 25.0, &completions));
  simulator.Run();
  simulator.RunUntil(100.0);
  // Busy 25 ms of 100 ms.
  EXPECT_NEAR(disk.UtilizationAt(simulator.Now()), 0.25, 1e-12);
}

TEST(ResourceTest, UseHelperEquivalent) {
  Simulator simulator;
  Resource disk(&simulator, 1, "disk");
  simulator.Spawn(disk.Use(5.0));
  simulator.Spawn(disk.Use(5.0));
  simulator.Run();
  EXPECT_DOUBLE_EQ(simulator.Now(), 10.0);
  EXPECT_EQ(disk.total_acquisitions(), 2u);
  EXPECT_EQ(disk.in_use(), 0);
}

Task<void> HoldAndCount(Simulator* simulator, Resource* resource,
                        int* active, int* max_active) {
  co_await resource->Acquire();
  ++*active;
  *max_active = std::max(*max_active, *active);
  co_await simulator->Delay(1.0);
  --*active;
  resource->Release();
}

TEST(ResourceTest, SlowdownStretchesUse) {
  Simulator simulator;
  Resource disk(&simulator, 1, "disk", BudgetPhase::kDiskWait,
                BudgetPhase::kDiskService);
  disk.SetSlowdown(4.0);
  RequestBudget first;
  RequestBudget second;
  simulator.Spawn(disk.Use(5.0, &first));
  simulator.Spawn(disk.Use(5.0, &second));
  simulator.Run();
  EXPECT_DOUBLE_EQ(simulator.Now(), 40.0);
  // Service is stretched by the factor, and the contending second user
  // waits out the first one's stretched service.
  EXPECT_DOUBLE_EQ(Phase(first, BudgetPhase::kDiskService), 20.0);
  EXPECT_DOUBLE_EQ(Phase(first, BudgetPhase::kDiskWait), 0.0);
  EXPECT_DOUBLE_EQ(Phase(second, BudgetPhase::kDiskService), 20.0);
  EXPECT_DOUBLE_EQ(Phase(second, BudgetPhase::kDiskWait),
                   Phase(first, BudgetPhase::kDiskService));
  EXPECT_DOUBLE_EQ(Phase(second, BudgetPhase::kCpuWait), 0.0);
  // Lifting the episode restores nominal service times.
  disk.SetSlowdown(1.0);
  RequestBudget healthy;
  simulator.Spawn(disk.Use(5.0, &healthy));
  simulator.Run();
  EXPECT_DOUBLE_EQ(simulator.Now(), 45.0);
  EXPECT_DOUBLE_EQ(Phase(healthy, BudgetPhase::kDiskService), 5.0);
}

TEST(ResourceTest, WaitAndBusyQuantiles) {
  Simulator simulator;
  Resource disk(&simulator, 1, "disk");
  // Five simultaneous arrivals at a unit-capacity server: waits are
  // 0, 10, 20, 30, 40 ms and every busy hold is 10 ms.
  for (int i = 0; i < 5; ++i) simulator.Spawn(disk.Use(10.0));
  simulator.Run();
  const double bucket = Resource::kHistogramMaxMs / Resource::kHistogramBuckets;
  EXPECT_NEAR(disk.WaitQuantile(0.99), 40.0, bucket + 1e-9);
  EXPECT_NEAR(disk.WaitQuantile(0.5), 20.0, bucket + 1e-9);
  EXPECT_NEAR(disk.BusyQuantile(0.5), 10.0, bucket + 1e-9);
  EXPECT_NEAR(disk.BusyQuantile(0.99), 10.0, bucket + 1e-9);
}

TEST(ResourceTest, QuantilesSeeSlowdownInflatedTail) {
  Simulator simulator;
  Resource disk(&simulator, 1, "disk");
  for (int i = 0; i < 9; ++i) simulator.Spawn(disk.Use(2.0));
  simulator.Run();
  // One gray episode stretches the tenth hold 50x: the p99 busy hold jumps
  // to the degraded service time while the median stays nominal.
  disk.SetSlowdown(50.0);
  simulator.Spawn(disk.Use(2.0));
  simulator.Run();
  const double bucket = Resource::kHistogramMaxMs / Resource::kHistogramBuckets;
  EXPECT_NEAR(disk.BusyQuantile(0.5), 2.0, bucket + 1e-9);
  EXPECT_NEAR(disk.BusyQuantile(0.99), 100.0, bucket + 1e-9);
}

TEST(ResourceTest, NeverExceedsCapacity) {
  Simulator simulator;
  Resource resource(&simulator, 3, "r");
  int active = 0, max_active = 0;
  for (int i = 0; i < 20; ++i) {
    simulator.Spawn(HoldAndCount(&simulator, &resource, &active, &max_active));
  }
  simulator.Run();
  EXPECT_EQ(max_active, 3);
  EXPECT_EQ(active, 0);
  EXPECT_EQ(resource.queue_length(), 0u);
}

}  // namespace
}  // namespace memgoal::sim
