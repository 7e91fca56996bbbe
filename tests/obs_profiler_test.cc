// Pins the profiler contracts stated in src/obs/profiler.h: an uninstalled
// or disabled profiler records nothing, scope accounting is inclusive for
// the flat view and exclusive for folded paths, and an enabled profiler
// never changes simulation output.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "bench/experiment.h"
#include "common/rng.h"
#include "core/metrics.h"
#include "core/system.h"
#include "obs/profiler.h"

namespace memgoal::obs {
namespace {

std::string FoldedOf(const Profiler& profiler) {
  char* buf = nullptr;
  size_t size = 0;
  std::FILE* stream = open_memstream(&buf, &size);
  profiler.WriteFolded(stream);
  std::fclose(stream);
  std::string folded(buf, size);
  std::free(buf);
  return folded;
}

std::string JsonOf(const Profiler& profiler) {
  std::string json;
  profiler.AppendJson(&json);
  return json;
}

TEST(ProfilerTest, NoInstalledProfilerIsANoOp) {
  ASSERT_EQ(Profiler::Current(), nullptr);
  { ProfileScope scope(Phase::kSimStep); }  // must not crash
}

TEST(ProfilerTest, DisabledProfilerRecordsNothing) {
  Profiler profiler;  // default: disabled
  Profiler::ScopedInstall install(&profiler);
  {
    ProfileScope outer(Phase::kSimStep);
    ProfileScope inner(Phase::kSimplexSolve);
  }
  EXPECT_EQ(profiler.total_count(), 0u);
  EXPECT_EQ(profiler.profiled_ns(), 0u);
}

TEST(ProfilerTest, ScopedInstallRestoresPreviousProfiler) {
  Profiler first;
  first.Enable(true);
  {
    Profiler::ScopedInstall outer(&first);
    EXPECT_EQ(Profiler::Current(), &first);
    Profiler second;
    {
      Profiler::ScopedInstall inner(&second);
      EXPECT_EQ(Profiler::Current(), &second);
      // A null install shadows any ambient profiler.
      Profiler::ScopedInstall shadow(nullptr);
      EXPECT_EQ(Profiler::Current(), nullptr);
    }
    EXPECT_EQ(Profiler::Current(), &first);
  }
  EXPECT_EQ(Profiler::Current(), nullptr);
}

TEST(ProfilerTest, NestedScopesAccountInclusiveFlatAndExclusivePaths) {
  Profiler profiler;
  profiler.Enable(true);
  {
    Profiler::ScopedInstall install(&profiler);
    ProfileScope outer(Phase::kSimStep);
    { ProfileScope inner(Phase::kSimplexSolve); }
    { ProfileScope inner(Phase::kSimplexSolve); }
  }
  EXPECT_EQ(profiler.stats(Phase::kSimStep).count, 1u);
  EXPECT_EQ(profiler.stats(Phase::kSimplexSolve).count, 2u);
  // Flat totals are inclusive of children, so the parent's total bounds the
  // children's.
  EXPECT_GE(profiler.stats(Phase::kSimStep).total_ns,
            profiler.stats(Phase::kSimplexSolve).total_ns);
  EXPECT_GE(profiler.stats(Phase::kSimplexSolve).max_ns, 1u);
  // The folded view knows the nesting.
  const std::string folded = FoldedOf(profiler);
  EXPECT_NE(folded.find("memgoal;sim.step "), std::string::npos);
  EXPECT_NE(folded.find("memgoal;sim.step;la.simplex_solve "),
            std::string::npos);
  // Self time across all paths equals the root's inclusive time.
  EXPECT_EQ(profiler.profiled_ns(), profiler.stats(Phase::kSimStep).total_ns);
}

TEST(ProfilerTest, AddSampleIsExact) {
  Profiler profiler;
  profiler.Enable(true);
  profiler.AddSample(Phase::kNetSend, 100);
  profiler.AddSample(Phase::kNetSend, 250);
  EXPECT_EQ(profiler.stats(Phase::kNetSend).count, 2u);
  EXPECT_EQ(profiler.stats(Phase::kNetSend).total_ns, 350u);
  EXPECT_EQ(profiler.stats(Phase::kNetSend).max_ns, 250u);
  EXPECT_EQ(profiler.profiled_ns(), 350u);
  // Integer samples make both exports exact.
  EXPECT_EQ(JsonOf(profiler),
            "{\"phases\":[{\"name\":\"net.send\",\"count\":2,"
            "\"total_ms\":0.000350,\"mean_us\":0.175,\"max_us\":0.250}],"
            "\"profiled_ms\":0.000350}");
  EXPECT_EQ(FoldedOf(profiler), "memgoal;net.send 350\n");
}

// Renders a small cluster run's full interval log; comparing the serialized
// bytes catches any perturbation in any field of any record.
std::string RunSmallClusterCsv(bool with_profiler) {
  bench::Setup setup;
  setup.seed = 7;
  setup.pages_per_class = 100;
  setup.cache_bytes_per_node = 64 * 4096;
  setup.interarrival_ms = 50.0;
  setup.observation_interval_ms = 2000.0;
  Profiler profiler;
  profiler.Enable(with_profiler);
  Profiler::ScopedInstall install(with_profiler ? &profiler : nullptr);
  std::unique_ptr<core::ClusterSystem> system = bench::BuildSystem(setup);
  system->SetGoal(1, 30.0);
  system->Start();
  system->RunIntervals(8);
  char* buf = nullptr;
  size_t size = 0;
  std::FILE* stream = open_memstream(&buf, &size);
  system->metrics().WriteCsv(stream);
  std::fclose(stream);
  std::string csv(buf, size);
  std::free(buf);
  if (with_profiler) {
    // The run must actually have exercised the instrumented hot paths.
    EXPECT_GT(profiler.stats(Phase::kSimStep).count, 0u);
    EXPECT_GT(profiler.stats(Phase::kControllerCheck).count, 0u);
  }
  return csv;
}

TEST(ProfilerTest, EnabledProfilerDoesNotChangeSimulationOutput) {
  const std::string bare = RunSmallClusterCsv(/*with_profiler=*/false);
  const std::string profiled = RunSmallClusterCsv(/*with_profiler=*/true);
  EXPECT_EQ(bare, profiled);
  EXPECT_FALSE(bare.empty());
}

}  // namespace
}  // namespace memgoal::obs
