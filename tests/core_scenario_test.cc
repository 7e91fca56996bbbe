#include "core/scenario.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "common/config.h"

namespace memgoal::core {
namespace {

std::optional<Scenario> Load(const std::string& text, std::string* error) {
  common::Config config;
  EXPECT_TRUE(config.ParseText(text));
  return LoadScenario(config, error);
}

TEST(ScenarioTest, HintBudgetKeyPopulatesConfig) {
  std::string error;
  const std::optional<Scenario> scenario = Load("hint_budget=12\nclass1_goal_ms=50\n", &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  EXPECT_EQ(scenario->system.hint_fanout_budget, 12u);
  // Default: unlimited fan-out.
  const std::optional<Scenario> fallback = Load("nodes=3\nclass1_goal_ms=50\n", &error);
  ASSERT_TRUE(fallback.has_value()) << error;
  EXPECT_EQ(fallback->system.hint_fanout_budget, 0u);
}

TEST(ScenarioTest, CorruptNearMissGetsSuggestion) {
  std::string error;
  EXPECT_FALSE(Load("corrupt=frmaes\n", &error).has_value());
  EXPECT_NE(error.find("corrupt must be off, disk, frames or all"),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("did you mean frames?"), std::string::npos) << error;
}

TEST(ScenarioTest, ScrubNearMissGetsSuggestion) {
  std::string error;
  EXPECT_FALSE(Load("scrub=idel\n", &error).has_value());
  EXPECT_NE(error.find("scrub must be off or idle"), std::string::npos)
      << error;
  EXPECT_NE(error.find("did you mean idle?"), std::string::npos) << error;
}

TEST(ScenarioTest, FarFetchedEnumValueGetsNoSuggestion) {
  std::string error;
  EXPECT_FALSE(Load("corrupt=fibonacci\n", &error).has_value());
  EXPECT_NE(error.find("corrupt must be"), std::string::npos) << error;
  EXPECT_EQ(error.find("did you mean"), std::string::npos) << error;
}

TEST(ScenarioTest, CorruptionKeysPopulateConfig) {
  std::string error;
  const std::optional<Scenario> scenario = Load(
      "class1_goal_ms=5\n"
      "corrupt=disk\n"
      "fault_mttc_ms=40000\n"
      "corrupt_latent=0.25\n"
      "corrupt_node=2\n"
      "corrupt_at_ms=1500\n"
      "corrupt_count=3\n"
      "corrupt_salt=77\n"
      "scrub=idle\n"
      "scrub_interval_ms=800\n",
      &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  const SystemConfig& system = scenario->system;
  EXPECT_EQ(system.corrupt_surface, CorruptionSurface::kDisk);
  EXPECT_DOUBLE_EQ(system.faults.mttc_ms, 40000.0);
  EXPECT_DOUBLE_EQ(system.corrupt_latent_fraction, 0.25);
  EXPECT_DOUBLE_EQ(system.scrub_interval_ms, 800.0);
  ASSERT_EQ(system.faults.corruption_script.size(), 1u);
  EXPECT_DOUBLE_EQ(system.faults.corruption_script[0].at_ms, 1500.0);
  EXPECT_EQ(system.faults.corruption_script[0].node, 2u);
  EXPECT_EQ(system.faults.corruption_script[0].count, 3u);
  EXPECT_EQ(system.faults.corruption_script[0].salt, 77u);
}

TEST(ScenarioTest, CorruptOffIsAKillSwitch) {
  std::string error;
  const std::optional<Scenario> scenario = Load(
      "class1_goal_ms=5\n"
      "corrupt=off\n"
      "fault_mttc_ms=40000\n"
      "corrupt_node=2\n",
      &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  EXPECT_DOUBLE_EQ(scenario->system.faults.mttc_ms, 0.0);
  EXPECT_TRUE(scenario->system.faults.corruption_script.empty());
}

TEST(ScenarioTest, ScrubDefaultsOff) {
  std::string error;
  const std::optional<Scenario> scenario = Load("nodes=3\nclass1_goal_ms=5\n", &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  EXPECT_DOUBLE_EQ(scenario->system.scrub_interval_ms, 0.0);
  EXPECT_DOUBLE_EQ(scenario->system.faults.mttc_ms, 0.0);
}

}  // namespace
}  // namespace memgoal::core
