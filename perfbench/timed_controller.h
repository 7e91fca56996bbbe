#ifndef MEMGOAL_PERFBENCH_TIMED_CONTROLLER_H_
#define MEMGOAL_PERFBENCH_TIMED_CONTROLLER_H_

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/goal_controller.h"
#include "core/system.h"
#include "spans.h"

namespace memgoal::perfbench {

/// Controller decorator: forwards every virtual to a GoalOrientedController
/// it owns, times each OnIntervalEnd call on the host clock, and (in the
/// traced run) records it as a child span of the current interval span.
/// Holding the inner controller by its own type gives the benchmark its
/// ProtocolStats without a dynamic_cast on ClusterSystem::controller().
class TimedController final : public core::Controller {
 public:
  TimedController()
      : inner_(std::make_unique<core::GoalOrientedController>()) {}

  const core::GoalOrientedController& inner() const { return *inner_; }

  /// Host wall time of every OnIntervalEnd call so far, in ms.
  const std::vector<double>& interval_end_ms() const { return interval_end_ms_; }

  /// Span recorder and parent span for the next OnIntervalEnd calls; a
  /// null recorder records nothing.
  void SetSpanParent(SpanRecorder* recorder, int parent) {
    recorder_ = recorder;
    parent_span_ = parent;
  }

  void Attach(core::ClusterSystem* system) override { inner_->Attach(system); }
  void OnIntervalEnd(int interval_index) override {
    ScopedSpan span(recorder_, "controller.on_interval_end", parent_span_);
    const auto start = std::chrono::steady_clock::now();
    inner_->OnIntervalEnd(interval_index);
    interval_end_ms_.push_back(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  void OnGoalChanged(ClassId klass) override { inner_->OnGoalChanged(klass); }
  void OnNodeCrash(NodeId node) override { inner_->OnNodeCrash(node); }
  void OnNodeRecover(NodeId node) override { inner_->OnNodeRecover(node); }
  void OnPartitionChange() override { inner_->OnPartitionChange(); }
  std::optional<std::string> AuditInvariants() const override {
    return inner_->AuditInvariants();
  }
  double ToleranceFor(ClassId klass) const override {
    return inner_->ToleranceFor(klass);
  }
  core::LpOutcomeCounters LpOutcomes() const override {
    return inner_->LpOutcomes();
  }
  void PublishMetrics(obs::Registry* registry) override {
    inner_->PublishMetrics(registry);
  }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<core::GoalOrientedController> inner_;
  std::vector<double> interval_end_ms_;
  SpanRecorder* recorder_ = nullptr;
  int parent_span_ = SpanRecorder::kNoParent;
};

}  // namespace memgoal::perfbench

#endif  // MEMGOAL_PERFBENCH_TIMED_CONTROLLER_H_
