#ifndef MEMGOAL_OBS_PROFILER_H_
#define MEMGOAL_OBS_PROFILER_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

namespace memgoal::obs {

/// Static registry of the profiled wall-clock phases. These are the
/// repository's measured hot paths (the paper's Table 1 cost centers plus
/// the simulation engine itself); adding a phase means adding an enumerator
/// here and a name in PhaseName() — call sites then open a ProfileScope.
enum class Phase : uint8_t {
  kSimStep = 0,      // simulator event dispatch (Run/RunUntil/Step)
  kVictimSelect,     // cache::CostBasedPolicy::ChooseVictim revalidation
  kHeapMaintain,     // cost-based policy indexed-heap insert/update/erase
  kHeatUpdate,       // LRU-K heat record updates and horizon sweeps
  kSimplexSolve,     // la::SimplexSolver::Solve (the partitioning LP)
  kRowReplace,       // la::RowReplaceInverse resets and row replacements
  kNetSend,          // network transfer send-side bookkeeping
  kNetReceive,       // network transfer delivery-side bookkeeping
  kControllerCheck,  // controller interval rollup + report fan-out
};

inline constexpr int kNumPhases = 9;

const char* PhaseName(Phase phase);

/// Scoped-phase wall-clock profiler.
///
/// Mirrors the `obs::Trace` contract: instrumented call sites cost one
/// thread-local load and one branch when no profiler is installed (or the
/// installed one is disabled) — the bench_table1_overhead --quick gate
/// enforces that envelope — and the profiler only ever *reads* the wall
/// clock, so an enabled profiler cannot perturb the simulation (same gate,
/// fingerprint arm).
///
/// A profiler is installed per thread (Profiler::ScopedInstall); nested
/// ProfileScopes form a stack, so the profiler accumulates both a flat
/// per-phase view (count, total, max — inclusive of children) and
/// self-time per distinct stack path for folded-stack flamegraph output.
class Profiler {
 public:
  struct PhaseStats {
    uint64_t count = 0;
    uint64_t total_ns = 0;  // inclusive of nested phases
    uint64_t max_ns = 0;
  };

  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// The profiler installed on the current thread (null when none).
  static Profiler* Current();

  /// Installs `profiler` (may be null) on the current thread for the
  /// lifetime of this object; restores the previous installation on
  /// destruction.
  class ScopedInstall {
   public:
    explicit ScopedInstall(Profiler* profiler);
    ~ScopedInstall();
    ScopedInstall(const ScopedInstall&) = delete;
    ScopedInstall& operator=(const ScopedInstall&) = delete;

   private:
    Profiler* previous_;
  };

  /// Records one externally timed sample of `phase` (depth-1 stack path).
  /// Also the deterministic injection point for tests: samples are exact
  /// integers, so the output is bit-identical regardless of timing.
  void AddSample(Phase phase, uint64_t ns);

  const PhaseStats& stats(Phase phase) const {
    return phases_[static_cast<size_t>(phase)];
  }
  /// Total samples across all phases (cheap emptiness probe).
  uint64_t total_count() const;
  /// Sum of depth-1 self times: wall time spent under any profiled scope.
  uint64_t profiled_ns() const;

  /// Folded-stack text ("memgoal;sim.step;la.simplex_solve <self_ns>"),
  /// one line per distinct stack path — feed to flamegraph.pl or speedscope.
  void WriteFolded(std::FILE* out) const;

  /// JSON object {"phases":[{...}],"profiled_ms":...}, the body of
  /// `memgoal_sim --profile-out`. Phases with zero samples are omitted.
  void AppendJson(std::string* out) const;

 private:
  friend class ProfileScope;

  struct PathStats {
    uint64_t count = 0;
    uint64_t self_ns = 0;  // exclusive of nested phases
  };
  struct Frame {
    Phase phase;
    uint64_t start_ns = 0;
    uint64_t child_ns = 0;
    uint64_t parent_path = 0;
  };

  /// Stack paths are encoded 5 bits per level (phase index + 1), root at
  /// the most significant end; depth beyond kMaxEncodedDepth folds into
  /// its ancestor's path so the encoding never overflows.
  static constexpr int kMaxEncodedDepth = 12;

  /// Wall clock in nanoseconds. On x86 this reads the TSC and scales by a
  /// once-per-process calibration against steady_clock — a fraction of a
  /// clock_gettime call, which matters at two reads per scope.
  static uint64_t NowNs();

  void Push(Phase phase);
  void Pop();

  bool enabled_ = false;
  std::array<PhaseStats, kNumPhases> phases_{};
  // Hash map on the hot Pop path; exports sort by encoded path so output
  // stays deterministic.
  std::unordered_map<uint64_t, PathStats> paths_;
  // One-entry memo: event loops pop the same stack path back to back, so
  // most Pops skip the hash lookup. unordered_map nodes are
  // pointer-stable, so the cached pointer survives rehash.
  uint64_t memo_key_ = 0;
  PathStats* memo_ = nullptr;
  std::vector<Frame> stack_;
  uint64_t current_path_ = 0;
};

/// RAII scope attributing its lifetime's wall time to `phase` on the
/// thread's installed profiler. When none is installed (the default) the
/// constructor is a thread-local load and a branch. Must not live across a
/// coroutine suspension point: suspended wall time is not this phase's.
class ProfileScope {
 public:
  explicit ProfileScope(Phase phase) : profiler_(Profiler::Current()) {
    if (profiler_ == nullptr) return;
    if (!profiler_->enabled()) {
      profiler_ = nullptr;
      return;
    }
    profiler_->Push(phase);
  }
  ~ProfileScope() {
    if (profiler_ != nullptr) profiler_->Pop();
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  Profiler* profiler_;
};

}  // namespace memgoal::obs

#endif  // MEMGOAL_OBS_PROFILER_H_
