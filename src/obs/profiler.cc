#include "obs/profiler.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <utility>

#include "common/check.h"

#if defined(__x86_64__) || defined(__i386__)
#define MEMGOAL_PROFILER_TSC 1
#endif

namespace memgoal::obs {

namespace {

thread_local Profiler* t_current_profiler = nullptr;

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

#if defined(MEMGOAL_PROFILER_TSC)
// Nanoseconds per TSC tick, measured once at process start against
// steady_clock over a ~200 µs window (<1% error). Modern x86 TSCs are
// constant-rate and synchronized across cores, so one scale serves every
// thread.
double CalibrateNsPerTick() {
  const uint64_t t0 = SteadyNowNs();
  const uint64_t c0 = __builtin_ia32_rdtsc();
  for (;;) {
    const uint64_t t1 = SteadyNowNs();
    const uint64_t c1 = __builtin_ia32_rdtsc();
    if (t1 - t0 >= 200000 && c1 > c0) {
      return static_cast<double>(t1 - t0) / static_cast<double>(c1 - c0);
    }
  }
}

const double g_ns_per_tick = CalibrateNsPerTick();
#endif  // MEMGOAL_PROFILER_TSC

}  // namespace

uint64_t Profiler::NowNs() {
#if defined(MEMGOAL_PROFILER_TSC)
  return static_cast<uint64_t>(
      static_cast<double>(__builtin_ia32_rdtsc()) * g_ns_per_tick);
#else
  return SteadyNowNs();
#endif
}

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kSimStep:
      return "sim.step";
    case Phase::kVictimSelect:
      return "cache.victim_select";
    case Phase::kHeapMaintain:
      return "cache.heap_maintain";
    case Phase::kHeatUpdate:
      return "cache.heat_update";
    case Phase::kSimplexSolve:
      return "la.simplex_solve";
    case Phase::kRowReplace:
      return "la.row_replace";
    case Phase::kNetSend:
      return "net.send";
    case Phase::kNetReceive:
      return "net.receive";
    case Phase::kControllerCheck:
      return "ctrl.check";
  }
  return "?";
}

Profiler* Profiler::Current() { return t_current_profiler; }

Profiler::ScopedInstall::ScopedInstall(Profiler* profiler)
    : previous_(t_current_profiler) {
  t_current_profiler = profiler;
}

Profiler::ScopedInstall::~ScopedInstall() {
  t_current_profiler = previous_;
}

void Profiler::Push(Phase phase) {
  Frame frame;
  frame.phase = phase;
  frame.child_ns = 0;
  frame.parent_path = current_path_;
  if (stack_.size() < static_cast<size_t>(kMaxEncodedDepth)) {
    current_path_ =
        (current_path_ << 5) | (static_cast<uint64_t>(phase) + 1);
  }
  frame.start_ns = NowNs();  // last: exclude the push bookkeeping itself
  stack_.push_back(frame);
}

void Profiler::Pop() {
  const uint64_t now = NowNs();
  MEMGOAL_DCHECK(!stack_.empty());
  const Frame frame = stack_.back();
  stack_.pop_back();
  // TSC reads can jitter a hair across a thread migration; clamp instead
  // of wrapping to a ~2^64 ns sample.
  const uint64_t elapsed =
      now >= frame.start_ns ? now - frame.start_ns : 0;

  PhaseStats& flat = phases_[static_cast<size_t>(frame.phase)];
  ++flat.count;
  flat.total_ns += elapsed;
  flat.max_ns = std::max(flat.max_ns, elapsed);

  if (current_path_ != memo_key_ || memo_ == nullptr) {
    memo_ = &paths_[current_path_];
    memo_key_ = current_path_;
  }
  ++memo_->count;
  memo_->self_ns += elapsed - std::min(elapsed, frame.child_ns);

  if (!stack_.empty()) stack_.back().child_ns += elapsed;
  current_path_ = frame.parent_path;
}

void Profiler::AddSample(Phase phase, uint64_t ns) {
  PhaseStats& flat = phases_[static_cast<size_t>(phase)];
  ++flat.count;
  flat.total_ns += ns;
  flat.max_ns = std::max(flat.max_ns, ns);
  PathStats& path = paths_[static_cast<uint64_t>(phase) + 1];
  ++path.count;
  path.self_ns += ns;
}

uint64_t Profiler::total_count() const {
  uint64_t total = 0;
  for (const PhaseStats& stats : phases_) total += stats.count;
  return total;
}

uint64_t Profiler::profiled_ns() const {
  // Self times partition the profiled wall clock — every nanosecond under a
  // scope is attributed to exactly one stack path — so summing all paths
  // yields the inclusive total of the root-level scopes.
  uint64_t total = 0;
  for (const auto& [encoded, stats] : paths_) {
    total += stats.self_ns;
  }
  return total;
}

namespace {

/// Decodes a 5-bits-per-level path into "memgoal;phase;phase...".
std::string DecodePath(uint64_t encoded) {
  std::vector<Phase> levels;
  while (encoded != 0) {
    levels.push_back(static_cast<Phase>((encoded & 31) - 1));
    encoded >>= 5;
  }
  std::string out = "memgoal";
  for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
    out += ';';
    out += PhaseName(*it);
  }
  return out;
}

}  // namespace

void Profiler::WriteFolded(std::FILE* out) const {
  // Sort by encoded path: the hash map has no stable order, the output
  // must (same profile -> same bytes).
  std::vector<std::pair<uint64_t, const PathStats*>> sorted;
  sorted.reserve(paths_.size());
  for (const auto& [encoded, stats] : paths_) {
    sorted.emplace_back(encoded, &stats);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [encoded, stats] : sorted) {
    if (stats->self_ns == 0 && stats->count == 0) continue;
    std::fprintf(out, "%s %" PRIu64 "\n", DecodePath(encoded).c_str(),
                 stats->self_ns);
  }
}

void Profiler::AppendJson(std::string* out) const {
  char buffer[256];
  out->append("{\"phases\":[");
  bool first = true;
  for (int i = 0; i < kNumPhases; ++i) {
    const PhaseStats& stats = phases_[static_cast<size_t>(i)];
    if (stats.count == 0) continue;
    std::snprintf(buffer, sizeof(buffer),
                  "%s{\"name\":\"%s\",\"count\":%" PRIu64
                  ",\"total_ms\":%.6f,\"mean_us\":%.3f,\"max_us\":%.3f}",
                  first ? "" : ",", PhaseName(static_cast<Phase>(i)),
                  stats.count, static_cast<double>(stats.total_ns) / 1e6,
                  static_cast<double>(stats.total_ns) / 1e3 /
                      static_cast<double>(stats.count),
                  static_cast<double>(stats.max_ns) / 1e3);
    out->append(buffer);
    first = false;
  }
  std::snprintf(buffer, sizeof(buffer), "],\"profiled_ms\":%.6f}",
                static_cast<double>(profiled_ns()) / 1e6);
  out->append(buffer);
}

}  // namespace memgoal::obs
