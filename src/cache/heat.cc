#include "cache/heat.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"
#include "obs/profiler.h"

namespace memgoal::cache {
namespace {

// Heap order for HeatTracker's aging entries: std:: heap algorithms build a
// max-heap, so "later key first" puts the oldest key on top.
constexpr auto kLater = [](const auto& a, const auto& b) {
  return a.key > b.key;
};

}  // namespace

HeatTracker::HeatTracker(int k, double epsilon_ms)
    : k_(k), epsilon_ms_(epsilon_ms) {
  MEMGOAL_CHECK(k >= 1);
  MEMGOAL_CHECK(epsilon_ms > 0.0);
}

uint32_t HeatTracker::AllocateSlots() const {
  uint32_t offset;
  if (!free_offsets_.empty()) {
    offset = free_offsets_.back();
    free_offsets_.pop_back();
    std::fill_n(slab_.begin() + offset, k_, 0.0);
  } else {
    offset = static_cast<uint32_t>(slab_.size());
    slab_.resize(slab_.size() + static_cast<size_t>(k_), 0.0);
  }
  return offset;
}

HeatTracker::History& HeatTracker::Append(PageId page,
                                          sim::SimTime time) const {
  History* h = history_.Find(page);
  if (h == nullptr) {
    h = &history_[page];
    h->offset = AllocateSlots();
    h->stamp = next_stamp_++;
    // A new history's backward-K time is this first access.
    File(time, page, h->stamp);
  }
  slab_[h->offset + static_cast<uint32_t>(h->next)] = time;
  h->next = (h->next + 1) % k_;
  if (h->count < INT32_MAX) ++h->count;
  return *h;
}

void HeatTracker::File(sim::SimTime key, PageId page, uint32_t stamp) const {
  aging_.push_back(AgingEntry{key, page, stamp});
  std::push_heap(aging_.begin(), aging_.end(), kLater);
}

void HeatTracker::FlushPending() const {
  obs::ProfileScope profile(obs::Phase::kHeatUpdate);
  for (const PendingAccess& access : pending_) Append(access.page, access.time);
  pending_.clear();
}

double HeatTracker::HeatOf(const History& h, sim::SimTime now) const {
  const sim::SimTime t_m = BackwardK(h);
  MEMGOAL_DCHECK(now >= t_m);
  return static_cast<double>(std::min(h.count, static_cast<int32_t>(k_))) /
         (now - t_m + epsilon_ms_);
}

double HeatTracker::HeatOf(PageId page, sim::SimTime now) const {
  Flush();
  const History* h = history_.Find(page);
  return h == nullptr ? 0.0 : HeatOf(*h, now);
}

double HeatTracker::RecordAndHeat(PageId page, sim::SimTime now) {
  Flush();
  return HeatOf(Append(page, now), now);
}

sim::SimTime HeatTracker::BackwardKTime(PageId page) const {
  Flush();
  const History* h = history_.Find(page);
  return h == nullptr ? 0.0 : BackwardK(*h);
}

int HeatTracker::AccessCount(PageId page) const {
  Flush();
  const History* h = history_.Find(page);
  return h == nullptr ? 0 : h->count;
}

void HeatTracker::Forget(PageId page) {
  // Apply pending records first: accesses logged before the Forget must
  // land (and then be erased), not resurrect the page at the next flush.
  Flush();
  const History* h = history_.Find(page);
  if (h == nullptr) return;
  free_offsets_.push_back(h->offset);
  history_.Erase(page);
  // The history's aging entry stays behind, stale. Once stale entries
  // outnumber live ones the heap is rebuilt from the live histories, so
  // Forget churn between sweeps cannot grow it without bound.
  if (aging_.size() > 2 * history_.size()) {
    aging_.clear();
    for (auto it = history_.begin(); it != history_.end(); ++it) {
      aging_.push_back(
          AgingEntry{BackwardK(it.value()), it.key(), it.value().stamp});
    }
    std::make_heap(aging_.begin(), aging_.end(), kLater);
  }
}

size_t HeatTracker::EvictColderThan(sim::SimTime horizon,
                                    const std::function<bool(PageId)>& retain,
                                    std::vector<PageId>* evicted_pages) {
  Flush();
  obs::ProfileScope profile(obs::Phase::kHeatUpdate);
  size_t evicted = 0;
  std::vector<AgingEntry> retained;
  while (!aging_.empty() && aging_.front().key < horizon) {
    std::pop_heap(aging_.begin(), aging_.end(), kLater);
    AgingEntry entry = aging_.back();
    aging_.pop_back();
    const History* h = history_.Find(entry.page);
    if (h == nullptr || h->stamp != entry.stamp) continue;  // stale
    entry.key = BackwardK(*h);
    if (entry.key >= horizon) {
      // Accessed since it was filed: not due yet.
      File(entry.key, entry.page, entry.stamp);
    } else if (retain && retain(entry.page)) {
      // Due but held resident: re-examined at the next sweep, after this
      // loop so this sweep does not pop it again.
      retained.push_back(entry);
    } else {
      free_offsets_.push_back(h->offset);
      history_.Erase(entry.page);
      if (evicted_pages != nullptr) evicted_pages->push_back(entry.page);
      ++evicted;
    }
  }
  for (const AgingEntry& entry : retained) {
    File(entry.key, entry.page, entry.stamp);
  }
  return evicted;
}

}  // namespace memgoal::cache
