#include "obs/registry.h"

#include <cinttypes>
#include <cstdio>

#include "common/check.h"

namespace memgoal::obs {

bool NaturalLess::operator()(const std::string& a,
                             const std::string& b) const {
  size_t i = 0, j = 0;
  const auto digit = [](char c) { return c >= '0' && c <= '9'; };
  while (i < a.size() && j < b.size()) {
    if (digit(a[i]) && digit(b[j])) {
      // Compare the maximal digit runs numerically: skip leading zeros,
      // then a longer run is larger, then byte order decides. Equal-valued
      // runs with different zero-padding fall through to the tie-break
      // below so distinct names never compare equal.
      size_t ai = i, bj = j;
      while (ai < a.size() && a[ai] == '0') ++ai;
      while (bj < b.size() && b[bj] == '0') ++bj;
      size_t ae = ai, be = bj;
      while (ae < a.size() && digit(a[ae])) ++ae;
      while (be < b.size() && digit(b[be])) ++be;
      const size_t alen = ae - ai, blen = be - bj;
      if (alen != blen) return alen < blen;
      for (size_t k = 0; k < alen; ++k) {
        if (a[ai + k] != b[bj + k]) return a[ai + k] < b[bj + k];
      }
      if (ae - i != be - j) return ae - i < be - j;  // zero-padding length
      i = ae;
      j = be;
      continue;
    }
    if (a[i] != b[j]) return a[i] < b[j];
    ++i;
    ++j;
  }
  return a.size() - i < b.size() - j;
}

void Registry::Counter::Set(uint64_t cumulative) {
  const uint64_t mirrored = external_offset_ + cumulative;
  if (mirrored < value_) {
    // The source went backwards (reset/restart/rollover). Re-anchor the
    // offset so this call holds the counter steady (delta clamps to zero)
    // and the source's subsequent increments advance it again.
    external_offset_ = value_ - cumulative;
    ++regressions_;
    return;
  }
  value_ = mirrored;
}

Registry::Counter* Registry::GetCounter(const std::string& name) {
  MEMGOAL_DCHECK(gauges_.find(name) == gauges_.end());
  MEMGOAL_DCHECK(histograms_.find(name) == histograms_.end());
  return &counters_[name];
}

Registry::Gauge* Registry::GetGauge(const std::string& name) {
  MEMGOAL_DCHECK(counters_.find(name) == counters_.end());
  MEMGOAL_DCHECK(histograms_.find(name) == histograms_.end());
  return &gauges_[name];
}

void Registry::SetCounters(
    std::span<const std::pair<const char*, uint64_t>> values,
    std::vector<Counter*>* cache) {
  if (cache->empty()) {
    for (const auto& [name, value] : values) cache->push_back(GetCounter(name));
  }
  MEMGOAL_DCHECK(cache->size() == values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    (*cache)[i]->Set(values[i].second);
  }
}

void Registry::SetGauges(std::span<const std::pair<const char*, double>> values,
                         std::vector<Gauge*>* cache) {
  if (cache->empty()) {
    for (const auto& [name, value] : values) cache->push_back(GetGauge(name));
  }
  MEMGOAL_DCHECK(cache->size() == values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    (*cache)[i]->Set(values[i].second);
  }
}

void Registry::RegisterHistogram(const std::string& name,
                                 const common::Histogram* histogram,
                                 std::vector<double> quantiles) {
  MEMGOAL_CHECK(histogram != nullptr);
  MEMGOAL_DCHECK(counters_.find(name) == counters_.end());
  MEMGOAL_DCHECK(gauges_.find(name) == gauges_.end());
  HistogramView view{histogram, std::move(quantiles), {}};
  char suffix[32];
  for (double q : view.quantiles) {
    std::snprintf(suffix, sizeof(suffix), ".p%g", q * 100.0);
    view.quantile_names.push_back(name + suffix);
  }
  const bool inserted = histograms_.emplace(name, std::move(view)).second;
  MEMGOAL_CHECK_MSG(inserted, "histogram registered twice");
}

namespace {

const char* KindName(Registry::Kind kind) {
  switch (kind) {
    case Registry::Kind::kCounter:
      return "counter";
    case Registry::Kind::kGauge:
      return "gauge";
    case Registry::Kind::kQuantile:
      return "quantile";
  }
  return "unknown";
}

// The length argument of a "%.*s" conversion.
int Len(std::string_view s) { return static_cast<int>(s.size()); }

void WriteCsvRows(const Registry::Snapshot& snap, std::FILE* out) {
  for (const Registry::SnapshotEntry& e : snap.entries) {
    std::fprintf(out, "%d,%.3f,%.*s,%s,%.17g,%" PRIu64 ",%d,%" PRIu64 "\n",
                 snap.interval, snap.sim_time_ms, Len(e.name), e.name.data(),
                 KindName(e.kind), e.value, e.delta, e.saturated ? 1 : 0,
                 e.overflow);
  }
}

void WriteJsonlLine(const Registry::Snapshot& snap, std::FILE* out) {
  std::fprintf(out, "{\"interval\":%d,\"sim_time_ms\":%.3f,\"metrics\":{",
               snap.interval, snap.sim_time_ms);
  bool first = true;
  for (const Registry::SnapshotEntry& e : snap.entries) {
    std::fprintf(out, "%s\"%.*s\":%.17g", first ? "" : ",",
                 Len(e.name), e.name.data(), e.value);
    first = false;
  }
  std::fprintf(out, "},\"saturated\":[");
  first = true;
  for (const Registry::SnapshotEntry& e : snap.entries) {
    if (!e.saturated) continue;
    std::fprintf(out, "%s\"%.*s\"", first ? "" : ",",
                 Len(e.name), e.name.data());
    first = false;
  }
  std::fprintf(out, "]}\n");
}

}  // namespace

const Registry::Snapshot& Registry::TakeSnapshot(int interval,
                                                 double sim_time_ms) {
  last_.interval = interval;
  last_.sim_time_ms = sim_time_ms;
  std::vector<SnapshotEntry>& entries = last_.entries;
  entries.clear();  // keeps its capacity
  uint64_t total_regressions = 0;
  for (auto& [name, counter] : counters_) {
    SnapshotEntry& entry = entries.emplace_back();
    entry.name = name;
    entry.kind = Kind::kCounter;
    entry.value = static_cast<double>(counter.value_);
    entry.delta = counter.value_ - counter.snapshot_base_;
    counter.snapshot_base_ = counter.value_;
    total_regressions += counter.regressions_;
  }
  // Mirror-health telemetry: only materialized once a clamp has happened,
  // so healthy runs don't grow a permanently-zero instrument.
  if (total_regressions > 0) {
    SnapshotEntry& entry = entries.emplace_back();
    entry.name = "obs.counter_regressions";
    entry.kind = Kind::kCounter;
    entry.value = static_cast<double>(total_regressions);
    entry.delta = total_regressions - regressions_snapshot_base_;
    regressions_snapshot_base_ = total_regressions;
  }
  for (const auto& [name, gauge] : gauges_) {
    SnapshotEntry& entry = entries.emplace_back();
    entry.name = name;
    entry.kind = Kind::kGauge;
    entry.value = gauge.value();
  }
  for (const auto& [name, view] : histograms_) {
    for (size_t i = 0; i < view.quantiles.size(); ++i) {
      const common::Histogram::QuantileValue qv =
          view.histogram->QuantileWithSaturation(view.quantiles[i]);
      SnapshotEntry& entry = entries.emplace_back();
      entry.name = view.quantile_names[i];
      entry.kind = Kind::kQuantile;
      entry.value = qv.value;
      entry.saturated = qv.saturated;
      entry.overflow = static_cast<uint64_t>(view.histogram->overflow());
    }
  }
  ++snapshots_taken_;
  if (csv_ != nullptr) WriteCsvRows(last_, csv_);
  if (jsonl_ != nullptr) WriteJsonlLine(last_, jsonl_);
  return last_;
}

void Registry::AttachCsv(std::FILE* out) {
  MEMGOAL_CHECK(out != nullptr && csv_ == nullptr);
  std::fprintf(out,
               "interval,sim_time_ms,name,kind,value,delta,saturated,"
               "overflow\n");
  csv_ = out;
}

void Registry::AttachJsonl(std::FILE* out) {
  MEMGOAL_CHECK(out != nullptr && jsonl_ == nullptr);
  jsonl_ = out;
}

}  // namespace memgoal::obs
