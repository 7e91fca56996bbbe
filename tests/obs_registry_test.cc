#include "obs/registry.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.h"

// Counts every global operator new in this binary, so a test can assert
// that a code path allocates nothing. The deletes are replaced alongside so
// each allocation is freed by its matching function.
namespace {
std::atomic<uint64_t> g_news{0};

void* CountedNew(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedNew(size); }
void* operator new[](std::size_t size) { return CountedNew(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace memgoal::obs {
namespace {

// Everything written so far to a tmpfile() stream, leaving it open for
// further writes.
std::string Contents(std::FILE* file) {
  std::fflush(file);
  const long size = std::ftell(file);
  std::fseek(file, 0, SEEK_SET);
  std::string text(static_cast<size_t>(size), '\0');
  EXPECT_EQ(std::fread(text.data(), 1, text.size(), file), text.size());
  std::fseek(file, 0, SEEK_END);
  return text;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t begin = 0;
  for (size_t end; (end = text.find('\n', begin)) != std::string::npos;
       begin = end + 1) {
    lines.push_back(text.substr(begin, end - begin));
  }
  return lines;
}

TEST(RegistryTest, CounterAccumulatesAndReportsDeltas) {
  Registry registry;
  Registry::Counter* counter = registry.GetCounter("ctrl.checks");
  counter->Add();
  counter->Add(4);
  EXPECT_EQ(counter->value(), 5u);
  EXPECT_EQ(registry.snapshots_taken(), 0u);
  EXPECT_TRUE(registry.last().entries.empty());

  const Registry::Snapshot& first = registry.TakeSnapshot(0, 5000.0);
  EXPECT_EQ(&first, &registry.last());
  ASSERT_EQ(first.entries.size(), 1u);
  EXPECT_EQ(first.entries[0].name, "ctrl.checks");
  EXPECT_EQ(first.entries[0].kind, Registry::Kind::kCounter);
  EXPECT_DOUBLE_EQ(first.entries[0].value, 5.0);
  EXPECT_EQ(first.entries[0].delta, 5u);

  counter->Add(2);
  registry.TakeSnapshot(1, 10000.0);
  const Registry::Snapshot& second = registry.last();
  EXPECT_EQ(registry.snapshots_taken(), 2u);
  EXPECT_EQ(second.interval, 1);
  EXPECT_DOUBLE_EQ(second.sim_time_ms, 10000.0);
  EXPECT_DOUBLE_EQ(second.entries[0].value, 7.0);
  EXPECT_EQ(second.entries[0].delta, 2u);  // per-interval rate, not total
}

TEST(RegistryTest, CounterSetMirrorsExternalCumulativeValue) {
  Registry registry;
  Registry::Counter* counter = registry.GetCounter("net.bytes");
  counter->Set(100);
  registry.TakeSnapshot(0, 1.0);
  counter->Set(250);
  const Registry::Snapshot& snap = registry.TakeSnapshot(1, 2.0);
  EXPECT_DOUBLE_EQ(snap.entries[0].value, 250.0);
  EXPECT_EQ(snap.entries[0].delta, 150u);
}

TEST(RegistryTest, CounterSetClampsNonMonotonicMirror) {
  Registry registry;
  Registry::Counter* counter = registry.GetCounter("net.bytes");
  counter->Set(100);
  registry.TakeSnapshot(0, 1.0);

  // The external source reset (e.g. a restarted component re-counts from
  // zero). The counter must hold rather than go backwards, the interval
  // delta must clamp to zero, and the clamp must be counted.
  counter->Set(10);
  EXPECT_EQ(counter->value(), 100u);
  EXPECT_EQ(counter->regressions(), 1u);
  const Registry::Snapshot& clamped = registry.TakeSnapshot(1, 2.0);
  ASSERT_EQ(clamped.entries.size(), 2u);
  EXPECT_EQ(clamped.entries[0].name, "net.bytes");
  EXPECT_DOUBLE_EQ(clamped.entries[0].value, 100.0);
  EXPECT_EQ(clamped.entries[0].delta, 0u);
  // The registry surfaces the clamp as a synthetic counter.
  EXPECT_EQ(clamped.entries[1].name, "obs.counter_regressions");
  EXPECT_DOUBLE_EQ(clamped.entries[1].value, 1.0);
  EXPECT_EQ(clamped.entries[1].delta, 1u);

  // The re-anchored mirror keeps producing correct deltas: the source
  // advancing 10 -> 60 is +50 on top of the held value.
  counter->Set(60);
  EXPECT_EQ(counter->value(), 150u);
  const Registry::Snapshot& resumed = registry.TakeSnapshot(2, 3.0);
  EXPECT_DOUBLE_EQ(resumed.entries[0].value, 150.0);
  EXPECT_EQ(resumed.entries[0].delta, 50u);
  // No new clamp: the synthetic counter's delta falls back to zero.
  EXPECT_EQ(resumed.entries[1].delta, 0u);
}

TEST(RegistryTest, HealthyCountersEmitNoRegressionEntry) {
  Registry registry;
  registry.GetCounter("ok")->Set(5);
  const Registry::Snapshot& snap = registry.TakeSnapshot(0, 1.0);
  ASSERT_EQ(snap.entries.size(), 1u);
  EXPECT_EQ(snap.entries[0].name, "ok");
}

TEST(RegistryTest, InstrumentPointersAreStableAndShared) {
  Registry registry;
  Registry::Counter* a = registry.GetCounter("x");
  // Interleave enough creations to force rehash in a hash-map world; the
  // std::map backing must keep `a` valid and identical on re-lookup.
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("fill." + std::to_string(i));
  }
  EXPECT_EQ(registry.GetCounter("x"), a);
  Registry::Gauge* g = registry.GetGauge("g");
  g->Set(3.5);
  EXPECT_DOUBLE_EQ(registry.GetGauge("g")->value(), 3.5);
}

TEST(RegistryTest, SetCountersAndGaugesResolveNamesOnce) {
  Registry registry;
  std::vector<Registry::Counter*> counters;
  std::vector<Registry::Gauge*> gauges;
  const std::pair<const char*, uint64_t> first[] = {{"a", 3}, {"b", 4}};
  registry.SetCounters(first, &counters);
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0], registry.GetCounter("a"));
  const std::pair<const char*, uint64_t> second[] = {{"a", 5}, {"b", 9}};
  registry.SetCounters(second, &counters);
  EXPECT_EQ(counters.size(), 2u);
  EXPECT_EQ(registry.GetCounter("b")->value(), 9u);

  const std::pair<const char*, double> levels[] = {{"g", 1.5}};
  registry.SetGauges(levels, &gauges);
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(registry.GetGauge("g")->value(), 1.5);
}

TEST(RegistryTest, HistogramViewExportsQuantilesWithSaturation) {
  common::Histogram histogram(1.0, 100.0, 20);
  for (int i = 0; i < 90; ++i) histogram.Add(10.0);
  Registry registry;
  registry.RegisterHistogram("disk.wait", &histogram, {0.5, 0.99});

  const Registry::Snapshot& ok = registry.TakeSnapshot(0, 1.0);
  ASSERT_EQ(ok.entries.size(), 2u);
  EXPECT_EQ(ok.entries[0].name, "disk.wait.p50");
  EXPECT_EQ(ok.entries[1].name, "disk.wait.p99");
  EXPECT_EQ(ok.entries[0].kind, Registry::Kind::kQuantile);
  EXPECT_FALSE(ok.entries[0].saturated);
  EXPECT_EQ(ok.entries[0].overflow, 0u);

  // Push 5% of samples past the bound: p50 still interpolates, p99 lands in
  // the overflow mass and must carry the saturation flag + overflow count.
  for (int i = 0; i < 5; ++i) histogram.Add(1000.0);
  const Registry::Snapshot& sat = registry.TakeSnapshot(1, 2.0);
  EXPECT_FALSE(sat.entries[0].saturated);
  EXPECT_TRUE(sat.entries[1].saturated);
  EXPECT_EQ(sat.entries[1].overflow, 5u);
  EXPECT_DOUBLE_EQ(sat.entries[1].value, 100.0);  // clipped at hi
}

TEST(RegistryTest, StreamsCarryEverySnapshotAsItIsTaken) {
  Registry registry;
  std::FILE* csv = std::tmpfile();
  std::FILE* jsonl = std::tmpfile();
  ASSERT_NE(csv, nullptr);
  ASSERT_NE(jsonl, nullptr);
  registry.AttachCsv(csv);
  registry.AttachJsonl(jsonl);
  // The CSV header is written once, at attach time.
  EXPECT_EQ(Contents(csv),
            "interval,sim_time_ms,name,kind,value,delta,saturated,"
            "overflow\n");
  EXPECT_EQ(Contents(jsonl), "");

  common::Histogram histogram(1.0, 100.0, 20);
  histogram.Add(1000.0);
  registry.RegisterHistogram("h", &histogram, {0.5});
  registry.GetCounter("c")->Add(3);
  registry.GetGauge("g")->Set(1.25);
  registry.TakeSnapshot(0, 5000.0);
  EXPECT_EQ(Contents(csv),
            "interval,sim_time_ms,name,kind,value,delta,saturated,overflow\n"
            "0,5000.000,c,counter,3,3,0,0\n"
            "0,5000.000,g,gauge,1.25,0,0,0\n"
            "0,5000.000,h.p50,quantile,100,0,1,1\n");
  EXPECT_EQ(Contents(jsonl),
            "{\"interval\":0,\"sim_time_ms\":5000.000,\"metrics\":{\"c\":3,"
            "\"g\":1.25,\"h.p50\":100},\"saturated\":[\"h.p50\"]}\n");

  registry.GetCounter("c")->Add(1);
  registry.TakeSnapshot(1, 5500.25);
  const std::vector<std::string> csv_lines = Lines(Contents(csv));
  ASSERT_EQ(csv_lines.size(), 7u);
  EXPECT_EQ(std::count(csv_lines.begin(), csv_lines.end(), csv_lines[0]), 1);
  EXPECT_EQ(csv_lines[4], "1,5500.250,c,counter,4,1,0,0");
  // One JSONL line per snapshot.
  const std::vector<std::string> jsonl_lines = Lines(Contents(jsonl));
  ASSERT_EQ(jsonl_lines.size(), 2u);
  EXPECT_EQ(jsonl_lines[1].rfind("{\"interval\":1,\"sim_time_ms\":5500.250,"
                                 "\"metrics\":{\"c\":4,",
                                 0),
            0u);
  std::fclose(csv);
  std::fclose(jsonl);
}

TEST(RegistryTest, InstrumentCreatedMidRunAppearsFromItsFirstSnapshot) {
  Registry registry;
  std::FILE* csv = std::tmpfile();
  std::FILE* jsonl = std::tmpfile();
  ASSERT_NE(csv, nullptr);
  ASSERT_NE(jsonl, nullptr);
  registry.AttachCsv(csv);
  registry.AttachJsonl(jsonl);
  registry.GetCounter("early")->Add(1);
  constexpr int kCreatedBefore = 3;
  constexpr int kSnapshots = 6;
  for (int k = 0; k < kSnapshots; ++k) {
    if (k == kCreatedBefore) registry.GetGauge("late")->Set(2.0);
    registry.TakeSnapshot(k, 1000.0 * k);
  }

  std::vector<int> late_rows;
  for (const std::string& line : Lines(Contents(csv))) {
    if (line.find(",late,gauge,") != std::string::npos) {
      late_rows.push_back(std::stoi(line));
    }
  }
  EXPECT_EQ(late_rows, (std::vector<int>{3, 4, 5}));
  const std::vector<std::string> jsonl_lines = Lines(Contents(jsonl));
  ASSERT_EQ(jsonl_lines.size(), static_cast<size_t>(kSnapshots));
  for (int k = 0; k < kSnapshots; ++k) {
    EXPECT_EQ(jsonl_lines[k].find("\"late\":2") != std::string::npos,
              k >= kCreatedBefore)
        << jsonl_lines[k];
  }
  std::fclose(csv);
  std::fclose(jsonl);
}

TEST(RegistryTest, SteadyStateSnapshotAllocatesNothing) {
  Registry registry;
  std::FILE* csv = std::tmpfile();
  std::FILE* jsonl = std::tmpfile();
  ASSERT_NE(csv, nullptr);
  ASSERT_NE(jsonl, nullptr);
  registry.AttachCsv(csv);
  registry.AttachJsonl(jsonl);
  common::Histogram histogram(1.0, 100.0, 20);
  registry.RegisterHistogram("node0.cpu.wait_ms", &histogram, {0.5, 0.99});
  std::vector<Registry::Counter*> counters;
  const uint64_t setup_start = g_news.load();
  for (int i = 0; i < 40; ++i) {
    counters.push_back(
        registry.GetCounter("class" + std::to_string(i) + ".access.disk"));
    registry.GetGauge("class" + std::to_string(i) + ".rt.observed_ms");
  }
  // The counting operator new is live: creating instruments allocates.
  ASSERT_GE(g_news.load() - setup_start, 80u);
  counters[7]->Set(10);
  counters[7]->Set(5);  // a clamp: the synthetic regressions entry appears
  histogram.Add(1000.0);  // a saturated quantile
  registry.TakeSnapshot(0, 0.0);

  const uint64_t before = g_news.load();
  for (int k = 1; k <= 1000; ++k) {
    for (Registry::Counter* counter : counters) counter->Add(3);
    histogram.Add(static_cast<double>(k % 90));
    registry.TakeSnapshot(k, 1000.0 * k);
  }
  const uint64_t allocations = g_news.load() - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(registry.snapshots_taken(), 1001u);
  EXPECT_EQ(registry.last().entries.size(), 40u + 1u + 40u + 2u);
  EXPECT_EQ(Lines(Contents(jsonl)).size(), 1001u);
  std::fclose(csv);
  std::fclose(jsonl);
}

TEST(RegistryTest, SnapshotsOrderClassColumnsNaturally) {
  // Per-class instrument names must come out in numeric class order —
  // class2 before class10 — not in lexicographic or hash-map order, so CSV
  // snapshots diff cleanly across runs regardless of registration order.
  Registry registry;
  std::FILE* csv = std::tmpfile();
  ASSERT_NE(csv, nullptr);
  registry.AttachCsv(csv);
  registry.GetCounter("class10.ops")->Add(1);
  registry.GetCounter("class2.ops")->Add(2);
  registry.GetCounter("class1.ops")->Add(3);
  registry.GetGauge("class10.budget.disk_wait_ms")->Set(4.0);
  registry.GetGauge("class2.budget.disk_wait_ms")->Set(5.0);
  const Registry::Snapshot& snap = registry.TakeSnapshot(0, 1000.0);

  std::vector<std::string> names;
  for (const Registry::SnapshotEntry& entry : snap.entries) {
    names.emplace_back(entry.name);
  }
  const std::vector<std::string> expected = {
      "class1.ops", "class2.ops", "class10.ops",
      "class2.budget.disk_wait_ms", "class10.budget.disk_wait_ms"};
  EXPECT_EQ(names, expected);

  // The CSV serialization preserves that order.
  const std::string text = Contents(csv);
  EXPECT_LT(text.find("class2.ops"), text.find("class10.ops"));
  EXPECT_LT(text.find("class2.budget"), text.find("class10.budget"));
  std::fclose(csv);
}

}  // namespace
}  // namespace memgoal::obs
