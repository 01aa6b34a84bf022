// Tests for slime::obs: the metrics registry (handles, histograms, integer
// percentiles, detached handles), request tracing (span trees under a FakeClock),
// the JSONL/table exporters, the training telemetry sink (including
// crash-safe flushing through a FaultInjectionEnv), the CostEwma
// compare-exchange loop, and the compute-layer instrumentation.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "compute/thread_pool.h"
#include "io/env.h"
#include "observability/export.h"
#include "observability/metrics.h"
#include "observability/telemetry.h"
#include "observability/trace.h"
#include "serving/clock.h"
#include "serving/cost_ewma.h"

namespace slime {
namespace obs {
namespace {

// --- MetricsRegistry ------------------------------------------------------

TEST(MetricsRegistryTest, CountersAndGaugesRoundTrip) {
  MetricsRegistry registry;
  Counter c = registry.counter("test.count");
  Gauge g = registry.gauge("test.level");
  EXPECT_TRUE(c.attached());
  EXPECT_EQ(c.value(), 0);
  c.Increment();
  c.Increment(4);
  g.Set(17);
  g.Add(-2);
  EXPECT_EQ(c.value(), 5);
  EXPECT_EQ(g.value(), 15);

  // Same name returns a handle over the same storage.
  Counter c2 = registry.counter("test.count");
  c2.Increment(10);
  EXPECT_EQ(c.value(), 15);
}

TEST(MetricsRegistryTest, DetachedHandlesAreNoOps) {
  Counter c;  // default-constructed = detached
  Gauge g;
  Histogram h;
  c.Increment(3);
  g.Set(9);
  h.Observe(100);
  EXPECT_FALSE(c.attached());
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  registry.counter("b").Increment(2);
  registry.counter("a").Increment(1);
  registry.counter("c").Increment(3);
  registry.gauge("z").Set(26);
  registry.gauge("m").Set(13);
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "a");
  EXPECT_EQ(snap.counters[1].name, "b");
  EXPECT_EQ(snap.counters[2].name, "c");
  EXPECT_EQ(snap.counters[2].value, 3);
  ASSERT_EQ(snap.gauges.size(), 2u);
  EXPECT_EQ(snap.gauges[0].name, "m");
  EXPECT_EQ(snap.gauges[1].name, "z");
}

TEST(MetricsRegistryTest, CounterIncrementsSurviveThreads) {
  MetricsRegistry registry;
  Counter c = registry.counter("threads.count");
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.Increment();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), 40000);
}

// --- Histogram ------------------------------------------------------------

TEST(HistogramTest, CountsSumMinMax) {
  MetricsRegistry registry;
  Histogram h = registry.histogram("h", {10, 100, 1000});
  h.Observe(5);
  h.Observe(50);
  h.Observe(500);
  h.Observe(5000);  // overflow bucket
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 5555);
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramValue& hv = snap.histograms[0];
  EXPECT_EQ(hv.min, 5);
  EXPECT_EQ(hv.max, 5000);
  ASSERT_EQ(hv.buckets.size(), 4u);
  EXPECT_EQ(hv.buckets[0], 1);
  EXPECT_EQ(hv.buckets[1], 1);
  EXPECT_EQ(hv.buckets[2], 1);
  EXPECT_EQ(hv.buckets[3], 1);  // overflow
}

TEST(HistogramTest, PercentilesUseIntegerRanks) {
  MetricsRegistry registry;
  Histogram h = registry.histogram("h", {10, 20, 30, 40});
  // 100 observations: 50 in (0,10], 30 in (10,20], 15 in (20,30],
  // 5 in (30,40].
  for (int i = 0; i < 50; ++i) h.Observe(7);
  for (int i = 0; i < 30; ++i) h.Observe(15);
  for (int i = 0; i < 15; ++i) h.Observe(25);
  for (int i = 0; i < 5; ++i) h.Observe(35);
  const HistogramValue hv = registry.Snapshot().histograms[0];
  // rank(p50) = 50 -> first bucket (cumulative 50 >= 50); its upper bound
  // is 10.
  EXPECT_EQ(hv.p50, 10);
  // rank(p95) = 95 -> third bucket (50+30+15 = 95).
  EXPECT_EQ(hv.p95, 30);
  // rank(p99) = 99 -> fourth bucket (95 + 5 = 100 >= 99); clamped to the
  // observed max, 35.
  EXPECT_EQ(hv.p99, 35);
}

TEST(HistogramTest, PercentileClampsToObservedRange) {
  MetricsRegistry registry;
  Histogram h = registry.histogram("h", {1000});
  h.Observe(3);
  h.Observe(4);
  const HistogramValue hv = registry.Snapshot().histograms[0];
  // Both land in the (0,1000] bucket, but the percentile must not report
  // 1000 when the largest observation was 4.
  EXPECT_EQ(hv.p50, 4);
  EXPECT_EQ(hv.p99, 4);
  EXPECT_EQ(hv.min, 3);
  EXPECT_EQ(hv.max, 4);
}

TEST(HistogramTest, OverflowBucketReportsMax) {
  MetricsRegistry registry;
  Histogram h = registry.histogram("h", {10});
  h.Observe(100000);
  const HistogramValue hv = registry.Snapshot().histograms[0];
  EXPECT_EQ(hv.p50, 100000);
  EXPECT_EQ(hv.p99, 100000);
}

TEST(HistogramTest, EmptyHistogramPercentilesAreZero) {
  MetricsRegistry registry;
  registry.histogram("h");
  const HistogramValue hv = registry.Snapshot().histograms[0];
  EXPECT_EQ(hv.count, 0);
  EXPECT_EQ(hv.p50, 0);
  EXPECT_EQ(hv.p99, 0);
}

TEST(HistogramTest, DefaultLatencyBoundsAreStrictlyIncreasing) {
  const std::vector<int64_t>& bounds =
      MetricsRegistry::DefaultLatencyBounds();
  ASSERT_GE(bounds.size(), 8u);
  EXPECT_EQ(bounds[0], 1000);  // 1us floor for nanosecond latencies
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);
  }
}

TEST(HistogramTest, IdenticalObservationsSnapshotIdentically) {
  // Determinism guarantee: two registries fed the same observation
  // multiset (in different orders, from different thread counts) snapshot
  // bit-identically.
  MetricsRegistry a, b;
  Histogram ha = a.histogram("h");
  Histogram hb = b.histogram("h");
  const std::vector<int64_t> values = {900, 3000, 70000, 3000, 12, 900};
  for (int64_t v : values) ha.Observe(v);
  std::vector<std::thread> workers;
  for (int64_t v : values) {
    workers.emplace_back([&hb, v] { hb.Observe(v); });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(SnapshotToJsonl(a.Snapshot()), SnapshotToJsonl(b.Snapshot()));
}

// --- Tracing --------------------------------------------------------------

TEST(TraceTest, BuildsSpanTreeWithFakeClockTimes) {
  serving::FakeClock clock(1000);
  Tracer tracer(&clock);
  TraceBuilder trace = tracer.StartTrace("request");
  clock.Advance(10);
  {
    TraceSpan forward(trace, "forward");
    clock.Advance(100);
    {
      TraceSpan fft(trace, "fft");
      clock.Advance(7);
      fft.Annotate("bins", "17");
    }
    forward.Annotate("tier", "full");
  }
  clock.Advance(3);
  trace.Finish();

  const std::vector<Trace> traces = tracer.Traces();
  ASSERT_EQ(traces.size(), 1u);
  const Trace& t = traces[0];
  EXPECT_EQ(t.id, 1);
  ASSERT_EQ(t.spans.size(), 3u);

  EXPECT_EQ(t.spans[0].name, "request");
  EXPECT_EQ(t.spans[0].parent, -1);
  EXPECT_EQ(t.spans[0].depth, 0);
  EXPECT_EQ(t.spans[0].start_nanos, 1000);
  EXPECT_EQ(t.spans[0].end_nanos, 1120);

  EXPECT_EQ(t.spans[1].name, "forward");
  EXPECT_EQ(t.spans[1].parent, 0);
  EXPECT_EQ(t.spans[1].depth, 1);
  EXPECT_EQ(t.spans[1].start_nanos, 1010);
  EXPECT_EQ(t.spans[1].end_nanos, 1117);
  ASSERT_EQ(t.spans[1].annotations.size(), 1u);
  EXPECT_EQ(t.spans[1].annotations[0].first, "tier");
  EXPECT_EQ(t.spans[1].annotations[0].second, "full");

  EXPECT_EQ(t.spans[2].name, "fft");
  EXPECT_EQ(t.spans[2].parent, 1);
  EXPECT_EQ(t.spans[2].depth, 2);
  EXPECT_EQ(t.spans[2].duration_nanos(), 7);
}

TEST(TraceTest, DisabledBuilderIsANoOp) {
  TraceBuilder trace;  // no tracer
  EXPECT_FALSE(trace.enabled());
  const int32_t s = trace.BeginSpan("x");
  EXPECT_EQ(s, -1);
  trace.Annotate(s, "k", "v");
  trace.EndSpan(s);
  trace.Finish();  // must not crash
}

TEST(TraceTest, FinishClosesOpenSpans) {
  serving::FakeClock clock(0);
  Tracer tracer(&clock);
  TraceBuilder trace = tracer.StartTrace("request");
  trace.BeginSpan("left-open");
  clock.Advance(42);
  trace.Finish();
  const std::vector<Trace> traces = tracer.Traces();
  ASSERT_EQ(traces.size(), 1u);
  for (const SpanRecord& s : traces[0].spans) {
    EXPECT_EQ(s.end_nanos, 42) << s.name;
  }
}

TEST(TraceTest, MovedFromBuilderIsSpent) {
  serving::FakeClock clock(0);
  Tracer tracer(&clock);
  TraceBuilder a = tracer.StartTrace("request");
  TraceBuilder b = std::move(a);
  EXPECT_FALSE(a.enabled());  // NOLINT(bugprone-use-after-move): the point
  EXPECT_TRUE(b.enabled());
  a.Finish();  // no-op, must not record a second trace
  b.Finish();
  EXPECT_EQ(tracer.Traces().size(), 1u);
}

TEST(TraceTest, RingEvictsOldestTraces) {
  serving::FakeClock clock(0);
  Tracer tracer(&clock, /*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    TraceBuilder t = tracer.StartTrace("r");
    t.Finish();
  }
  const std::vector<Trace> traces = tracer.Traces();
  ASSERT_EQ(traces.size(), 3u);
  EXPECT_EQ(traces[0].id, 3);  // ids 1 and 2 evicted
  EXPECT_EQ(traces[2].id, 5);
}

// --- Exporters ------------------------------------------------------------

TEST(ExportTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(ExportTest, SnapshotJsonlOneObjectPerLine) {
  MetricsRegistry registry;
  registry.counter("serving.requests").Increment(12);
  registry.gauge("serving.health").Set(1);
  Histogram h = registry.histogram("serving.request_nanos", {1000, 2000});
  h.Observe(500);
  h.Observe(1500);
  const std::string jsonl = SnapshotToJsonl(registry.Snapshot());
  EXPECT_NE(jsonl.find("{\"type\":\"counter\",\"name\":\"serving.requests\","
                       "\"value\":12}\n"),
            std::string::npos);
  EXPECT_NE(jsonl.find("{\"type\":\"gauge\",\"name\":\"serving.health\","
                       "\"value\":1}\n"),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"count\":2"), std::string::npos);
  EXPECT_NE(jsonl.find("\"bounds\":[1000,2000]"), std::string::npos);
  EXPECT_NE(jsonl.find("\"buckets\":[1,1,0]"), std::string::npos);
  // Every line is a complete object.
  size_t lines = 0;
  for (char ch : jsonl) lines += ch == '\n';
  EXPECT_EQ(lines, 3u);
}

TEST(ExportTest, SnapshotTableMentionsEveryMetric) {
  MetricsRegistry registry;
  registry.counter("c.one").Increment();
  registry.gauge("g.two").Set(2);
  registry.histogram("h.three").Observe(3);
  const std::string table = SnapshotToTable(registry.Snapshot());
  EXPECT_NE(table.find("c.one"), std::string::npos);
  EXPECT_NE(table.find("g.two"), std::string::npos);
  EXPECT_NE(table.find("h.three"), std::string::npos);
}

TEST(ExportTest, TraceJsonlCarriesSpansAndAnnotations) {
  serving::FakeClock clock(100);
  Tracer tracer(&clock);
  TraceBuilder trace = tracer.StartTrace("request");
  const int32_t s = trace.BeginSpan("forward");
  trace.Annotate(s, "tier", "fallback");
  clock.Advance(50);
  trace.EndSpan(s);
  trace.Finish();
  const std::string jsonl = TracesToJsonl(tracer.Traces());
  EXPECT_NE(jsonl.find("\"type\":\"trace\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"name\":\"request\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"name\":\"forward\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"tier\":\"fallback\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"parent\":-1"), std::string::npos);
  EXPECT_EQ(jsonl.back(), '\n');

  const std::string table = TraceToTable(tracer.Traces()[0]);
  EXPECT_NE(table.find("request"), std::string::npos);
  EXPECT_NE(table.find("forward"), std::string::npos);
}

// --- TrainingTelemetry ----------------------------------------------------

EpochRecord MakeEpoch(int64_t epoch) {
  EpochRecord e;
  e.model = "TestModel";
  e.epoch = epoch;
  e.loss = 1.25;
  e.lr = 1e-3;
  e.grad_norm = 0.5;
  e.batches = 4;
  e.valid.ndcg10 = 0.125;
  e.improved = epoch == 1;
  e.wall_nanos = 1000;
  return e;
}

TEST(TrainingTelemetryTest, AccumulatesRecordsInMemory) {
  TrainingTelemetry telemetry(/*echo=*/false);
  telemetry.OnResume({"TestModel", "/tmp/ckpt", 3, 0.25});
  telemetry.OnEpoch(MakeEpoch(4));
  telemetry.OnRollback({"TestModel", 5, 4, 1e-3, 5e-4, 1, 2});
  telemetry.OnEpoch(MakeEpoch(5));
  FitSummaryRecord summary;
  summary.model = "TestModel";
  summary.epochs_run = 5;
  telemetry.OnFitSummary(summary);

  ASSERT_EQ(telemetry.epochs().size(), 2u);
  EXPECT_EQ(telemetry.epochs()[1].epoch, 5);
  ASSERT_EQ(telemetry.rollbacks().size(), 1u);
  EXPECT_EQ(telemetry.rollbacks()[0].rollback_index, 1);

  const std::string& jsonl = telemetry.jsonl();
  EXPECT_NE(jsonl.find("\"type\":\"resume\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"epoch\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"rollback\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"fit_summary\""), std::string::npos);
  EXPECT_TRUE(telemetry.status().ok());
}

TEST(TrainingTelemetryTest, PersistsJsonlCrashSafely) {
  const std::string path = ::testing::TempDir() + "/telemetry.jsonl";
  io::FaultInjectionEnv env;
  TrainingTelemetry telemetry(/*echo=*/false, path, &env);
  telemetry.OnEpoch(MakeEpoch(1));
  // Each record rewrote the file; it is complete on disk right now.
  const Result<std::string> first = env.ReadFile(path);
  ASSERT_TRUE(first.ok());
  EXPECT_NE(first.value().find("\"epoch\":1"), std::string::npos);

  telemetry.OnEpoch(MakeEpoch(2));
  const Result<std::string> second = env.ReadFile(path);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second.value().find("\"epoch\":2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TrainingTelemetryTest, FlushFailureIsStickyButNonFatal) {
  const std::string path = ::testing::TempDir() + "/telemetry_fail.jsonl";
  std::remove(path.c_str());
  io::FaultInjectionEnv env;
  TrainingTelemetry telemetry(/*echo=*/false, path, &env);
  env.ArmFault(io::FaultInjectionEnv::Fault::kFailWrite, 1);
  telemetry.OnEpoch(MakeEpoch(1));  // must not throw
  EXPECT_FALSE(telemetry.status().ok());
  // Later records still accumulate in memory.
  telemetry.OnEpoch(MakeEpoch(2));
  EXPECT_EQ(telemetry.epochs().size(), 2u);
  EXPECT_FALSE(telemetry.status().ok()) << "first failure must stick";
  std::remove(path.c_str());
}

TEST(TrainingTelemetryTest, FailedRenameLeavesNoTornFile) {
  const std::string path = ::testing::TempDir() + "/telemetry_rename.jsonl";
  std::remove(path.c_str());
  io::FaultInjectionEnv env;
  TrainingTelemetry telemetry(/*echo=*/false, path, &env);
  telemetry.OnEpoch(MakeEpoch(1));
  ASSERT_TRUE(env.FileExists(path));
  const std::string before = env.ReadFile(path).value();
  env.ArmFault(io::FaultInjectionEnv::Fault::kFailRename, 1);
  telemetry.OnEpoch(MakeEpoch(2));
  EXPECT_FALSE(telemetry.status().ok());
  // The destination still holds the last complete log.
  EXPECT_EQ(env.ReadFile(path).value(), before);
  std::remove(path.c_str());
}

// --- CostEwma -------------------------------------------------------------

TEST(CostEwmaTest, FirstObservationSeedsThenQuarterBlends) {
  serving::CostEwma ewma;
  EXPECT_EQ(ewma.value(), 0);
  ewma.Observe(1000);
  EXPECT_EQ(ewma.value(), 1000);
  ewma.Observe(2000);
  EXPECT_EQ(ewma.value(), (1000 * 3 + 2000) / 4);
  ewma.Observe(-5);  // clamped to 0
  EXPECT_EQ(ewma.value(), (1250 * 3 + 0) / 4);
}

TEST(CostEwmaTest, ConcurrentObservationsStayInRange) {
  // Regression for the non-atomic load/store RMW this type replaced: under
  // concurrent updates every intermediate value must remain a convex blend
  // of observations, i.e. inside [min, max] of everything observed. Run
  // under TSan this also proves the CAS loop is race-free.
  serving::CostEwma ewma;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  constexpr int64_t kLo = 1000;
  constexpr int64_t kHi = 9000;
  std::atomic<bool> ok{true};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ewma.Observe(kLo + (t * 2654435761u + i * 40503u) % (kHi - kLo));
        const int64_t v = ewma.value();
        if (v < kLo / 2 || v > kHi) ok = false;
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_TRUE(ok.load());
  EXPECT_GE(ewma.value(), kLo / 2);
  EXPECT_LE(ewma.value(), kHi);
}

// --- Compute-layer instrumentation ---------------------------------------

TEST(ComputeMetricsTest, ParallelForCountsRegionsAndChunks) {
  MetricsRegistry registry;
  compute::SetMetricsRegistry(&registry);
  compute::ComputeContext single_thread(1);
  std::atomic<int64_t> total{0};
  compute::ParallelFor(0, 100, 10, [&](int64_t lo, int64_t hi) {
    total.fetch_add(hi - lo);
  });
  compute::SetMetricsRegistry(nullptr);
  EXPECT_EQ(total.load(), 100);
  const MetricsSnapshot snap = registry.Snapshot();
  int64_t regions = 0, chunks = 0;
  for (const MetricValue& c : snap.counters) {
    if (c.name == "compute.regions") regions = c.value;
    if (c.name == "compute.chunks") chunks = c.value;
  }
  EXPECT_EQ(regions, 1);
  EXPECT_EQ(chunks, 10);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "compute.region_nanos");
  EXPECT_EQ(snap.histograms[0].count, 1);
}

TEST(ComputeMetricsTest, DetachAfterResetIsInert) {
  MetricsRegistry registry;
  compute::SetMetricsRegistry(&registry);
  compute::SetMetricsRegistry(nullptr);
  compute::ComputeContext single_thread(1);
  compute::ParallelFor(0, 10, 1, [](int64_t, int64_t) {});
  int64_t regions = -1;
  for (const MetricValue& c : registry.Snapshot().counters) {
    if (c.name == "compute.regions") regions = c.value;
  }
  EXPECT_EQ(regions, 0);
}

}  // namespace
}  // namespace obs
}  // namespace slime
