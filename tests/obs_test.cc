// Tests for the observability layer: metrics (lossless concurrent updates),
// stage spans (nesting mirrors the call tree), and the JSON writer/validator
// behind --stats-json and BENCH_*.json.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/span.h"

namespace cpr::obs {
namespace {

TEST(CounterTest, ConcurrentIncrementsAreNotLost) {
  Registry registry;
  Counter& counter = registry.counter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrements; ++i) {
        counter.Increment();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.value(), static_cast<int64_t>(kThreads) * kIncrements);
}

TEST(CounterTest, RegistryLookupIsStableAndConcurrent) {
  Registry registry;
  // Racing first-touch registration of the same names must yield one
  // instrument per name and lose no increments.
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 1000; ++i) {
        registry.counter("race.a").Increment();
        registry.counter("race.b").Add(2);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(registry.counter("race.a").value(), kThreads * 1000);
  EXPECT_EQ(registry.counter("race.b").value(), kThreads * 2000);
  // References returned earlier must still point at the live instrument.
  Counter& a = registry.counter("race.a");
  a.Increment();
  EXPECT_EQ(registry.counter("race.a").value(), kThreads * 1000 + 1);
}

TEST(GaugeTest, SetAndAdd) {
  Registry registry;
  Gauge& gauge = registry.gauge("test.gauge");
  gauge.Set(42);
  EXPECT_EQ(gauge.value(), 42);
  gauge.Add(-2);
  EXPECT_EQ(gauge.value(), 40);
  gauge.Reset();
  EXPECT_EQ(gauge.value(), 0);
}

TEST(HistogramTest, TracksCountSumMinMax) {
  Registry registry;
  Histogram& histogram = registry.histogram("test.hist");
  EXPECT_EQ(histogram.Data().count, 0);
  EXPECT_EQ(histogram.Data().min_seconds, 0);  // Defined 0 when empty.
  histogram.Observe(0.5);
  histogram.Observe(0.001);
  histogram.Observe(2.0);
  HistogramData data = histogram.Data();
  EXPECT_EQ(data.count, 3);
  EXPECT_DOUBLE_EQ(data.sum_seconds, 2.501);
  EXPECT_DOUBLE_EQ(data.min_seconds, 0.001);
  EXPECT_DOUBLE_EQ(data.max_seconds, 2.0);
  int64_t bucketed = 0;
  for (int64_t b : data.buckets) {
    bucketed += b;
  }
  EXPECT_EQ(bucketed, 3);
}

TEST(HistogramTest, ConcurrentObservationsKeepExactCountAndExtremes) {
  Registry registry;
  Histogram& histogram = registry.histogram("test.hist.mt");
  constexpr int kThreads = 8;
  constexpr int kObs = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kObs; ++i) {
        histogram.Observe(1e-6 * (t + 1));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  HistogramData data = histogram.Data();
  EXPECT_EQ(data.count, static_cast<int64_t>(kThreads) * kObs);
  EXPECT_DOUBLE_EQ(data.min_seconds, 1e-6);
  EXPECT_DOUBLE_EQ(data.max_seconds, 1e-6 * kThreads);
}

TEST(HistogramTest, QuantilesAreOrderedAndInsideObservedRange) {
  Registry registry;
  Histogram& histogram = registry.histogram("test.hist.q");
  EXPECT_EQ(histogram.Data().QuantileSeconds(0.5), 0.0);  // Defined 0 when empty.
  // 90 fast observations and 10 slow ones: p50/p90 must sit in the fast
  // mass, p99 in the slow tail, and every estimate inside [min, max].
  for (int i = 0; i < 90; ++i) {
    histogram.Observe(1e-3);
  }
  for (int i = 0; i < 10; ++i) {
    histogram.Observe(1.0);
  }
  HistogramData data = histogram.Data();
  double p50 = data.QuantileSeconds(0.50);
  double p90 = data.QuantileSeconds(0.90);
  double p99 = data.QuantileSeconds(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p50, data.min_seconds);
  EXPECT_LE(p99, data.max_seconds);
  EXPECT_LT(p50, 0.01);  // Log2-microsecond bucket of the 1ms mass.
  EXPECT_GT(p99, 0.5);   // The tail observation.
}

TEST(HistogramTest, QuantileOfSingleObservationIsExact) {
  Registry registry;
  Histogram& histogram = registry.histogram("test.hist.q1");
  histogram.Observe(0.5);
  // With one observation min == max == 0.5, and clamping makes every
  // quantile exact despite the coarse bucket estimate.
  for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(histogram.Data().QuantileSeconds(q), 0.5) << q;
  }
}

TEST(RegistryTest, SnapshotIsSortedAndComplete) {
  Registry registry;
  registry.counter("b.counter").Add(2);
  registry.counter("a.counter").Add(1);
  registry.gauge("z.gauge").Set(3);
  registry.histogram("h.hist").Observe(0.25);
  Snapshot snapshot = registry.TakeSnapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].first, "a.counter");
  EXPECT_EQ(snapshot.counters[0].second, 1);
  EXPECT_EQ(snapshot.counters[1].first, "b.counter");
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].second, 3);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].second.count, 1);
}

TEST(RegistryTest, ResetZeroesEverythingButKeepsReferences) {
  Registry registry;
  Counter& counter = registry.counter("r.counter");
  counter.Add(7);
  Histogram& histogram = registry.histogram("r.hist");
  histogram.Observe(1.0);
  registry.Reset();
  EXPECT_EQ(counter.value(), 0);
  EXPECT_EQ(histogram.Data().count, 0);
  EXPECT_EQ(histogram.Data().min_seconds, 0);
  counter.Increment();
  EXPECT_EQ(registry.counter("r.counter").value(), 1);
}

// Span nesting: sequential spans on one thread must form a chain of
// parent indices that mirrors the lexical call tree.
TEST(SpanTest, NestingMatchesCallTree) {
  Trace& trace = Trace::Global();
  trace.Enable();
  {
    StageSpan outer("outer");
    {
      StageSpan inner_a("inner_a");
      { StageSpan leaf("leaf"); }
    }
    { StageSpan inner_b("inner_b"); }
  }
  trace.Disable();
  std::vector<SpanRecord> records = trace.Records();
  ASSERT_EQ(records.size(), 4u);
  // Records appear in begin order.
  EXPECT_EQ(records[0].name, "outer");
  EXPECT_EQ(records[0].parent, -1);
  EXPECT_EQ(records[1].name, "inner_a");
  EXPECT_EQ(records[1].parent, 0);
  EXPECT_EQ(records[2].name, "leaf");
  EXPECT_EQ(records[2].parent, 1);
  EXPECT_EQ(records[3].name, "inner_b");
  EXPECT_EQ(records[3].parent, 0);
  for (const SpanRecord& record : records) {
    EXPECT_GE(record.duration_seconds, 0.0);
    EXPECT_GE(record.start_seconds, 0.0);
  }
}

TEST(SpanTest, DisabledTraceRecordsNothing) {
  Trace& trace = Trace::Global();
  trace.Enable();
  trace.Disable();
  { StageSpan span("ignored"); }
  EXPECT_TRUE(trace.Records().empty());
}

TEST(SpanTest, ThreadsGetDistinctIndicesAndOwnRoots) {
  Trace& trace = Trace::Global();
  trace.Enable();
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([] {
      StageSpan root("worker");
      StageSpan child("worker.child");
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  trace.Disable();
  std::vector<SpanRecord> records = trace.Records();
  ASSERT_EQ(records.size(), 6u);
  for (const SpanRecord& record : records) {
    if (record.name == "worker") {
      EXPECT_EQ(record.parent, -1);
    } else {
      // Each child's parent must be a root on the same thread.
      ASSERT_GE(record.parent, 0);
      EXPECT_EQ(records[static_cast<size_t>(record.parent)].name, "worker");
      EXPECT_EQ(records[static_cast<size_t>(record.parent)].thread, record.thread);
    }
  }
}

// A TraceScope's parent links a worker thread's spans to the span that
// spawned the worker: the worker's first span takes it, spans nested under
// that one parent within the thread, and a scope without a parent keeps
// roots.
TEST(SpanTest, TraceScopeParentsSpansOnAnotherThread) {
  Trace trace;
  trace.Enable();
  {
    TraceScope scope(&trace);
    StageSpan stage("stage");
    ASSERT_EQ(stage.index(), 0);
    std::thread worker([&trace, parent = stage.index()] {
      TraceScope worker_scope(&trace, parent);
      StageSpan task("task");
      StageSpan child("task.child");
    });
    worker.join();
  }
  std::thread unparented([&trace] {
    TraceScope worker_scope(&trace);
    StageSpan root("root");
  });
  unparented.join();
  trace.Disable();
  std::vector<SpanRecord> records = trace.Records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].name, "stage");
  EXPECT_EQ(records[0].parent, -1);
  EXPECT_EQ(records[1].name, "task");
  EXPECT_EQ(records[1].parent, 0);
  EXPECT_NE(records[1].thread, records[0].thread);
  EXPECT_EQ(records[2].name, "task.child");
  EXPECT_EQ(records[2].parent, 1);
  EXPECT_EQ(records[3].name, "root");
  EXPECT_EQ(records[3].parent, -1);
}

TEST(SpanTest, DisabledSpanHasNoIndex) {
  Trace trace;
  TraceScope scope(&trace);
  StageSpan span("ignored");
  EXPECT_EQ(span.index(), -1);
}

// Chrome trace export: the span tree (with per-span args) must serialize
// into a valid trace_event document carrying one "X" event per span plus
// thread_name metadata.
TEST(SpanTest, ChromeTraceExportIsValidAndComplete) {
  Trace& trace = Trace::Global();
  trace.Enable();
  {
    StageSpan outer("pipeline.test");
    outer.Annotate("status", "ok");
    { StageSpan inner("repair.test_child"); }
  }
  trace.Disable();
  std::string doc = BuildChromeTrace(trace.Records());
  std::string error;
  ASSERT_TRUE(ValidateJson(doc, &error)) << error;
  EXPECT_NE(doc.find("\"pipeline.test\""), std::string::npos);
  EXPECT_NE(doc.find("\"repair.test_child\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("thread_name"), std::string::npos);
  EXPECT_NE(doc.find("\"status\":\"ok\""), std::string::npos);
}

TEST(JsonWriterTest, CommasAndNesting) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a").Int(1);
  w.Key("b").BeginArray().Int(2).Double(2.5).String("x").Bool(true).Null().EndArray();
  w.Key("c").BeginObject().Key("d").Int(3).EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"a\":1,\"b\":[2,2.5,\"x\",true,null],\"c\":{\"d\":3}}");
  std::string error;
  EXPECT_TRUE(ValidateJson(w.str(), &error)) << error;
}

TEST(JsonWriterTest, EscapesStringsAndHandlesNonFinite) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s").String("line\n\"quote\"\ttab\x01");
  w.Key("nan").Double(std::numeric_limits<double>::quiet_NaN());
  w.Key("inf").Double(std::numeric_limits<double>::infinity());
  w.EndObject();
  std::string error;
  EXPECT_TRUE(ValidateJson(w.str(), &error)) << error << " in " << w.str();
  EXPECT_NE(w.str().find("\\n"), std::string::npos);
  EXPECT_NE(w.str().find("\\\""), std::string::npos);
  EXPECT_NE(w.str().find("\\u0001"), std::string::npos);
  EXPECT_NE(w.str().find("\"nan\":null"), std::string::npos);
  EXPECT_NE(w.str().find("\"inf\":null"), std::string::npos);
}

TEST(ValidateJsonTest, AcceptsValidDocuments) {
  for (const char* doc : {
           "{}", "[]", "null", "true", "42", "-0.5e10", "\"str\"",
           "{\"a\":[1,2,{\"b\":null}],\"c\":\"\\u00e9\\\\\"}",
       }) {
    std::string error;
    EXPECT_TRUE(ValidateJson(doc, &error)) << doc << ": " << error;
  }
}

TEST(ValidateJsonTest, RejectsInvalidDocuments) {
  for (const char* doc : {
           "", "{", "}", "{\"a\":}", "{\"a\":1,}", "[1,]", "[1 2]", "{'a':1}",
           "nul", "01", "+1", "1.", "\"unterminated", "\"bad\\q\"",
           "{\"a\":1}trailing", "\"\\u12g4\"",
       }) {
    std::string error;
    EXPECT_FALSE(ValidateJson(doc, &error)) << doc;
    EXPECT_FALSE(error.empty()) << doc;
  }
}

TEST(ValidateJsonTest, RejectsOverDeepNesting) {
  std::string deep(300, '[');
  deep += std::string(300, ']');
  EXPECT_FALSE(ValidateJson(deep));
}

}  // namespace
}  // namespace cpr::obs
