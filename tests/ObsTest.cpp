//===- tests/ObsTest.cpp - Observability layer unit tests ------------------===//
//
// Covers the obs metrics registry (exact totals under concurrency, the
// shared histogram geometry and quantiles, the runtime kill switch), the
// Prometheus text renderer, and the span tracer's Chrome trace_event
// output. Everything here is also exercised end-to-end by DriverTest
// (--trace-out) and ServeTest (stats/metrics methods); this file owns
// the precise-semantics checks.
//
//===----------------------------------------------------------------------===//

#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Prometheus.h"
#include "obs/SpanRing.h"
#include "obs/Trace.h"
#include "support/JsonParse.h"

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace bec;

#ifndef BEC_OBS_DISABLED

namespace {

TEST(Metrics, CountersGaugesHistogramsRoundTrip) {
  obs::resetMetrics();
  static const obs::Counter C("obstest.basic.counter");
  static const obs::Gauge G("obstest.basic.gauge");
  static const obs::Histogram H("obstest.basic.us");
  C.add();
  C.add(41);
  G.add(5);
  G.add(-2);
  H.observeUs(3);
  H.observeUs(100);

  obs::MetricsSnapshot S = obs::snapshotMetrics();
  const obs::MetricValue *MC = S.find("obstest.basic.counter");
  ASSERT_NE(MC, nullptr);
  EXPECT_EQ(MC->Kind, obs::MetricKind::Counter);
  EXPECT_EQ(MC->Value, 42u);

  const obs::MetricValue *MG = S.find("obstest.basic.gauge");
  ASSERT_NE(MG, nullptr);
  EXPECT_EQ(MG->Kind, obs::MetricKind::Gauge);
  EXPECT_EQ(MG->GaugeValue, 3);

  const obs::MetricValue *MH = S.find("obstest.basic.us");
  ASSERT_NE(MH, nullptr);
  EXPECT_EQ(MH->Kind, obs::MetricKind::Histogram);
  EXPECT_EQ(MH->Hist.Count, 2u);
  EXPECT_EQ(MH->Hist.SumUs, 103u);
  EXPECT_EQ(S.find("obstest.no.such.metric"), nullptr);

  // Gauge::set overrides the accumulated level.
  G.set(-7);
  EXPECT_EQ(obs::snapshotMetrics().find("obstest.basic.gauge")->GaugeValue,
            -7);
}

TEST(Metrics, ReRegisteringANameYieldsTheSameMetric) {
  obs::resetMetrics();
  obs::Counter A("obstest.dedup.counter");
  obs::Counter B("obstest.dedup.counter");
  A.add(2);
  B.add(3);
  obs::MetricsSnapshot S = obs::snapshotMetrics();
  EXPECT_EQ(S.find("obstest.dedup.counter")->Value, 5u);
  // One entry, not two.
  unsigned Seen = 0;
  for (const obs::MetricValue &M : S.Metrics)
    Seen += M.Name == "obstest.dedup.counter";
  EXPECT_EQ(Seen, 1u);
}

// The exactness contract: after writer threads join, totals equal the
// sum of every add() exactly — increments from exited threads fold into
// the retired accumulator, live shards are merged on snapshot. Run under
// ThreadSanitizer this is also the no-data-races proof for the hot path.
TEST(Metrics, TotalsAreExactAcrossThreads) {
  obs::resetMetrics();
  static const obs::Counter C("obstest.mt.counter");
  static const obs::Histogram H("obstest.mt.us");
  constexpr unsigned Threads = 8;
  constexpr uint64_t PerThread = 20000;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([] {
      for (uint64_t I = 0; I < PerThread; ++I) {
        C.add();
        H.observeUs(I & 1023);
      }
    });
  for (std::thread &W : Workers)
    W.join();

  obs::MetricsSnapshot S = obs::snapshotMetrics();
  EXPECT_EQ(S.find("obstest.mt.counter")->Value, Threads * PerThread);
  const obs::HistogramData &Hist = S.find("obstest.mt.us")->Hist;
  EXPECT_EQ(Hist.Count, Threads * PerThread);
  uint64_t BucketSum = 0;
  for (uint64_t B : Hist.Buckets)
    BucketSum += B;
  EXPECT_EQ(BucketSum, Hist.Count);
}

TEST(Metrics, HistogramGeometryAndQuantiles) {
  // Powers of two, then +Inf.
  EXPECT_EQ(obs::histogramBucketBound(0), 1u);
  EXPECT_EQ(obs::histogramBucketBound(1), 2u);
  EXPECT_EQ(obs::histogramBucketBound(10), 1024u);
  EXPECT_EQ(obs::histogramBucketBound(obs::NumHistogramBuckets - 2),
            1u << 20);
  EXPECT_EQ(obs::histogramBucketBound(obs::NumHistogramBuckets - 1),
            ~uint64_t(0));

  obs::resetMetrics();
  static const obs::Histogram H("obstest.quant.us");
  // 98 fast observations and 2 slow ones: p50 in the 8us bucket, p99 in
  // the 1024us bucket.
  for (int I = 0; I < 98; ++I)
    H.observeUs(7);
  H.observeUs(1000);
  H.observeUs(1000);
  const obs::HistogramData Hist =
      obs::snapshotMetrics().find("obstest.quant.us")->Hist;
  EXPECT_EQ(Hist.quantileUs(0.50), 8u);
  EXPECT_EQ(Hist.quantileUs(0.98), 8u);
  EXPECT_EQ(Hist.quantileUs(0.99), 1024u);
  EXPECT_EQ(Hist.quantileUs(1.0), 1024u);
  EXPECT_NEAR(Hist.meanUs(), (98.0 * 7 + 2000) / 100.0, 1e-9);

  // An empty histogram has no quantiles; +Inf observations saturate.
  obs::HistogramData Empty;
  EXPECT_EQ(Empty.quantileUs(0.5), 0u);
  obs::HistogramData Inf;
  Inf.Count = 1;
  Inf.Buckets[obs::NumHistogramBuckets - 1] = 1;
  EXPECT_EQ(Inf.quantileUs(0.5), 2u * (1u << 20));
}

TEST(Metrics, RuntimeKillSwitchDropsWrites) {
  obs::resetMetrics();
  static const obs::Counter C("obstest.kill.counter");
  C.add(5);
  ASSERT_TRUE(obs::metricsEnabled());
  obs::setMetricsEnabled(false);
  C.add(1000);
  obs::setMetricsEnabled(true);
  C.add(2);
  EXPECT_EQ(obs::snapshotMetrics().find("obstest.kill.counter")->Value, 7u);
}

//===----------------------------------------------------------------------===//
// Prometheus rendering
//===----------------------------------------------------------------------===//

// The renderer takes a plain snapshot struct, so grammar tests can build
// deterministic inputs by hand instead of going through the registry.
obs::MetricsSnapshot makeSnapshot() {
  obs::MetricsSnapshot S;
  obs::MetricValue C;
  C.Name = "engine.runs";
  C.Kind = obs::MetricKind::Counter;
  C.Value = 12;
  S.Metrics.push_back(C);
  obs::MetricValue G;
  G.Name = "serve.queue.depth";
  G.Kind = obs::MetricKind::Gauge;
  G.GaugeValue = -3;
  S.Metrics.push_back(G);
  obs::MetricValue H;
  H.Name = "serve.method.us{method=\"analyze\"}";
  H.Kind = obs::MetricKind::Histogram;
  H.Hist.Buckets[0] = 2; // <= 1us
  H.Hist.Buckets[3] = 1; // <= 8us
  H.Hist.Count = 3;
  H.Hist.SumUs = 9;
  S.Metrics.push_back(H);
  return S;
}

TEST(Prometheus, RendersTheTextExposition) {
  std::string Text = obs::renderPrometheus(makeSnapshot());
  // Counters get the _total suffix and a TYPE line.
  EXPECT_NE(Text.find("# TYPE bec_engine_runs_total counter\n"),
            std::string::npos);
  EXPECT_NE(Text.find("\nbec_engine_runs_total 12\n"), std::string::npos);
  // Gauges render signed values.
  EXPECT_NE(Text.find("# TYPE bec_serve_queue_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(Text.find("\nbec_serve_queue_depth -3\n"), std::string::npos);
  // Histograms: cumulative buckets, labels merged with le=, sum + count.
  EXPECT_NE(Text.find("# TYPE bec_serve_method_us histogram\n"),
            std::string::npos);
  EXPECT_NE(
      Text.find("bec_serve_method_us_bucket{method=\"analyze\",le=\"1\"} 2\n"),
      std::string::npos);
  EXPECT_NE(
      Text.find("bec_serve_method_us_bucket{method=\"analyze\",le=\"8\"} 3\n"),
      std::string::npos);
  EXPECT_NE(Text.find(
                "bec_serve_method_us_bucket{method=\"analyze\",le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(Text.find("bec_serve_method_us_sum{method=\"analyze\"} 9\n"),
            std::string::npos);
  EXPECT_NE(Text.find("bec_serve_method_us_count{method=\"analyze\"} 3\n"),
            std::string::npos);
}

TEST(Prometheus, EveryLineMatchesTheExpositionGrammar) {
  std::string Text = obs::renderPrometheus(makeSnapshot());
  ASSERT_FALSE(Text.empty());
  EXPECT_EQ(Text.back(), '\n');
  size_t Pos = 0;
  std::map<std::string, unsigned> TypeLines;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    ASSERT_NE(End, std::string::npos);
    std::string Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    ASSERT_FALSE(Line.empty());
    if (Line[0] == '#') {
      // "# TYPE <name> <kind>"
      ASSERT_EQ(Line.rfind("# TYPE ", 0), 0u) << Line;
      std::string Rest = Line.substr(7);
      size_t Sp = Rest.find(' ');
      ASSERT_NE(Sp, std::string::npos) << Line;
      std::string Kind = Rest.substr(Sp + 1);
      EXPECT_TRUE(Kind == "counter" || Kind == "gauge" || Kind == "histogram")
          << Line;
      ++TypeLines[Rest.substr(0, Sp)];
      continue;
    }
    // "<name>[{labels}] <value>": name charset, balanced braces, numeric
    // value.
    size_t Sp = Line.rfind(' ');
    ASSERT_NE(Sp, std::string::npos) << Line;
    std::string Name = Line.substr(0, Sp);
    std::string Val = Line.substr(Sp + 1);
    size_t Brace = Name.find('{');
    std::string Bare = Name.substr(0, Brace);
    EXPECT_EQ(Bare.rfind("bec_", 0), 0u) << Line;
    for (char Ch : Bare)
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(Ch)) || Ch == '_')
          << Line;
    if (Brace != std::string::npos)
      EXPECT_EQ(Name.back(), '}') << Line;
    ASSERT_FALSE(Val.empty()) << Line;
    size_t Digits = Val[0] == '-' ? 1 : 0;
    for (size_t I = Digits; I < Val.size(); ++I)
      EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(Val[I])) ||
                  Val[I] == '.')
          << Line;
  }
  // Exactly one TYPE line per family.
  for (const auto &[Family, N] : TypeLines)
    EXPECT_EQ(N, 1u) << Family;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

TEST(Trace, EmitsBalancedChromeTraceEvents) {
  obs::traceBegin();
  obs::setTraceThreadName("obstest-main");
  {
    obs::Span Outer("outer", {{"shard", 3}});
    Outer.arg("runs", 100);
    obs::Span Inner("inner");
    std::thread([] {
      obs::Span Worker("worker-span");
      (void)Worker;
    }).join();
  }
  std::string Doc = obs::traceEnd();

  std::string Err;
  std::optional<JsonValue> V = parseJson(Doc, &Err);
  ASSERT_TRUE(V.has_value()) << Err;
  EXPECT_EQ(*V->memberString("displayTimeUnit"), "ms");
  const std::vector<JsonValue> *Events = V->member("traceEvents")->asArray();
  ASSERT_NE(Events, nullptr);

  // Balanced, properly nested B/E per thread; E repeats the span name.
  std::map<uint64_t, std::vector<std::string>> Stacks;
  std::map<std::string, unsigned> Begins;
  bool SawThreadName = false;
  for (const JsonValue &E : *Events) {
    const std::string &Ph = *E.memberString("ph");
    const std::string &Name = *E.memberString("name");
    uint64_t Tid = *E.memberU64("tid");
    EXPECT_EQ(*E.memberU64("pid"), 1u);
    if (Ph == "B") {
      Stacks[Tid].push_back(Name);
      ++Begins[Name];
    } else if (Ph == "E") {
      ASSERT_FALSE(Stacks[Tid].empty());
      EXPECT_EQ(Stacks[Tid].back(), Name);
      Stacks[Tid].pop_back();
    } else {
      EXPECT_EQ(Ph, "M");
      SawThreadName = true;
    }
  }
  for (const auto &[Tid, Stack] : Stacks)
    EXPECT_TRUE(Stack.empty()) << "unbalanced spans on tid " << Tid;
  EXPECT_EQ(Begins["outer"], 1u);
  EXPECT_EQ(Begins["inner"], 1u);
  EXPECT_EQ(Begins["worker-span"], 1u);
  EXPECT_TRUE(SawThreadName);

  // Args land on the events: "shard" on outer's B, "runs" on its E.
  bool SawShard = false, SawRuns = false;
  for (const JsonValue &E : *Events) {
    if (*E.memberString("name") != "outer")
      continue;
    if (const JsonValue *Args = E.member("args")) {
      if (const JsonValue *S = Args->member("shard"))
        SawShard |= S->asU64() == 3u;
      if (const JsonValue *R = Args->member("runs"))
        SawRuns |= R->asU64() == 100u;
    }
  }
  EXPECT_TRUE(SawShard);
  EXPECT_TRUE(SawRuns);
}

TEST(Trace, InactiveTracerRecordsNothing) {
  // No traceBegin: spans are inert (and traceActive gates dynamic names).
  ASSERT_FALSE(obs::traceActive());
  {
    obs::Span S("never-recorded");
    (void)S;
  }
  obs::traceBegin();
  EXPECT_TRUE(obs::traceActive());
  std::string Doc = obs::traceEnd();
  EXPECT_FALSE(obs::traceActive());
  std::optional<JsonValue> V = parseJson(Doc);
  ASSERT_TRUE(V.has_value());
  for (const JsonValue &E : *V->member("traceEvents")->asArray())
    EXPECT_NE(*E.memberString("name"), "never-recorded");
}

TEST(Trace, SpansFromABandonedTraceStayOutOfTheNext) {
  obs::traceBegin();
  obs::Span *Stale = new obs::Span("stale-span");
  // Re-arming invalidates the generation: the stale span's E must not
  // leak into the new trace (nor crash).
  obs::traceBegin();
  delete Stale;
  std::string Doc = obs::traceEnd();
  std::optional<JsonValue> V = parseJson(Doc);
  ASSERT_TRUE(V.has_value());
  for (const JsonValue &E : *V->member("traceEvents")->asArray())
    EXPECT_NE(*E.memberString("name"), "stale-span");
}

//===----------------------------------------------------------------------===//
// Structured logging (obs/Log.h)
//===----------------------------------------------------------------------===//

/// Redirects the logger into a temp file for one test and reads complete
/// lines back. Restores the stderr sink, the Off level, the jsonl format
/// and the default rate limit on scope exit, so no later test inherits
/// an armed logger. The file is named after the test and the process, so
/// tests running in parallel processes never share (and remove) it.
struct LogCapture {
  std::string Path;

  LogCapture()
      : Path(testing::TempDir() + "/obstest_log_" +
             testing::UnitTest::GetInstance()->current_test_info()->name() +
             "_" + std::to_string(getpid()) + ".txt") {
    std::remove(Path.c_str());
    std::string Err;
    EXPECT_TRUE(obs::openLogFile(Path, Err)) << Err;
  }
  ~LogCapture() {
    obs::closeLogFile();
    obs::setLogLevel(obs::LogLevel::Off);
    obs::setLogFormat(obs::LogFormat::Jsonl);
    obs::setLogRateLimit(200);
    std::remove(Path.c_str());
  }

  std::vector<std::string> lines() const {
    std::ifstream In(Path);
    std::vector<std::string> Out;
    std::string Line;
    while (std::getline(In, Line))
      Out.push_back(Line);
    return Out;
  }
};

TEST(Log, LevelAndFormatParseRoundTrip) {
  for (obs::LogLevel L : {obs::LogLevel::Debug, obs::LogLevel::Info,
                          obs::LogLevel::Warn, obs::LogLevel::Error,
                          obs::LogLevel::Off})
    EXPECT_EQ(obs::parseLogLevel(obs::logLevelName(L)), L);
  EXPECT_FALSE(obs::parseLogLevel("verbose").has_value());
  EXPECT_FALSE(obs::parseLogLevel("INFO").has_value());
  EXPECT_EQ(obs::parseLogFormat("jsonl"), obs::LogFormat::Jsonl);
  EXPECT_EQ(obs::parseLogFormat("logfmt"), obs::LogFormat::Logfmt);
  EXPECT_FALSE(obs::parseLogFormat("xml").has_value());
}

TEST(Log, JsonlLinesParseAndCarryTypedFields) {
  LogCapture Cap;
  obs::setLogLevel(obs::LogLevel::Info);
  obs::log(obs::LogLevel::Warn, "obstest.jsonl",
           {{"u", uint64_t(7)},
            {"i", -2},
            {"b", true},
            {"s", "quote\" back\\slash"}});
  obs::log(obs::LogLevel::Debug, "obstest.jsonl.hidden"); // Below level.
  std::vector<std::string> Lines = Cap.lines();
  ASSERT_EQ(Lines.size(), 1u);
  std::optional<JsonValue> V = parseJson(Lines[0]);
  ASSERT_TRUE(V.has_value()) << Lines[0];
  EXPECT_GT(V->memberU64("ts_us").value_or(0), 0u);
  EXPECT_EQ(*V->memberString("level"), "warn");
  EXPECT_EQ(*V->memberString("event"), "obstest.jsonl");
  EXPECT_EQ(V->memberU64("u"), 7u);
  EXPECT_EQ(V->member("i")->asI64(), -2);
  EXPECT_EQ(V->member("b")->asBool(), true);
  EXPECT_EQ(*V->memberString("s"), "quote\" back\\slash");
}

TEST(Log, LogfmtLinesAreSpaceSeparatedPairs) {
  LogCapture Cap;
  obs::setLogFormat(obs::LogFormat::Logfmt);
  obs::setLogLevel(obs::LogLevel::Debug);
  obs::log(obs::LogLevel::Info, "obstest.logfmt",
           {{"conn", uint64_t(4)}, {"msg", "two words"}});
  std::vector<std::string> Lines = Cap.lines();
  ASSERT_EQ(Lines.size(), 1u);
  const std::string &L = Lines[0];
  EXPECT_EQ(L.rfind("ts_us=", 0), 0u) << L;
  EXPECT_NE(L.find(" level=info"), std::string::npos) << L;
  EXPECT_NE(L.find(" event=obstest.logfmt"), std::string::npos) << L;
  EXPECT_NE(L.find(" conn=4"), std::string::npos) << L;
  // Values with spaces are quoted so the line splits unambiguously.
  EXPECT_NE(L.find(" msg=\"two words\""), std::string::npos) << L;
}

TEST(Log, LevelGatesEmissionAndLogEnabledAgrees) {
  LogCapture Cap;
  obs::setLogLevel(obs::LogLevel::Warn);
  EXPECT_FALSE(obs::logEnabled(obs::LogLevel::Debug));
  EXPECT_FALSE(obs::logEnabled(obs::LogLevel::Info));
  EXPECT_TRUE(obs::logEnabled(obs::LogLevel::Warn));
  EXPECT_TRUE(obs::logEnabled(obs::LogLevel::Error));
  obs::log(obs::LogLevel::Info, "obstest.gated.below");
  obs::log(obs::LogLevel::Error, "obstest.gated.above");
  obs::setLogLevel(obs::LogLevel::Off);
  obs::log(obs::LogLevel::Error, "obstest.gated.off");
  std::vector<std::string> Lines = Cap.lines();
  ASSERT_EQ(Lines.size(), 1u);
  EXPECT_NE(Lines[0].find("obstest.gated.above"), std::string::npos);
}

TEST(Log, RateLimitCapsPerEventAndReportsSuppressed) {
  LogCapture Cap;
  obs::setLogLevel(obs::LogLevel::Info);
  obs::setLogRateLimit(3);
  for (int I = 0; I < 10; ++I)
    obs::log(obs::LogLevel::Info, "obstest.flood", {{"i", I}});
  // The cap is per event name: a different event is not throttled by
  // the flood.
  obs::log(obs::LogLevel::Info, "obstest.calm");
  std::vector<std::string> Lines = Cap.lines();
  ASSERT_EQ(Lines.size(), 4u);
  // The suppressed count surfaces on the event's next emitted line,
  // which needs the one-second window to roll over.
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  obs::log(obs::LogLevel::Info, "obstest.flood", {{"i", 10}});
  Lines = Cap.lines();
  ASSERT_EQ(Lines.size(), 5u);
  std::optional<JsonValue> V = parseJson(Lines.back());
  ASSERT_TRUE(V.has_value()) << Lines.back();
  EXPECT_EQ(V->memberU64("suppressed"), 7u);
}

TEST(Log, RequestScopeTagsLinesAndInnerScopeInheritsConn) {
  LogCapture Cap;
  obs::setLogLevel(obs::LogLevel::Info);
  {
    // The transport's scope knows the connection but not the method...
    obs::LogRequestScope Transport(7, "", "");
    {
      // ...the service's scope knows method and trace id but passes
      // conn 0, inheriting the transport's connection id.
      obs::LogRequestScope Service(0, "analyze",
                                   "0123456789abcdef0123456789abcdef");
      obs::log(obs::LogLevel::Info, "obstest.scope.inner");
    }
    obs::log(obs::LogLevel::Info, "obstest.scope.outer");
  }
  obs::log(obs::LogLevel::Info, "obstest.scope.bare");
  std::vector<std::string> Lines = Cap.lines();
  ASSERT_EQ(Lines.size(), 3u);
  std::optional<JsonValue> Inner = parseJson(Lines[0]);
  ASSERT_TRUE(Inner.has_value());
  EXPECT_EQ(Inner->memberU64("conn"), 7u);
  EXPECT_EQ(*Inner->memberString("method"), "analyze");
  EXPECT_EQ(*Inner->memberString("trace_id"),
            "0123456789abcdef0123456789abcdef");
  std::optional<JsonValue> Outer = parseJson(Lines[1]);
  ASSERT_TRUE(Outer.has_value());
  EXPECT_EQ(Outer->memberU64("conn"), 7u);
  EXPECT_EQ(Outer->member("method"), nullptr); // Empty = omitted.
  EXPECT_EQ(Outer->member("trace_id"), nullptr);
  std::optional<JsonValue> Bare = parseJson(Lines[2]);
  ASSERT_TRUE(Bare.has_value());
  EXPECT_EQ(Bare->member("conn"), nullptr); // No ambient scope.
}

//===----------------------------------------------------------------------===//
// Span ring (obs/SpanRing.h)
//===----------------------------------------------------------------------===//

bool isLowerHex(const std::string &S) {
  for (char C : S)
    if (!std::isdigit(static_cast<unsigned char>(C)) && (C < 'a' || C > 'f'))
      return false;
  return !S.empty();
}

TEST(SpanRing, FreshIdsAreWellFormedAndDistinct) {
  std::string T1 = obs::newTraceId128(), T2 = obs::newTraceId128();
  EXPECT_EQ(T1.size(), 32u);
  EXPECT_TRUE(isLowerHex(T1)) << T1;
  EXPECT_NE(T1, T2);
  std::string S1 = obs::newSpanId64(), S2 = obs::newSpanId64();
  EXPECT_EQ(S1.size(), 16u);
  EXPECT_TRUE(isLowerHex(S1)) << S1;
  EXPECT_NE(S1, S2);
}

TEST(SpanRing, RecordSnapshotFilterAndClear) {
  obs::spanRingClear();
  obs::RingSpan A;
  A.TraceId = obs::newTraceId128();
  A.SpanId = obs::newSpanId64();
  A.Name = "serve.analyze";
  A.StartUs = 100;
  A.DurUs = 5;
  obs::RingSpan B = A;
  B.TraceId = obs::newTraceId128();
  B.SpanId = obs::newSpanId64();
  B.Name = "serve.counts";
  obs::spanRingRecord(A);
  obs::spanRingRecord(B);
  EXPECT_EQ(obs::spanRingSnapshot().size(), 2u);
  std::vector<obs::RingSpan> Mine = obs::spanRingSnapshot(A.TraceId);
  ASSERT_EQ(Mine.size(), 1u);
  EXPECT_EQ(Mine[0].SpanId, A.SpanId);
  EXPECT_EQ(Mine[0].Name, "serve.analyze");
  EXPECT_TRUE(
      obs::spanRingSnapshot("00000000000000000000000000000000").empty());
  obs::spanRingClear();
  EXPECT_TRUE(obs::spanRingSnapshot().empty());
}

TEST(SpanRing, ScopeRecordsOnDestructionAndStaysInertUntraced) {
  obs::spanRingClear();
  {
    obs::RingSpanScope Inert("", "", "serve.untraced");
    EXPECT_FALSE(Inert.active());
  }
  EXPECT_TRUE(obs::spanRingSnapshot().empty());

  std::string TraceId = obs::newTraceId128();
  std::string Parent = obs::newSpanId64();
  std::string SpanId;
  {
    obs::RingSpanScope Scope(TraceId, Parent, "serve.traced");
    EXPECT_TRUE(Scope.active());
    SpanId = Scope.spanId();
    EXPECT_EQ(SpanId.size(), 16u);
    Scope.arg("runs", uint64_t(5));
    Scope.arg("mode", std::string_view("say \"hi\""));
    EXPECT_TRUE(obs::spanRingSnapshot(TraceId).empty())
        << "span recorded before the scope closed";
  }
  std::vector<obs::RingSpan> Spans = obs::spanRingSnapshot(TraceId);
  ASSERT_EQ(Spans.size(), 1u);
  const obs::RingSpan &S = Spans[0];
  EXPECT_EQ(S.SpanId, SpanId);
  EXPECT_EQ(S.ParentSpan, Parent);
  EXPECT_EQ(S.Name, "serve.traced");
  EXPECT_GT(S.StartUs, 0u); // Wall clock, epoch microseconds.

  // The rendered trace/dump wire object parses, carries the identity,
  // and nests the args as a real JSON object (escaping included).
  std::optional<JsonValue> V = parseJson(obs::renderRingSpanJson(S, "becd"));
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V->memberString("name"), "serve.traced");
  EXPECT_EQ(*V->memberString("trace_id"), TraceId);
  EXPECT_EQ(*V->memberString("span_id"), SpanId);
  EXPECT_EQ(*V->memberString("parent_span"), Parent);
  EXPECT_EQ(*V->memberString("process"), "becd");
  EXPECT_EQ(V->memberU64("start_us"), S.StartUs);
  const JsonValue *Args = V->member("args");
  ASSERT_NE(Args, nullptr);
  EXPECT_EQ(Args->memberU64("runs"), 5u);
  EXPECT_EQ(*Args->memberString("mode"), "say \"hi\"");
  obs::spanRingClear();
}

} // namespace

#else // BEC_OBS_DISABLED

// In a disabled build the surface compiles to no-ops; assert exactly that.
TEST(ObsDisabled, SurfaceIsInert) {
  obs::Counter C("x");
  C.add(5);
  EXPECT_TRUE(obs::snapshotMetrics().Metrics.empty());
  EXPECT_FALSE(obs::traceActive());
}

#endif // BEC_OBS_DISABLED
