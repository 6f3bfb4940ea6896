#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/artifact.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fades::obs {
namespace {

// --- JSON model -----------------------------------------------------------

TEST(Json, DumpPreservesMemberOrderAndIntegers) {
  Json j = Json::object();
  j.set("z", Json(std::uint64_t{18446744073709551615ULL}));
  j.set("a", Json(std::int64_t{-7}));
  j.set("pi", Json(3.25));
  j.set("s", Json("x"));
  // Insertion order, not lexical order, and integers print without a
  // fractional part.
  EXPECT_EQ(j.dump(),
            "{\"z\":18446744073709551615,\"a\":-7,\"pi\":3.25,\"s\":\"x\"}");
}

TEST(Json, ParseRoundTrip) {
  const std::string text =
      R"({"name":"run","n":42,"neg":-3,"f":0.5,"ok":true,"none":null,)"
      R"("list":[1,"two",{"k":"v"}]})";
  std::string error;
  const auto parsed = Json::parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->dump(), text);
}

TEST(Json, ParseRejectsMalformed) {
  for (const char* bad : {"{", "[1,]", "{\"a\":}", "tru", "\"\\x\"", "1 2"}) {
    std::string error;
    EXPECT_FALSE(Json::parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(Json, EscapeControlCharactersAndQuotes) {
  Json j(std::string("a\"b\\c\nd\te"));
  const auto text = j.dump();
  EXPECT_EQ(text, "\"a\\\"b\\\\c\\nd\\te\"");
  const auto back = Json::parse(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->asString(), "a\"b\\c\nd\te");
}

/// Members of every type the typed getters distinguish, as a reader gets
/// them off the wire.
Json getterDocument() {
  const auto j = Json::parse(
      R"({"s":"text","n":42,"neg":-5,"f":0.5,"big":9007199254740993,)"
      R"("t":true,"list":[1]})");
  EXPECT_TRUE(j.has_value());
  return j.value_or(Json());
}

TEST(Json, GetStringReadsOnlyStringMembers) {
  const Json j = getterDocument();
  std::string out = "unchanged";
  EXPECT_TRUE(j.get("s", out));
  EXPECT_EQ(out, "text");
  out = "unchanged";
  for (const char* key : {"absent", "n", "t", "list"}) {
    EXPECT_FALSE(j.get(key, out)) << key;
    EXPECT_EQ(out, "unchanged") << key;
  }
}

TEST(Json, GetDoubleReadsAnyNumber) {
  const Json j = getterDocument();
  double out = -1;
  EXPECT_TRUE(j.get("f", out));
  EXPECT_EQ(out, 0.5);
  EXPECT_TRUE(j.get("n", out));
  EXPECT_EQ(out, 42.0);
  out = -1;
  for (const char* key : {"absent", "s", "t", "list"}) {
    EXPECT_FALSE(j.get(key, out)) << key;
    EXPECT_EQ(out, -1) << key;
  }
}

TEST(Json, GetInt64ReadsIntegersExactly) {
  const Json j = getterDocument();
  std::int64_t out = 7;
  EXPECT_TRUE(j.get("neg", out));
  EXPECT_EQ(out, -5);
  // 2^53 + 1 has no double representation; the integer survives.
  EXPECT_TRUE(j.get("big", out));
  EXPECT_EQ(out, std::int64_t{9007199254740993});
  out = 7;
  for (const char* key : {"absent", "s", "t", "list"}) {
    EXPECT_FALSE(j.get(key, out)) << key;
    EXPECT_EQ(out, 7) << key;
  }
}

TEST(Json, GetUint64ReadsIntegersAndWrapsNegatives) {
  const Json j = getterDocument();
  std::uint64_t out = 7;
  EXPECT_TRUE(j.get("n", out));
  EXPECT_EQ(out, 42u);
  EXPECT_TRUE(j.get("big", out));
  EXPECT_EQ(out, std::uint64_t{9007199254740993});
  // A negative number wraps far past any bound a reader checks against.
  EXPECT_TRUE(j.get("neg", out));
  EXPECT_EQ(out, std::numeric_limits<std::uint64_t>::max() - 4);
  Json max = Json::object();
  max.set("u", Json(std::numeric_limits<std::uint64_t>::max()));
  EXPECT_TRUE(max.get("u", out));
  EXPECT_EQ(out, std::numeric_limits<std::uint64_t>::max());
  out = 7;
  for (const char* key : {"absent", "s", "t", "list"}) {
    EXPECT_FALSE(j.get(key, out)) << key;
    EXPECT_EQ(out, 7u) << key;
  }
}

// --- logger ---------------------------------------------------------------

/// Swap in a capturing sink for the duration of a test.
class SinkCapture {
 public:
  SinkCapture() {
    Logger::global().setSink(
        [this](const LogRecord& r) { records_.push_back(r); });
  }
  ~SinkCapture() { Logger::global().setSink({}); }
  const std::vector<LogRecord>& records() const { return records_; }

 private:
  std::vector<LogRecord> records_;
};

TEST(Log, ThresholdFiltersLowerLevels) {
  SinkCapture capture;
  const LogLevel before = Logger::global().threshold();
  Logger::global().setThreshold(LogLevel::Warn);
  FADES_LOG(Debug) << "dropped";
  FADES_LOG(Info) << "also dropped";
  FADES_LOG(Warn) << "kept";
  FADES_LOG(Error) << "kept too";
  Logger::global().setThreshold(before);
  ASSERT_EQ(capture.records().size(), 2u);
  EXPECT_EQ(capture.records()[0].message, "kept");
  EXPECT_EQ(capture.records()[0].level, LogLevel::Warn);
  EXPECT_EQ(capture.records()[1].message, "kept too");
}

TEST(Log, StreamCollectsMessageAndFields) {
  SinkCapture capture;
  FADES_LOG(Info) << "progress " << 3 << "/" << 10 << kv("done", 3)
                  << kv("ratio", 0.3) << kv("label", "x y");
  ASSERT_EQ(capture.records().size(), 1u);
  const auto& r = capture.records()[0];
  EXPECT_EQ(r.message, "progress 3/10");
  ASSERT_EQ(r.fields.size(), 3u);
  EXPECT_EQ(r.fields[0].key, "done");
  EXPECT_EQ(r.fields[0].value, "3");
  EXPECT_EQ(r.fields[2].value, "x y");
}

TEST(Log, FormatEscapesFieldValues) {
  LogRecord r;
  r.level = LogLevel::Info;
  r.message = "msg";
  r.fields = {{"plain", "abc"},
              {"spaced", "a b"},
              {"quoted", "say \"hi\""},
              {"eq", "k=v"},
              {"multi", "line1\nline2"}};
  const auto line = Logger::format(r);
  EXPECT_NE(line.find(" INFO msg"), std::string::npos);
  EXPECT_NE(line.find("plain=abc"), std::string::npos);
  EXPECT_NE(line.find("spaced=\"a b\""), std::string::npos);
  EXPECT_NE(line.find("quoted=\"say \\\"hi\\\"\""), std::string::npos);
  EXPECT_NE(line.find("eq=\"k=v\""), std::string::npos);
  EXPECT_NE(line.find("multi=\"line1\\nline2\""), std::string::npos);
}

TEST(Log, ParseLogLevelNamesAndFallback) {
  EXPECT_EQ(parseLogLevel("debug", LogLevel::Info), LogLevel::Debug);
  EXPECT_EQ(parseLogLevel("WARN", LogLevel::Info), LogLevel::Warn);
  EXPECT_EQ(parseLogLevel("off", LogLevel::Info), LogLevel::Off);
  EXPECT_EQ(parseLogLevel("bogus", LogLevel::Error), LogLevel::Error);
}

// --- metrics --------------------------------------------------------------

TEST(Metrics, HistogramBucketBoundaries) {
  Histogram h({1.0, 2.0, 5.0});
  h.observe(0.5);   // <= 1.0
  h.observe(1.0);   // boundary lands in its own bucket (le semantics)
  h.observe(1.001); // <= 2.0
  h.observe(5.0);   // <= 5.0
  h.observe(7.0);   // overflow
  const auto counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);  // three bounds + overflow
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.001 + 5.0 + 7.0);
}

TEST(Metrics, HistogramSortsAndDedupesBounds) {
  Histogram h({5.0, 1.0, 5.0, 2.0});
  EXPECT_EQ(h.bounds(), (std::vector<double>{1.0, 2.0, 5.0}));
}

TEST(Metrics, HistogramDropsNaNObservations) {
  Histogram h({1.0, 2.0});
  h.observe(0.5);
  h.observe(std::numeric_limits<double>::quiet_NaN());
  const auto counts = h.counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 1u);  // the NaN did NOT land in the first bucket
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(h.count(), 1u);     // dropped observations are not counted
  EXPECT_EQ(h.nanCount(), 1u);  // ...but tallied separately
  EXPECT_DOUBLE_EQ(h.sum(), 0.5);  // sum is not poisoned to NaN
  h.reset();
  EXPECT_EQ(h.nanCount(), 0u);
}

TEST(Metrics, RegistryWiresHistogramNanCounter) {
  Registry reg;
  Histogram& h = reg.histogram("h.nan", {1.0});
  h.observe(std::numeric_limits<double>::quiet_NaN());
  h.observe(0.5);
  EXPECT_EQ(reg.counter("obs.histogram_nan_dropped").value(), 1u);
  const Json snap = reg.snapshotJson();
  const Json* hist = snap.find("histograms")->find("h.nan");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("nan_dropped")->asInt(), 1);
  EXPECT_EQ(hist->find("count")->asInt(), 1);
}

TEST(Metrics, RegistryFindOrCreateKeepsIdentity) {
  Registry reg;
  Counter& a = reg.counter("x");
  a.add(3);
  EXPECT_EQ(&reg.counter("x"), &a);
  EXPECT_EQ(reg.counter("x").value(), 3u);
  reg.reset();
  EXPECT_EQ(a.value(), 0u);  // reset zeroes but does not invalidate
  a.inc();
  EXPECT_EQ(reg.counter("x").value(), 1u);
}

TEST(Metrics, SnapshotJsonShape) {
  Registry reg;
  reg.counter("c.one").add(2);
  reg.gauge("g.pct").set(62.5);
  reg.histogram("h.secs", {1.0, 10.0}).observe(3.0);
  const Json snap = reg.snapshotJson();
  const Json* counters = snap.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("c.one"), nullptr);
  EXPECT_EQ(counters->find("c.one")->asInt(), 2);
  EXPECT_DOUBLE_EQ(snap.find("gauges")->find("g.pct")->asNumber(), 62.5);
  const Json* hist = snap.find("histograms")->find("h.secs");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("count")->asInt(), 1);
  EXPECT_EQ(hist->find("counts")->items().size(), 3u);
  // Snapshot text parses back - the artifact pipeline depends on it.
  EXPECT_TRUE(Json::parse(snap.dump(2)).has_value());
}

// --- trace ----------------------------------------------------------------

TEST(Trace, ChromeTraceJsonRoundTrips) {
  TraceBuffer buffer(16);
  {
    Span outer{"campaign", {{"model", "pulse"}}, buffer};
    Span inner{"inject", {}, buffer};
  }
  ASSERT_EQ(buffer.size(), 2u);

  const std::string text = buffer.chromeTraceJson().dump();
  std::string error;
  const auto parsed = Json::parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const Json* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items().size(), 2u);
  // Spans close innermost-first.
  const Json& first = events->items()[0];
  EXPECT_EQ(first.find("name")->asString(), "inject");
  EXPECT_EQ(first.find("ph")->asString(), "X");
  ASSERT_NE(first.find("ts"), nullptr);
  ASSERT_NE(first.find("dur"), nullptr);
  const Json& second = events->items()[1];
  EXPECT_EQ(second.find("name")->asString(), "campaign");
  EXPECT_EQ(second.find("args")->find("model")->asString(), "pulse");
  EXPECT_EQ(parsed->find("displayTimeUnit")->asString(), "ms");
}

TEST(Trace, RingBufferEvictsOldestAndCounts) {
  TraceBuffer buffer(2);
  for (int i = 0; i < 5; ++i) {
    Span s{"s" + std::to_string(i), {}, buffer};
  }
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.dropped(), 3u);
  const auto spans = buffer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "s3");
  EXPECT_EQ(spans[1].name, "s4");
}

TEST(Trace, DisabledBufferRecordsNothing) {
  TraceBuffer buffer(8);
  buffer.setEnabled(false);
  { Span s{"ignored", {}, buffer}; }
  EXPECT_EQ(buffer.size(), 0u);
}

// --- concurrency stress ---------------------------------------------------
//
// The sharded campaign runner hammers the metrics registry, trace buffer
// and logger from every worker; these tests pin down the exact-total
// guarantees the instruments make under concurrency (and give TSan
// something to chew on).

TEST(MetricsStress, ConcurrentUpdatesProduceExactTotals) {
  Registry reg;
  Counter& counter = reg.counter("stress.count");
  Gauge& gauge = reg.gauge("stress.gauge");
  Histogram& hist = reg.histogram("stress.hist", {1.0, 4.0});

  constexpr unsigned kThreads = 8;
  constexpr unsigned kPerThread = 5000;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (unsigned i = 0; i < kPerThread; ++i) {
        counter.inc();
        gauge.set(static_cast<double>(t));
        hist.observe(1.0);  // integral values sum exactly in a double
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  EXPECT_EQ(hist.count(), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(hist.sum(), static_cast<double>(kThreads * kPerThread));
  const auto counts = hist.counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], kThreads * kPerThread);  // every observation <= 1.0
  const double g = gauge.value();
  EXPECT_GE(g, 0.0);
  EXPECT_LT(g, static_cast<double>(kThreads));
  // A snapshot taken after the storm reflects the settled totals.
  const Json snap = reg.snapshotJson();
  EXPECT_EQ(snap.find("counters")->find("stress.count")->asInt(),
            static_cast<std::int64_t>(kThreads * kPerThread));
}

TEST(MetricsStress, ConcurrentFindOrCreateYieldsOneInstrument) {
  Registry reg;
  std::vector<std::thread> threads;
  std::vector<Counter*> seen(8, nullptr);
  for (unsigned t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Counter& c = reg.counter("shared.counter");
      c.add(100);
      seen[t] = &c;
    });
  }
  for (auto& th : threads) th.join();
  for (unsigned t = 1; t < 8; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(reg.counter("shared.counter").value(), 800u);
}

TEST(TraceStress, ConcurrentSpansWithEnableToggleStayConsistent) {
  TraceBuffer buffer(1024);
  std::atomic<bool> stop{false};
  // One thread flips the enable flag (the path that used to be a plain
  // bool - a data race under concurrent record()) while workers emit spans.
  std::thread toggler([&] {
    while (!stop.load()) {
      buffer.setEnabled(false);
      buffer.setEnabled(true);
    }
  });
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (unsigned i = 0; i < 2000; ++i) {
        Span s{"w" + std::to_string(t), {{"i", std::to_string(i)}}, buffer};
      }
    });
  }
  for (auto& th : workers) th.join();
  stop.store(true);
  toggler.join();
  buffer.setEnabled(true);

  // Disabled windows may have swallowed spans, but the accounting must
  // stay coherent: size bounded by capacity, recorded + dropped <= emitted,
  // and the snapshot serializes cleanly.
  EXPECT_LE(buffer.size(), 1024u);
  EXPECT_LE(buffer.size() + buffer.dropped(), 4u * 2000u);
  EXPECT_TRUE(Json::parse(buffer.chromeTraceJson().dump()).has_value());
}

TEST(LogStress, ConcurrentLoggingDeliversEveryRecord) {
  SinkCapture capture;
  constexpr unsigned kThreads = 6;
  constexpr unsigned kPerThread = 500;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (unsigned i = 0; i < kPerThread; ++i) {
        FADES_LOG(Info) << "stress" << kv("thread", t) << kv("i", i);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(capture.records().size(), kThreads * kPerThread);
}

// --- run artifacts --------------------------------------------------------

RunArtifact sampleArtifact() {
  RunArtifact a("campaign", "demo");
  Json spec = Json::object();
  spec.set("model", Json("pulse"));
  spec.set("experiments", Json(2));
  a.setSpec(spec);
  for (int i = 0; i < 2; ++i) {
    Json rec = Json::object();
    rec.set("target", Json("lut:" + std::to_string(i)));
    rec.set("outcome", Json("silent"));
    a.addRecord(rec);
  }
  Json metrics = Json::object();
  metrics.set("counters", Json::object());
  a.setMetrics(metrics);
  Json cost = Json::object();
  cost.set("config_seconds", Json(1.5));
  a.setCost(cost);
  return a;
}

TEST(Artifact, SchemaAndSectionOrderAreStable) {
  const Json j = sampleArtifact().toJson();
  EXPECT_EQ(j.find("schema")->asString(), "fades.run/1");
  EXPECT_EQ(j.find("kind")->asString(), "campaign");
  EXPECT_EQ(j.find("name")->asString(), "demo");
  // Consumers rely on the top-level member order staying put.
  std::vector<std::string> keys;
  for (const auto& [k, v] : j.members()) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::string>{"schema", "kind", "name", "spec",
                                            "records", "metrics", "cost"}));
  EXPECT_EQ(j.find("records")->items().size(), 2u);
}

TEST(Artifact, JsonlLinesAllParse) {
  const std::string jsonl = sampleArtifact().toJsonl();
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    const auto nl = jsonl.find('\n', start);
    lines.push_back(jsonl.substr(start, nl - start));
    if (nl == std::string::npos) break;
    start = nl + 1;
  }
  ASSERT_EQ(lines.size(), 4u);  // header + 2 records + summary
  for (const auto& line : lines) {
    EXPECT_TRUE(Json::parse(line).has_value()) << line;
  }
  const auto header = Json::parse(lines[0]);
  EXPECT_EQ(header->find("schema")->asString(), "fades.run/1");
  const auto record = Json::parse(lines[1]);
  ASSERT_NE(record->find("record"), nullptr);
  EXPECT_EQ(record->find("record")->find("target")->asString(), "lut:0");
}

TEST(Artifact, WriteJsonRoundTripsThroughDisk) {
  const std::string path = ::testing::TempDir() + "/fades_artifact.json";
  sampleArtifact().writeJson(path);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  const auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("schema")->asString(), "fades.run/1");
}

}  // namespace
}  // namespace fades::obs
