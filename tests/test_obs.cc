/**
 * @file
 * The observability layer (src/obs): registry semantics and
 * concurrency, span nesting, exporter validity (parsed with the
 * tests' own JSON parser, never regexes), the batch metrics JSON v2
 * schema lock, and the contract that enabling observability cannot
 * change one byte of an analysis report.
 *
 * The ObsE2E suite doubles as the validator of the CLI `--trace-out`
 * CTest entries: it reads the file named by WMR_OBS_E2E_FILE (set by
 * tests/CMakeLists.txt) and skips when run without one.
 */

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "detect/analysis.hh"
#include "detect/report.hh"
#include "obs/export.hh"
#include "obs/obs.hh"
#include "pipeline/metrics.hh"
#include "workload/synthetic_trace.hh"

#include "json_mini.hh"

using namespace wmr;

namespace {

/** Enable collection for one test, restoring "off" on exit. */
struct ScopedObs
{
    ScopedObs()
    {
        obs::resetForTest();
        obs::setEnabled(true);
    }
    ~ScopedObs() { obs::setEnabled(false); }
};

/** The calling thread's spans from a fresh snapshot (empty if the
 *  thread never recorded). */
std::vector<obs::SpanSample>
mySpans()
{
    // This thread's log is the one whose spans we created last; find
    // it by looking for the test-specific span names instead of
    // guessing tids (other tests' threads may be in the snapshot).
    for (const auto &t : obs::spanSnapshot()) {
        if (!t.spans.empty())
            return t.spans;
    }
    return {};
}

// ---------------------------------------------------------------
// Counter registry.
// ---------------------------------------------------------------

TEST(ObsRegistry, CounterAccumulates)
{
    obs::resetForTest();
    obs::Counter c = obs::counter("test.reg.acc");
    ASSERT_TRUE(c.valid());
    c.add(5);
    c.inc();
    EXPECT_EQ(c.value(), 6u);
}

TEST(ObsRegistry, SameNameSharesOneCell)
{
    obs::resetForTest();
    obs::Counter a = obs::counter("test.reg.shared");
    obs::Counter b = obs::counter("test.reg.shared");
    a.add(3);
    b.add(4);
    EXPECT_EQ(a.value(), 7u);
    EXPECT_EQ(b.value(), 7u);
}

TEST(ObsRegistry, GaugeSetAndMax)
{
    obs::resetForTest();
    obs::Counter g = obs::gauge("test.reg.gauge");
    g.set(10);
    g.max(7); // below: no effect
    EXPECT_EQ(g.value(), 10u);
    g.max(42);
    EXPECT_EQ(g.value(), 42u);

    bool seen = false;
    for (const auto &s : obs::counterSnapshot()) {
        if (s.name == "test.reg.gauge") {
            seen = true;
            EXPECT_TRUE(s.isGauge);
            EXPECT_EQ(s.value, 42u);
        }
    }
    EXPECT_TRUE(seen);
}

TEST(ObsRegistry, ConcurrentRegistrationAndIncrementsAreExact)
{
    obs::resetForTest();
    constexpr int kThreads = 8;
    constexpr int kIncrements = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            // Every thread registers the SHARED name (racing the
            // claim CAS) plus its own private one.
            obs::Counter shared =
                obs::counter("test.reg.contended");
            const std::string mine =
                "test.reg.private." + std::to_string(t);
            obs::Counter priv = obs::counter(mine.c_str());
            for (int i = 0; i < kIncrements; ++i) {
                shared.inc();
                priv.inc();
            }
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(obs::counter("test.reg.contended").value(),
              static_cast<std::uint64_t>(kThreads) * kIncrements);
    for (int t = 0; t < kThreads; ++t) {
        const std::string mine =
            "test.reg.private." + std::to_string(t);
        EXPECT_EQ(obs::counter(mine.c_str()).value(),
                  static_cast<std::uint64_t>(kIncrements))
            << mine;
    }
}

// ---------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------

TEST(ObsSpans, DisabledRecordsNothing)
{
    obs::resetForTest();
    obs::setEnabled(false);
    {
        obs::Span s("test.span.invisible");
        EXPECT_FALSE(s.recording());
    }
    for (const auto &t : obs::spanSnapshot())
        EXPECT_TRUE(t.spans.empty());
}

TEST(ObsSpans, NestingDepthsAndContainment)
{
    ScopedObs on;
    {
        obs::Span outer("test.span.outer");
        { obs::Span inner1("test.span.inner1"); }
        { obs::Span inner2("test.span.inner2"); }
    }
    const auto spans = mySpans();
    ASSERT_EQ(spans.size(), 3u);

    // Spans are logged at END, so the children precede the parent.
    EXPECT_EQ(spans[0].name, "test.span.inner1");
    EXPECT_EQ(spans[1].name, "test.span.inner2");
    EXPECT_EQ(spans[2].name, "test.span.outer");
    EXPECT_EQ(spans[0].depth, 1u);
    EXPECT_EQ(spans[1].depth, 1u);
    EXPECT_EQ(spans[2].depth, 0u);

    // Children are contained in the parent's interval and do not
    // overlap each other.
    const auto &outer = spans[2];
    for (int i = 0; i < 2; ++i) {
        EXPECT_GE(spans[i].startNs, outer.startNs);
        EXPECT_LE(spans[i].startNs + spans[i].durNs,
                  outer.startNs + outer.durNs);
    }
    EXPECT_LE(spans[0].startNs + spans[0].durNs, spans[1].startNs);
}

TEST(ObsSpans, DepthRecoversAfterUnwind)
{
    ScopedObs on;
    {
        obs::Span a("test.span.a");
        { obs::Span b("test.span.b"); }
    }
    { obs::Span c("test.span.c"); }
    const auto spans = mySpans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[2].name, "test.span.c");
    EXPECT_EQ(spans[2].depth, 0u); // not 1: the tree unwound
}

TEST(ObsSpans, AnnotateAttachesDetail)
{
    ScopedObs on;
    {
        obs::Span s("test.span.detail");
        ASSERT_TRUE(s.recording());
        s.annotate("payload \"quoted\"");
    }
    const auto spans = mySpans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].detail, "payload \"quoted\"");
}

TEST(ObsSpans, ThreadsKeepSeparateNamedLogs)
{
    ScopedObs on;
    std::thread worker([] {
        obs::setThreadName("test.worker");
        obs::Span s("test.span.on_worker");
    });
    worker.join();
    { obs::Span s("test.span.on_main"); }

    bool sawWorker = false, sawMain = false;
    for (const auto &t : obs::spanSnapshot()) {
        for (const auto &s : t.spans) {
            if (s.name == "test.span.on_worker") {
                sawWorker = true;
                EXPECT_EQ(t.name, "test.worker");
            }
            if (s.name == "test.span.on_main") {
                sawMain = true;
                EXPECT_NE(t.name, "test.worker");
            }
        }
    }
    EXPECT_TRUE(sawWorker);
    EXPECT_TRUE(sawMain);
}

TEST(ObsSpans, StagedSpanFillsSinkEvenWhenDisabled)
{
    obs::resetForTest();
    obs::setEnabled(false);
    double sink = 0.0;
    {
        obs::StagedSpan s("test.staged.off", sink);
    }
    EXPECT_GT(sink, 0.0); // stats structs need timing regardless
    for (const auto &t : obs::spanSnapshot())
        EXPECT_TRUE(t.spans.empty());

    obs::setEnabled(true);
    double sink2 = 0.0;
    {
        obs::StagedSpan s("test.staged.on", sink2);
    }
    obs::setEnabled(false);
    EXPECT_GT(sink2, 0.0);
    const auto spans = mySpans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].name, "test.staged.on");
}

// ---------------------------------------------------------------
// Exporters.
// ---------------------------------------------------------------

TEST(ObsExport, JsonEscapeCoversQuotesBackslashesAndControls)
{
    EXPECT_EQ(obs::jsonEscape("plain"), "plain");
    EXPECT_EQ(obs::jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(obs::jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(obs::jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(obs::jsonEscape(std::string("\x01", 1)), "\\u0001");
    EXPECT_EQ(obs::jsonEscape("\b\f\r"), "\\b\\f\\r");
}

TEST(ObsExport, ChromeTraceIsValidJsonWithSpansAndCounters)
{
    ScopedObs on;
    obs::setThreadName("test.exporter");
    {
        obs::Span s("test.export.span");
        s.annotate("path \"x\"\n");
    }
    obs::counter("test.export.count").add(12);
    obs::gauge("test.export.gauge").set(5);

    const auto doc = jsonmini::parse(obs::chromeTraceJson());
    ASSERT_TRUE(doc.ok) << doc.error;
    ASSERT_TRUE(doc.value.isObject());
    const auto *events = doc.value.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    bool sawSpan = false, sawCounter = false, sawThreadName = false;
    for (const auto &e : events->items) {
        ASSERT_TRUE(e.isObject());
        const auto *ph = e.find("ph");
        const auto *name = e.find("name");
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(name, nullptr);
        if (ph->str == "X" && name->str == "test.export.span") {
            sawSpan = true;
            EXPECT_TRUE(e.find("ts")->isNumber());
            EXPECT_TRUE(e.find("dur")->isNumber());
            EXPECT_TRUE(e.find("tid")->isNumber());
            const auto *args = e.find("args");
            ASSERT_NE(args, nullptr);
            EXPECT_EQ(args->find("detail")->str, "path \"x\"\n");
        }
        if (ph->str == "C" && name->str == "test.export.count")
            sawCounter = true;
        if (ph->str == "M" && name->str == "thread_name" &&
            e.find("args")->find("name")->str == "test.exporter")
            sawThreadName = true;
    }
    EXPECT_TRUE(sawSpan);
    EXPECT_TRUE(sawCounter);
    EXPECT_TRUE(sawThreadName);
}

TEST(ObsExport, JsonLinesEveryLineParses)
{
    ScopedObs on;
    {
        obs::Span s("test.export.jsonl");
    }
    obs::counter("test.export.jsonl_count").inc();

    std::istringstream in(obs::jsonLines());
    std::string line;
    std::size_t spans = 0, counters = 0;
    while (std::getline(in, line)) {
        const auto doc = jsonmini::parse(line);
        ASSERT_TRUE(doc.ok) << doc.error << " in line: " << line;
        ASSERT_TRUE(doc.value.isObject());
        const auto *type = doc.value.find("type");
        ASSERT_NE(type, nullptr);
        if (type->str == "span")
            ++spans;
        else if (type->str == "counter" || type->str == "gauge")
            ++counters;
    }
    EXPECT_GE(spans, 1u);
    EXPECT_GE(counters, 1u);
}

// ---------------------------------------------------------------
// Batch metrics JSON: the v2 schema is a stability contract.
// ---------------------------------------------------------------

TEST(MetricsSchema, V2KeySetAndTypesAreLocked)
{
    BatchMetrics m;
    m.jobs = 3;
    m.analysisThreads = 2;
    m.corpusTraces = 7;
    m.analyzed = 5;
    m.failed = 1;
    m.skipped = 1;
    m.resumed = 2;
    m.salvaged = 1;
    m.bytesRead = 12345;
    m.wallSeconds = 0.25;
    m.candidatePairs = 99;
    m.reachQueries = 88;
    m.peakQueueDepth = 4;

    const auto doc = jsonmini::parse(metricsJson(m));
    ASSERT_TRUE(doc.ok) << doc.error;
    ASSERT_TRUE(doc.value.isObject());

    // EXACT top-level key set, in order: additions, removals and
    // renames are all schema breaks and must bump "version".
    const std::vector<std::string> expected = {
        "schema",         "version",
        "jobs",           "analysis_threads",
        "corpus_traces",  "analyzed",
        "failed",         "skipped",
        "resumed",        "salvaged",
        "bytes_read",     "wall_seconds",
        "traces_per_second", "stage_seconds",
        "analysis_stage_seconds", "candidate_pairs",
        "reach_queries",  "peak_queue_depth",
    };
    EXPECT_EQ(doc.value.keys(), expected);

    EXPECT_EQ(doc.value.find("schema")->str, "wmrace-batch-metrics");
    EXPECT_EQ(doc.value.find("version")->number, 2.0);
    for (const auto &[key, val] : doc.value.fields) {
        if (key == "schema")
            continue;
        if (key == "stage_seconds" ||
            key == "analysis_stage_seconds") {
            EXPECT_TRUE(val.isObject()) << key;
            continue;
        }
        EXPECT_TRUE(val.isNumber()) << key;
    }

    const auto *stages = doc.value.find("stage_seconds");
    EXPECT_EQ(stages->keys(),
              (std::vector<std::string>{"read", "parse", "analyze"}));
    const auto *astages = doc.value.find("analysis_stage_seconds");
    EXPECT_EQ(astages->keys(),
              (std::vector<std::string>{"graph_build", "reachability",
                                        "race_find", "augment",
                                        "partition", "scp"}));
    for (const auto &[k, v] : stages->fields)
        EXPECT_TRUE(v.isNumber()) << k;
    for (const auto &[k, v] : astages->fields)
        EXPECT_TRUE(v.isNumber()) << k;

    EXPECT_EQ(doc.value.find("corpus_traces")->number, 7.0);
    EXPECT_EQ(doc.value.find("bytes_read")->number, 12345.0);
}

// ---------------------------------------------------------------
// The determinism contract: observability cannot change a report.
// ---------------------------------------------------------------

TEST(ObsDeterminism, ReportBytesIdenticalOnOffAtEveryThreadCount)
{
    SyntheticTraceOptions topts;
    topts.procs = 4;
    topts.eventsPerProc = 250;
    topts.seed = 17;
    const ExecutionTrace trace = makeSyntheticTrace(topts);

    std::string baseline;
    for (const unsigned threads : {1u, 2u, 4u}) {
        AnalysisOptions aopts;
        aopts.threads = threads;

        obs::resetForTest();
        obs::setEnabled(false);
        const std::string off =
            formatReport(analyzeTrace(trace, aopts), nullptr, {});

        obs::setEnabled(true);
        const std::string on =
            formatReport(analyzeTrace(trace, aopts), nullptr, {});
        obs::setEnabled(false);

        EXPECT_EQ(off, on) << "threads=" << threads;
        if (baseline.empty())
            baseline = off;
        EXPECT_EQ(off, baseline) << "threads=" << threads;
    }
}

// ---------------------------------------------------------------
// E2E validator: drives on files the CLI CTest entries produce.
// ---------------------------------------------------------------

/** The six analysis stages every Chrome trace of a check/batch run
 *  must show (the ISSUE's acceptance criterion). */
const std::set<std::string> kAnalysisStages = {
    "analysis.graph_build", "analysis.reachability",
    "analysis.race_find",   "analysis.augment",
    "analysis.partition",   "analysis.scp",
};

TEST(ObsE2E, TraceOutFileIsValidChromeTraceWithAllStages)
{
    const char *path = std::getenv("WMR_OBS_E2E_FILE");
    if (!path)
        GTEST_SKIP() << "WMR_OBS_E2E_FILE not set (CLI e2e only)";

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "cannot open " << path;
    std::stringstream buf;
    buf << in.rdbuf();

    const auto doc = jsonmini::parse(buf.str());
    ASSERT_TRUE(doc.ok) << doc.error;
    ASSERT_TRUE(doc.value.isObject());
    const auto *events = doc.value.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_FALSE(events->items.empty());

    std::set<std::string> spanNames;
    for (const auto &e : events->items) {
        ASSERT_TRUE(e.isObject());
        const auto *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->str != "X")
            continue;
        ASSERT_TRUE(e.find("ts")->isNumber());
        ASSERT_TRUE(e.find("dur")->isNumber());
        spanNames.insert(e.find("name")->str);
    }
    for (const auto &stage : kAnalysisStages)
        EXPECT_TRUE(spanNames.count(stage)) << "missing " << stage;

    // A check run must also show the report layers: model build,
    // render and the stdout write.
    if (std::getenv("WMR_OBS_E2E_REQUIRE_REPORT")) {
        for (const char *name :
             {"report.model", "report.render", "report.write"})
            EXPECT_TRUE(spanNames.count(name)) << "missing " << name;
    }

    // Batch runs must additionally show the worker scheduling spans.
    if (std::getenv("WMR_OBS_E2E_REQUIRE_BATCH")) {
        for (const char *name :
             {"batch.worker", "batch.trace", "batch.read",
              "batch.parse", "batch.analyze"})
            EXPECT_TRUE(spanNames.count(name)) << "missing " << name;
    }
}

// ---------------------------------------------------------------
// Registry exhaustion.  KEEP LAST: it deliberately fills the
// process-global 1024-cell table, so any counter a LATER test tried
// to register would come back as a no-op handle.  (Under ctest each
// test is its own process, but the binary must also pass run whole.)
// ---------------------------------------------------------------

TEST(ObsRegistryExhaustion, FullTableDegradesToNoopHandles)
{
    obs::resetForTest();
    const std::uint64_t before = obs::registryOverflows();
    std::vector<obs::Counter> handles;
    for (int i = 0; i < 1200; ++i) {
        const std::string name =
            "test.reg.flood." + std::to_string(i);
        handles.push_back(obs::counter(name.c_str()));
    }
    EXPECT_GT(obs::registryOverflows(), before);

    bool sawNull = false;
    for (auto &h : handles) {
        if (!h.valid()) {
            sawNull = true;
            h.add(7); // must be a safe no-op
            h.set(9);
            h.max(11);
            EXPECT_EQ(h.value(), 0u);
        }
    }
    EXPECT_TRUE(sawNull);
}

} // namespace
