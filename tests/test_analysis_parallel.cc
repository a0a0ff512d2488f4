/**
 * @file
 * Differential tests of the parallel single-trace analysis engine.
 *
 * The engine's contract is exact: every analysis artifact — the race
 * list, partitions, SCP verdict, text and JSON reports — must be
 * BYTE-IDENTICAL at every thread count.  Each suite here runs the
 * same input at threads ∈ {1, 2, 4, 8} and compares outputs:
 *
 *  - AnalysisParallel.*:     figure traces, random-program traces,
 *                            serialization round-trips, salvaged
 *                            segmented traces, large synthetic traces;
 *  - ReachabilityParallel.*: the level-parallel clock build is
 *                            bit-identical to the serial one and
 *                            actually engages on wide condensations;
 *  - RaceFinderSharding.*:   shard merge determinism, and one race
 *                            per pair listing every racing word;
 *  - BatchBudget.*:          `batch` splits its budget between
 *                            inter- and intra-trace parallelism, and
 *                            nested parallelism stays deterministic
 *                            (this suite doubles as the TSan entry
 *                            together with AnalysisParallel.*).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "detect/report.hh"
#include "hb/hb_graph.hh"
#include "hb/reachability.hh"
#include "pipeline/aggregate_report.hh"
#include "pipeline/batch_runner.hh"
#include "sim/executor.hh"
#include "trace/segmented_io.hh"
#include "trace/trace_io.hh"
#include "workload/random_gen.hh"
#include "workload/scenarios.hh"
#include "workload/synthetic_trace.hh"

namespace fs = std::filesystem;

namespace wmr {
namespace {

constexpr unsigned kThreadCounts[] = {2, 4, 8};

/** Render every deterministic artifact of one analysis as text. */
std::string
artifactsOf(const DetectionResult &det)
{
    std::string out = formatReport(det, nullptr, {.showEvents = true});
    out += "races:";
    for (const auto &r : det.races()) {
        out += " (" + std::to_string(r.a) + "," + std::to_string(r.b) +
               ":" + (r.isDataRace ? "d" : "g");
        for (const Addr a : r.addrs)
            out += " " + std::to_string(a);
        out += ")";
    }
    out += "\npartitions:";
    for (const auto &part : det.partitions().partitions) {
        out += " [";
        for (const RaceId r : part.races)
            out += std::to_string(r) + " ";
        out += part.first ? "F]" : "]";
    }
    return out;
}

/** Analyze @p trace at several thread counts; all artifacts must
 *  equal the serial run's. */
void
expectIdenticalAcrossThreads(const ExecutionTrace &trace,
                             const char *what)
{
    AnalysisOptions serial;
    serial.threads = 1;
    const DetectionResult base = analyzeTrace(trace, serial);
    const std::string expected = artifactsOf(base);
    for (const unsigned n : kThreadCounts) {
        AnalysisOptions opts;
        opts.threads = n;
        const DetectionResult det = analyzeTrace(trace, opts);
        EXPECT_EQ(det.stats().threads, n);
        EXPECT_EQ(artifactsOf(det), expected)
            << what << " diverged at threads=" << n;
    }
}

// ---------------------------------------------------------------
// AnalysisParallel: end-to-end differential runs.
// ---------------------------------------------------------------

TEST(AnalysisParallel, Figure1aViolationTrace)
{
    const Scenario sc = stageFigure1aViolation();
    const auto trace =
        buildTrace(sc.result, {.keepMemberOps = true});
    // Sanity: the staged violation really races.
    AnalysisOptions opts;
    opts.threads = 8;
    EXPECT_TRUE(analyzeTrace(trace, opts).anyDataRace());
    expectIdenticalAcrossThreads(trace, "figure1a");
}

TEST(AnalysisParallel, Figure2bQueueTrace)
{
    const Scenario sc = stageFigure2bExecution();
    expectIdenticalAcrossThreads(
        buildTrace(sc.result, {.keepMemberOps = true}), "figure2b");
}

TEST(AnalysisParallel, RandomProgramTraces)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const Program prog = seed % 2 == 0
                                 ? randomRacyProgram(seed)
                                 : randomRaceFreeProgram(seed);
        ExecOptions eopts;
        eopts.model = ModelKind::WO;
        eopts.seed = seed;
        const auto res = runProgram(prog, eopts);
        expectIdenticalAcrossThreads(
            buildTrace(res, {.keepMemberOps = true}), "random");
    }
}

TEST(AnalysisParallel, SerializationRoundTripTrace)
{
    // The `check` path: a trace that went through the on-disk format
    // (member ops dropped) analyzed post-mortem.
    const Program prog = randomRacyProgram(17);
    ExecOptions eopts;
    eopts.model = ModelKind::WO;
    eopts.seed = 17;
    const auto res = runProgram(prog, eopts);
    const auto bytes =
        serializeSegmentedTrace(buildTrace(res, {.keepMemberOps = true}));
    const auto parsed = tryDeserializeTrace(bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    expectIdenticalAcrossThreads(parsed.trace, "round-trip");
}

TEST(AnalysisParallel, SalvagedSegmentedTrace)
{
    // The damaged-recording path: a segmented trace missing its tail,
    // recovered by the salvage reader, must analyze identically too.
    const Program prog = randomRacyProgram(23);
    ExecOptions eopts;
    eopts.model = ModelKind::WO;
    eopts.seed = 23;
    const auto res = runProgram(prog, eopts);
    auto bytes = serializeSegmentedTrace(
        buildTrace(res, {.keepMemberOps = true}), 2);
    ASSERT_GT(bytes.size(), 32u);
    bytes.resize(bytes.size() - 9); // tear the final segment
    const auto salvaged = trySalvageTrace(bytes);
    ASSERT_TRUE(salvaged.ok()) << salvaged.error;
    ASSERT_TRUE(salvaged.salvage.salvaged);
    ASSERT_GT(salvaged.trace.events().size(), 0u);
    expectIdenticalAcrossThreads(salvaged.trace, "salvaged");
}

TEST(AnalysisParallel, LargeSyntheticTraces)
{
    // Big enough to actually shard, hot enough to generate plenty of
    // candidate pairs, and two very different shapes: deep (few
    // procs, long po chains) and wide (many procs, short chains —
    // the level-parallel clock regime).
    SyntheticTraceOptions deep;
    deep.procs = 4;
    deep.eventsPerProc = 600;
    deep.memWords = 192;
    deep.hotFraction = 0.1; // candidate count ~ (hot accessors)^2
    deep.seed = 5;
    expectIdenticalAcrossThreads(makeSyntheticTrace(deep), "deep");

    SyntheticTraceOptions wide;
    wide.procs = 16;
    wide.eventsPerProc = 60;
    wide.memWords = 256;
    wide.hotFraction = 0.2;
    wide.seed = 6;
    const auto trace = makeSyntheticTrace(wide);
    AnalysisOptions opts;
    opts.threads = 4;
    EXPECT_GT(analyzeTrace(trace, opts).races().size(), 0u);
    expectIdenticalAcrossThreads(trace, "wide");
}

TEST(AnalysisParallel, ZeroMeansHardwareConcurrency)
{
    SyntheticTraceOptions small;
    small.procs = 2;
    small.eventsPerProc = 50;
    small.seed = 9;
    const auto trace = makeSyntheticTrace(small);
    AnalysisOptions opts;
    opts.threads = 0;
    const DetectionResult det = analyzeTrace(trace, opts);
    EXPECT_GE(det.stats().threads, 1u);
    AnalysisOptions serial;
    serial.threads = 1;
    EXPECT_EQ(artifactsOf(det),
              artifactsOf(analyzeTrace(trace, serial)));
}

// ---------------------------------------------------------------
// ReachabilityParallel: the level-parallel clock build.
// ---------------------------------------------------------------

TEST(ReachabilityParallel, WideCondensationEngagesAndMatchesSerial)
{
    // Wide shape: 256 procs x 32 events = 8192 components (above the
    // engagement floor) in ~32 levels => avg width ~256.
    SyntheticTraceOptions wide;
    wide.procs = 256;
    wide.eventsPerProc = 32;
    wide.memWords = 128;
    wide.syncFraction = 0.1;
    wide.seed = 11;
    const auto trace = makeSyntheticTrace(wide);
    const HbGraph hb(trace);

    const ReachabilityIndex serial(hb, trace, 1);
    const ReachabilityIndex parallel(hb, trace, 4);
    EXPECT_FALSE(serial.buildStats().parallelClocks);
    EXPECT_TRUE(parallel.buildStats().parallelClocks)
        << "wide condensation should take the level-parallel path";
    EXPECT_EQ(serial.buildStats().components,
              parallel.buildStats().components);

    // Exhaustive over a sample grid, plus every po-adjacent pair.
    const EventId n =
        static_cast<EventId>(trace.events().size());
    const EventId stride = n / 97 + 1;
    for (EventId a = 0; a < n; a += stride) {
        for (EventId b = 0; b < n; b += stride) {
            ASSERT_EQ(serial.reaches(a, b), parallel.reaches(a, b))
                << a << " -> " << b;
            ASSERT_EQ(serial.ordered(a, b), parallel.ordered(a, b))
                << a << " <> " << b;
        }
    }
}

TEST(ReachabilityParallel, NarrowCondensationFallsBackToSerial)
{
    // Deep shape: 2 procs x 600 events => levels ~ chain length, avg
    // width ~2 — the parallel path must decline (and still be right).
    SyntheticTraceOptions deep;
    deep.procs = 2;
    deep.eventsPerProc = 600;
    deep.seed = 12;
    const auto trace = makeSyntheticTrace(deep);
    const HbGraph hb(trace);
    const ReachabilityIndex reach(hb, trace, 8);
    EXPECT_FALSE(reach.buildStats().parallelClocks);
}

// ---------------------------------------------------------------
// RaceFinderSharding: per-word hits merge into canonical races.
// ---------------------------------------------------------------

/** Two procs, each: comp event writing words [10, 10+span), then a
 *  sync on word 0 (P0 release write, P1 acquire read).  The acquire
 *  is not paired with the release, so the comp events race. */
ExecutionTrace
twoProcConflictTrace(Addr span)
{
    ExecutionTrace trace;
    trace.setShape(2, 10 + span);

    Event c0;
    c0.kind = EventKind::Computation;
    c0.proc = 0;
    for (Addr a = 0; a < span; ++a)
        c0.writeSet.push_back(10 + a);
    c0.opCount = static_cast<std::uint32_t>(span);
    trace.addEvent(std::move(c0));

    Event rel;
    rel.kind = EventKind::Sync;
    rel.proc = 0;
    rel.syncOp.proc = 0;
    rel.syncOp.sync = true;
    rel.syncOp.kind = OpKind::Write;
    rel.syncOp.release = true;
    rel.syncOp.addr = 0;
    trace.addEvent(std::move(rel));

    Event acq;
    acq.kind = EventKind::Sync;
    acq.proc = 1;
    acq.syncOp.proc = 1;
    acq.syncOp.sync = true;
    acq.syncOp.kind = OpKind::Read;
    acq.syncOp.acquire = true;
    acq.syncOp.addr = 0;
    trace.addEvent(std::move(acq));

    Event c1;
    c1.kind = EventKind::Computation;
    c1.proc = 1;
    for (Addr a = 0; a < span; ++a)
        c1.writeSet.push_back(10 + a);
    c1.opCount = static_cast<std::uint32_t>(span);
    trace.addEvent(std::move(c1));

    trace.setTotalOps(2 * span + 2);
    return trace;
}

TEST(RaceFinderSharding, RacingPairListsEveryWord)
{
    // The comp events race on 12 words: one race listing all 12,
    // after one oracle query per word.
    const auto trace = twoProcConflictTrace(12);
    const HbGraph hb(trace);
    const ReachabilityIndex reach(hb, trace);

    RaceFinderStats stats;
    const auto races = findRaces(trace, reach, {}, 1, &stats);
    ASSERT_EQ(races.size(), 1u);
    std::vector<Addr> words;
    for (Addr a = 0; a < 12; ++a)
        words.push_back(10 + a);
    EXPECT_EQ(races[0].addrs, words);
    EXPECT_EQ(stats.candidatePairs, 12u);
    EXPECT_EQ(stats.reachQueries, 12u);
    EXPECT_EQ(stats.orderedPairs, 0u);
}

TEST(RaceFinderSharding, ShardedMergeMatchesSerial)
{
    // A pair conflicting on words in DIFFERENT shards is enumerated
    // by each; the sort of all hits must gather its words into the
    // same canonical race the serial path finds.
    const auto trace = twoProcConflictTrace(12);
    const HbGraph hb(trace);
    const ReachabilityIndex reach(hb, trace);

    const auto serial = findRaces(trace, reach, {}, 1);
    for (const unsigned n : kThreadCounts) {
        RaceFinderStats stats;
        const auto sharded = findRaces(trace, reach, {}, n, &stats);
        ASSERT_EQ(sharded.size(), serial.size());
        for (std::size_t i = 0; i < sharded.size(); ++i) {
            EXPECT_EQ(sharded[i].a, serial[i].a);
            EXPECT_EQ(sharded[i].b, serial[i].b);
            EXPECT_EQ(sharded[i].addrs, serial[i].addrs);
            EXPECT_EQ(sharded[i].isDataRace, serial[i].isDataRace);
        }
        EXPECT_GE(stats.shards, 1u);
    }
}

// ---------------------------------------------------------------
// BatchBudget: inter-/intra-trace budget split + nested parallelism.
// ---------------------------------------------------------------

/** A fresh temp directory, removed on destruction. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_(fs::temp_directory_path() /
                (tag + "." + std::to_string(::getpid())))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }

    ~TempDir() { fs::remove_all(path_); }

    const fs::path &path() const { return path_; }

  private:
    fs::path path_;
};

/** Write @p count serialized synthetic traces into @p dir. */
CorpusScan
writeSyntheticCorpus(const fs::path &dir, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i) {
        SyntheticTraceOptions opts;
        opts.procs = 3;
        opts.eventsPerProc = 80;
        opts.seed = 100 + i;
        const auto bytes =
            serializeSegmentedTrace(makeSyntheticTrace(opts));
        std::ofstream out(dir / ("t" + std::to_string(i) + ".trace"),
                          std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }
    return scanCorpus(dir.string());
}

TEST(BatchBudget, LeftoverBudgetBecomesAnalysisThreads)
{
    TempDir dir("wmr_budget_split");
    const CorpusScan corpus = writeSyntheticCorpus(dir.path(), 2);
    ASSERT_TRUE(corpus.ok()) << corpus.error;

    BatchOptions opts;
    opts.jobs = 8;
    const auto batch = runBatch(corpus, opts);
    EXPECT_EQ(batch.metrics.jobs, 2u);
    EXPECT_EQ(batch.metrics.analysisThreads, 4u);
    EXPECT_EQ(batch.metrics.analyzed, 2u);
}

TEST(BatchBudget, ExplicitAnalysisThreadsWin)
{
    TempDir dir("wmr_budget_explicit");
    const CorpusScan corpus = writeSyntheticCorpus(dir.path(), 2);
    ASSERT_TRUE(corpus.ok()) << corpus.error;

    BatchOptions opts;
    opts.jobs = 8;
    opts.analysis.threads = 2;
    const auto batch = runBatch(corpus, opts);
    EXPECT_EQ(batch.metrics.jobs, 2u);
    EXPECT_EQ(batch.metrics.analysisThreads, 2u);
}

TEST(BatchBudget, LargeCorpusKeepsAnalysisSerial)
{
    TempDir dir("wmr_budget_large");
    const CorpusScan corpus = writeSyntheticCorpus(dir.path(), 6);
    ASSERT_TRUE(corpus.ok()) << corpus.error;

    BatchOptions opts;
    opts.jobs = 4;
    const auto batch = runBatch(corpus, opts);
    EXPECT_EQ(batch.metrics.jobs, 4u);
    EXPECT_EQ(batch.metrics.analysisThreads, 1u);
}

TEST(BatchBudget, NestedParallelismIsDeterministic)
{
    // Batch workers running multi-threaded analyzeTrace() inside —
    // the deepest nesting the pipeline supports.  Reports must still
    // match the fully serial run byte for byte.  (Run under
    // WMR_SANITIZE=thread this is also the TSan race check for the
    // nested pools.)
    TempDir dir("wmr_budget_nested");
    const CorpusScan corpus = writeSyntheticCorpus(dir.path(), 3);
    ASSERT_TRUE(corpus.ok()) << corpus.error;

    BatchOptions serial;
    serial.jobs = 1;
    serial.analysis.threads = 1;
    const auto base = runBatch(corpus, serial);
    const std::string baseText = formatBatchReport(base, {});
    const std::string baseJson = batchReportJson(base);

    BatchOptions nested;
    nested.jobs = 3;
    nested.analysis.threads = 4;
    const auto batch = runBatch(corpus, nested);
    EXPECT_EQ(formatBatchReport(batch, {}), baseText);
    EXPECT_EQ(batchReportJson(batch), baseJson);
    EXPECT_GT(batch.metrics.candidatePairs, 0u);
}

} // namespace
} // namespace wmr
