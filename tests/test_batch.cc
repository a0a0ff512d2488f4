/**
 * @file
 * Tests of the batch analysis pipeline (src/pipeline) and the
 * recoverable trace_io error path it depends on:
 *
 *  - CorruptTrace.*:        truncated/bit-flipped legacy WMRTRC01
 *                           bytes come back as errors, never aborts
 *                           or OOB reads;
 *  - CorpusScanner.*:       directory and manifest discovery;
 *  - BatchPipeline.*:       graceful degradation, fail-fast, metrics;
 *  - BatchDeterminism.*:    text and JSON reports are byte-identical
 *                           for 1 and 8 worker threads (this suite is
 *                           also the ThreadSanitizer CTest entry);
 *  - BatchSalvage.*:        damaged segmented traces recovered (or
 *                           quarantined) per trace;
 *  - CheckpointJournal.*:   crash-tolerant --checkpoint resume;
 *  - AnalysisReentrancy.*:  analyzeTrace() is state-free across
 *                           threads.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>
#include <unistd.h>

#include "detect/report.hh"
#include "pipeline/aggregate_report.hh"
#include "pipeline/batch_runner.hh"
#include "pipeline/checkpoint.hh"
#include "pipeline/work_queue.hh"
#include "trace/segmented_io.hh"
#include "sim/executor.hh"
#include "trace/trace_io.hh"
#include "workload/random_gen.hh"

namespace fs = std::filesystem;

namespace wmr {
namespace {

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

/** Produce one serialized trace from a seeded random program. */
std::vector<std::uint8_t>
makeTraceBytes(std::uint64_t seed, bool racy = true)
{
    const Program prog =
        racy ? randomRacyProgram(seed) : randomRaceFreeProgram(seed);
    ExecOptions opts;
    opts.model = ModelKind::WO;
    opts.seed = seed;
    const auto res = runProgram(prog, opts);
    return serializeSegmentedTrace(buildTrace(res));
}

/** The bytes of a frozen legacy WMRTRC01 golden fixture. */
std::vector<std::uint8_t>
legacyTraceBytes(const char *name)
{
    std::ifstream in(std::string(WMR_GOLDEN_DIR) + "/" + name,
                     std::ios::binary);
    EXPECT_TRUE(in.good()) << name;
    return std::vector<std::uint8_t>(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
}

void
writeBytes(const fs::path &path, const std::vector<std::uint8_t> &b)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(b.data()),
              static_cast<std::streamsize>(b.size()));
    ASSERT_TRUE(out.good());
}

std::string
traceName(std::size_t i)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "t%03zu.trace", i);
    return buf;
}

/**
 * Write a mixed corpus: @p good traces (racy and race-free), one
 * truncated trace and one bad-magic file.  @return total file count.
 */
std::size_t
writeMixedCorpus(const fs::path &dir, std::size_t good)
{
    for (std::size_t i = 0; i < good; ++i) {
        const auto bytes = makeTraceBytes(1000 + i, i % 2 == 0);
        writeBytes(dir / traceName(i), bytes);
    }
    const auto donor = makeTraceBytes(42);
    std::vector<std::uint8_t> truncated(
        donor.begin(), donor.begin() + donor.size() / 2);
    writeBytes(dir / "x_truncated.trace", truncated);
    std::ofstream bad(dir / "y_garbage.trace");
    bad << "this is not a trace";
    bad.close();
    return good + 2;
}

// ---------------------------------------------------------------
// CorruptTrace: the legacy WMRTRC01 decoder behind the loader.  It
// has no checksum, so it must bound-check every field itself.
// ---------------------------------------------------------------

TEST(CorruptTrace, RoundTripStillWorks)
{
    // A frozen legacy fixture decodes to the same events as its
    // WMRSEG01 twin in the golden corpus.
    const auto res =
        tryDeserializeTrace(legacyTraceBytes("legacy_queue_wo_s5.trace"));
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_FALSE(res.segmented);
    EXPECT_GT(res.trace.events().size(), 0u);
    const auto twin = tryReadTraceFile(std::string(WMR_GOLDEN_DIR) +
                                       "/queue_wo_s5.trace");
    ASSERT_TRUE(twin.ok()) << twin.error;
    EXPECT_EQ(twin.trace.events().size(), res.trace.events().size());
}

TEST(CorruptTrace, EveryStrictTruncationIsAnError)
{
    const auto bytes = legacyTraceBytes("legacy_queue_wo_s5.trace");
    ASSERT_GT(bytes.size(), 32u);
    const std::size_t step =
        std::max<std::size_t>(1, bytes.size() / 64);
    for (std::size_t cut = 0; cut < bytes.size(); cut += step) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + cut);
        const auto res = tryDeserializeTrace(prefix);
        EXPECT_FALSE(res.ok()) << "cut at " << cut << " parsed OK";
        EXPECT_EQ(res.status, TraceIoStatus::FormatError);
        EXPECT_FALSE(res.error.empty());
    }
}

TEST(CorruptTrace, BitFlipsNeverAbort)
{
    const auto bytes = legacyTraceBytes("legacy_synth_hot.trace");
    for (std::size_t pos = 0; pos < bytes.size();
         pos += std::max<std::size_t>(1, bytes.size() / 97)) {
        auto flipped = bytes;
        flipped[pos] ^= static_cast<std::uint8_t>(1u << (pos % 8));
        // Must return — ok or error — never exit/abort/overrun.
        const auto res = tryDeserializeTrace(flipped);
        if (!res.ok()) {
            EXPECT_FALSE(res.error.empty());
        }
    }
}

TEST(CorruptTrace, BadMagicAndTrailingBytes)
{
    auto bytes = legacyTraceBytes("legacy_queue_wo_s5.trace");
    auto badMagic = bytes;
    badMagic[0] ^= 0xff;
    const auto r1 = tryDeserializeTrace(badMagic);
    ASSERT_FALSE(r1.ok());
    EXPECT_NE(r1.error.find("unrecognized magic"),
              std::string::npos);

    auto trailing = bytes;
    trailing.push_back(0);
    const auto r2 = tryDeserializeTrace(trailing);
    ASSERT_FALSE(r2.ok());
    EXPECT_NE(r2.error.find("trailing"), std::string::npos);
}

TEST(CorruptTrace, OversizedHeaderCountsAreErrorsNotOom)
{
    // Hand-build a header claiming 2^60 processors: must be a
    // recoverable error, not an allocation attempt.
    std::vector<std::uint8_t> bytes = {'W', 'M', 'R', 'T',
                                       'R', 'C', '0', '1'};
    for (int i = 0; i < 8; ++i)
        bytes.push_back(0x80 | 0x7f); // huge varint...
    bytes.push_back(0x0f);            // ...terminated (procs)
    bytes.push_back(0x01);            // memWords
    const auto res = tryDeserializeTrace(bytes);
    ASSERT_FALSE(res.ok());
    EXPECT_NE(res.error.find("too large"), std::string::npos);
}

TEST(CorruptTrace, MissingFileIsIoError)
{
    const auto res =
        tryReadTraceFile("/nonexistent/dir/nothing.trace");
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status, TraceIoStatus::IoError);
}

// ---------------------------------------------------------------
// CorpusScanner
// ---------------------------------------------------------------

TEST(CorpusScanner, DirectoryScanIsSortedAndFiltered)
{
    TempDir dir("wmr_corpus_scan");
    writeBytes(dir.path() / "b.trace", makeTraceBytes(2));
    writeBytes(dir.path() / "a.trace", makeTraceBytes(1));
    writeBytes(dir.path() / "c.bin", makeTraceBytes(3));
    std::ofstream(dir.path() / "notes.txt") << "ignored";

    const auto scan = scanCorpus(dir.path().string());
    ASSERT_TRUE(scan.ok()) << scan.error;
    ASSERT_EQ(scan.files.size(), 3u);
    EXPECT_FALSE(scan.fromManifest);
    // Sorted by path: a.trace < b.trace < c.bin.
    EXPECT_NE(scan.files[0].find("a.trace"), std::string::npos);
    EXPECT_NE(scan.files[1].find("b.trace"), std::string::npos);
    EXPECT_NE(scan.files[2].find("c.bin"), std::string::npos);
}

TEST(CorpusScanner, ManifestKeepsOrderAndResolvesRelative)
{
    TempDir dir("wmr_corpus_manifest");
    writeBytes(dir.path() / "one.trace", makeTraceBytes(1));
    writeBytes(dir.path() / "two.trace", makeTraceBytes(2));
    std::ofstream mf(dir.path() / "corpus.txt");
    mf << "# comment line\n"
       << "two.trace\n"
       << "\n"
       << "one.trace\n";
    mf.close();

    const auto scan =
        scanCorpus((dir.path() / "corpus.txt").string());
    ASSERT_TRUE(scan.ok()) << scan.error;
    EXPECT_TRUE(scan.fromManifest);
    ASSERT_EQ(scan.files.size(), 2u);
    EXPECT_NE(scan.files[0].find("two.trace"), std::string::npos);
    EXPECT_NE(scan.files[1].find("one.trace"), std::string::npos);
}

TEST(CorpusScanner, MissingAndEmptyCorpusAreErrors)
{
    EXPECT_FALSE(scanCorpus("/no/such/path/anywhere").ok());
    TempDir dir("wmr_corpus_empty");
    EXPECT_FALSE(scanCorpus(dir.path().string()).ok());
}

// ---------------------------------------------------------------
// BatchPipeline: graceful degradation and engine behavior.
// ---------------------------------------------------------------

TEST(BatchPipeline, CorruptTracesBecomePerTraceFailures)
{
    TempDir dir("wmr_batch_degrade");
    const std::size_t total = writeMixedCorpus(dir.path(), 6);
    const auto scan = scanCorpus(dir.path().string());
    ASSERT_TRUE(scan.ok()) << scan.error;
    ASSERT_EQ(scan.files.size(), total);

    BatchOptions opts;
    opts.jobs = 4;
    const auto batch = runBatch(scan, opts);
    ASSERT_EQ(batch.traces.size(), total);
    EXPECT_EQ(batch.numFailed(), 2u);
    EXPECT_EQ(batch.metrics.analyzed, 6u);
    EXPECT_EQ(batch.metrics.failed, 2u);
    EXPECT_EQ(batch.metrics.skipped, 0u);

    // The corrupt entries carry their reasons; the good ones their
    // summaries.
    for (const auto &tr : batch.traces) {
        if (tr.path.find("x_truncated") != std::string::npos) {
            EXPECT_EQ(tr.status, TraceRunStatus::FormatError);
            EXPECT_FALSE(tr.error.empty());
        } else if (tr.path.find("y_garbage") != std::string::npos) {
            EXPECT_EQ(tr.status, TraceRunStatus::FormatError);
            EXPECT_NE(tr.error.find("unrecognized magic"),
                      std::string::npos);
        } else {
            EXPECT_TRUE(tr.ok()) << tr.path << ": " << tr.error;
            EXPECT_GT(tr.events, 0u);
        }
    }
}

TEST(BatchPipeline, FailFastSkipsAfterFirstFailure)
{
    TempDir dir("wmr_batch_failfast");
    // Name the corrupt file so it sorts FIRST: with --jobs 1 every
    // later trace must then be skipped deterministically.
    std::ofstream(dir.path() / "000_bad.trace") << "garbage";
    for (std::size_t i = 0; i < 5; ++i)
        writeBytes(dir.path() / traceName(i),
                   makeTraceBytes(50 + i));

    const auto scan = scanCorpus(dir.path().string());
    ASSERT_TRUE(scan.ok());
    BatchOptions opts;
    opts.jobs = 1;
    opts.failFast = true;
    const auto batch = runBatch(scan, opts);
    EXPECT_EQ(batch.metrics.failed, 1u);
    EXPECT_EQ(batch.metrics.analyzed, 0u);
    EXPECT_EQ(batch.metrics.skipped, 5u);
    for (std::size_t i = 1; i < batch.traces.size(); ++i)
        EXPECT_EQ(batch.traces[i].status, TraceRunStatus::Skipped);
}

TEST(BatchPipeline, MetricsCountWork)
{
    TempDir dir("wmr_batch_metrics");
    writeMixedCorpus(dir.path(), 4);
    const auto scan = scanCorpus(dir.path().string());
    ASSERT_TRUE(scan.ok());
    BatchOptions opts;
    opts.jobs = 2;
    const auto batch = runBatch(scan, opts);
    EXPECT_EQ(batch.metrics.jobs, 2u);
    EXPECT_EQ(batch.metrics.corpusTraces, 6u);
    EXPECT_GT(batch.metrics.bytesRead, 0u);
    EXPECT_GT(batch.metrics.wallSeconds, 0.0);
    EXPECT_GE(batch.metrics.peakQueueDepth, 1u);
    // JSON renderings exist and carry the schema tags.
    EXPECT_NE(metricsJson(batch.metrics)
                  .find("wmrace-batch-metrics"),
              std::string::npos);
    EXPECT_NE(batchReportJson(batch).find("wmrace-batch-report"),
              std::string::npos);
}

TEST(BatchPipeline, WorkQueueTracksPeakDepthAndDrains)
{
    WorkQueue<int> q(8);
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(q.push(i));
    EXPECT_EQ(q.peakDepth(), 8u);
    q.close();
    EXPECT_FALSE(q.push(99));
    int v = -1;
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(q.pop(v));
        EXPECT_EQ(v, i);
    }
    EXPECT_FALSE(q.pop(v));
}

// ---------------------------------------------------------------
// BatchDeterminism: the --jobs invariance contract.  This suite is
// what the batch_determinism_tsan CTest entry runs under TSan.
// ---------------------------------------------------------------

TEST(BatchDeterminism, ReportsAreByteIdenticalAcrossJobCounts)
{
    TempDir dir("wmr_batch_determinism");
    // >= 20 traces incl. corrupt ones, per the pipeline contract.
    const std::size_t total = writeMixedCorpus(dir.path(), 22);
    ASSERT_GE(total, 20u);
    const auto scan = scanCorpus(dir.path().string());
    ASSERT_TRUE(scan.ok()) << scan.error;

    BatchOptions serial;
    serial.jobs = 1;
    BatchOptions parallel;
    parallel.jobs = 8;
    const auto a = runBatch(scan, serial);
    const auto b = runBatch(scan, parallel);

    EXPECT_EQ(a.metrics.jobs, 1u);
    EXPECT_EQ(b.metrics.jobs, 8u);
    EXPECT_EQ(formatBatchReport(a), formatBatchReport(b));
    EXPECT_EQ(batchReportJson(a), batchReportJson(b));
    // And the failure really is in there.
    EXPECT_EQ(a.numFailed(), 2u);
    EXPECT_NE(formatBatchReport(a).find("FAILED"),
              std::string::npos);
}

// ---------------------------------------------------------------
// BatchSalvage: damaged segmented traces in a corpus.
// ---------------------------------------------------------------

/** A segmented trace with its last @p chop bytes cut off. */
void
writeDamagedSegmented(const fs::path &path, std::uint64_t seed,
                      std::size_t chop)
{
    const Program prog = randomRacyProgram(seed);
    ExecOptions eopts;
    eopts.model = ModelKind::WO;
    eopts.seed = seed;
    const auto res = runProgram(prog, eopts);
    auto bytes = serializeSegmentedTrace(
        buildTrace(res, {.keepMemberOps = true}), 2);
    ASSERT_GT(bytes.size(), chop + 16);
    bytes.resize(bytes.size() - chop);
    writeBytes(path, bytes);
}

TEST(BatchSalvage, DamagedTraceFailsStrictButSalvages)
{
    TempDir dir("wmr_batch_salvage");
    writeBytes(dir.path() / "good.trace", makeTraceBytes(501));
    writeDamagedSegmented(dir.path() / "hurt.trace", 502, 9);
    const auto scan = scanCorpus(dir.path().string());
    ASSERT_TRUE(scan.ok()) << scan.error;

    BatchOptions strict;
    strict.jobs = 2;
    const auto a = runBatch(scan, strict);
    EXPECT_EQ(a.numFailed(), 1u);
    EXPECT_EQ(a.metrics.salvaged, 0u);

    BatchOptions tolerant;
    tolerant.jobs = 2;
    tolerant.salvage = true;
    const auto b = runBatch(scan, tolerant);
    EXPECT_EQ(b.numFailed(), 0u);
    EXPECT_EQ(b.metrics.salvaged, 1u);
    bool sawSalvaged = false;
    for (const auto &tr : b.traces) {
        if (tr.salvaged) {
            sawSalvaged = true;
            EXPECT_TRUE(tr.ok());
            EXPECT_GT(tr.events, 0u);
        }
    }
    EXPECT_TRUE(sawSalvaged);
    EXPECT_NE(formatBatchReport(b).find("[salvaged]"),
              std::string::npos);
    EXPECT_NE(batchReportJson(b).find("\"salvaged\": true"),
              std::string::npos);
}

TEST(BatchSalvage, UnsalvageableFileStillFails)
{
    // Magic + garbage: salvage recovers zero events, which must be
    // a failure (quarantine material), not an empty analysis.
    TempDir dir("wmr_batch_unsalvageable");
    std::vector<std::uint8_t> junk = {'W', 'M', 'R', 'S',
                                      'E', 'G', '0', '1'};
    for (int i = 0; i < 32; ++i)
        junk.push_back(static_cast<std::uint8_t>(i * 41));
    writeBytes(dir.path() / "junk.trace", junk);
    const auto scan = scanCorpus(dir.path().string());
    ASSERT_TRUE(scan.ok()) << scan.error;

    BatchOptions opts;
    opts.salvage = true;
    const auto batch = runBatch(scan, opts);
    EXPECT_EQ(batch.numFailed(), 1u);
    EXPECT_NE(batch.traces[0].error.find("recovered no events"),
              std::string::npos)
        << batch.traces[0].error;
}

TEST(BatchSalvage, QuarantineManifestIsReFeedable)
{
    TempDir dir("wmr_batch_quarantine");
    writeBytes(dir.path() / "a_good.trace", makeTraceBytes(601));
    std::ofstream bad1(dir.path() / "b_bad.trace");
    bad1 << "not a trace at all";
    bad1.close();
    std::ofstream bad2(dir.path() / "c_bad.trace");
    bad2 << "also not a trace";
    bad2.close();
    const auto scan = scanCorpus(dir.path().string());
    ASSERT_TRUE(scan.ok()) << scan.error;

    const auto batch = runBatch(scan, {});
    ASSERT_EQ(batch.numFailed(), 2u);

    const std::string manifest = quarantineManifest(batch);
    ASSERT_FALSE(manifest.empty());
    const fs::path mpath = dir.path() / "quarantine.txt";
    std::ofstream mout(mpath);
    mout << manifest;
    mout.close();

    // The manifest is itself a corpus: scanning it yields exactly
    // the failed traces.
    const auto rescan = scanCorpus(mpath.string());
    ASSERT_TRUE(rescan.ok()) << rescan.error;
    ASSERT_EQ(rescan.files.size(), 2u);
    EXPECT_NE(rescan.files[0].find("b_bad.trace"),
              std::string::npos);
    EXPECT_NE(rescan.files[1].find("c_bad.trace"),
              std::string::npos);

    // Nothing failed -> no manifest.
    TempDir clean("wmr_batch_quarantine_clean");
    writeBytes(clean.path() / "ok.trace", makeTraceBytes(602));
    const auto cleanScan = scanCorpus(clean.path().string());
    ASSERT_TRUE(cleanScan.ok());
    EXPECT_TRUE(quarantineManifest(runBatch(cleanScan, {})).empty());
}

// ---------------------------------------------------------------
// CheckpointJournal: crash-tolerant resume.
// ---------------------------------------------------------------

TEST(CheckpointJournal, LineRoundTripCarriesEveryReportedField)
{
    TraceRunResult r;
    r.path = "/tmp/some dir/weird\tname\n.trace";
    r.status = TraceRunStatus::Ok;
    r.fileBytes = 12345;
    r.events = 17;
    r.syncEvents = 5;
    r.ops = 99;
    r.races = 3;
    r.dataRaces = 2;
    r.partitions = 4;
    r.firstPartitions = 1;
    r.reportedRaces = 1;
    r.anyDataRace = true;
    r.wholeExecutionSc = false;
    r.salvaged = true;
    r.unresolvedPairings = 7;
    r.droppedDataRecords = 11;

    TraceRunResult back;
    ASSERT_TRUE(parseCheckpointLine(checkpointLine(r), back));
    EXPECT_EQ(back.path, r.path);
    EXPECT_EQ(back.status, r.status);
    EXPECT_EQ(back.fileBytes, r.fileBytes);
    EXPECT_EQ(back.events, r.events);
    EXPECT_EQ(back.syncEvents, r.syncEvents);
    EXPECT_EQ(back.ops, r.ops);
    EXPECT_EQ(back.races, r.races);
    EXPECT_EQ(back.dataRaces, r.dataRaces);
    EXPECT_EQ(back.partitions, r.partitions);
    EXPECT_EQ(back.firstPartitions, r.firstPartitions);
    EXPECT_EQ(back.reportedRaces, r.reportedRaces);
    EXPECT_EQ(back.anyDataRace, r.anyDataRace);
    EXPECT_EQ(back.wholeExecutionSc, r.wholeExecutionSc);
    EXPECT_EQ(back.salvaged, r.salvaged);
    EXPECT_EQ(back.unresolvedPairings, r.unresolvedPairings);
    EXPECT_EQ(back.droppedDataRecords, r.droppedDataRecords);

    TraceRunResult fail;
    fail.path = "x.trace";
    fail.status = TraceRunStatus::FormatError;
    fail.error = "bad magic\tin line 1";
    ASSERT_TRUE(parseCheckpointLine(checkpointLine(fail), back));
    EXPECT_EQ(back.status, TraceRunStatus::FormatError);
    EXPECT_EQ(back.error, fail.error);
}

TEST(CheckpointJournal, EveryTornPrefixIsRejected)
{
    TraceRunResult r;
    r.path = "t.trace";
    r.status = TraceRunStatus::Ok;
    r.events = 9;
    const std::string line = checkpointLine(r);
    TraceRunResult out;
    for (std::size_t cut = 0; cut < line.size(); ++cut) {
        EXPECT_FALSE(parseCheckpointLine(line.substr(0, cut), out))
            << "torn prefix of length " << cut << " parsed";
    }
    EXPECT_TRUE(parseCheckpointLine(line, out));
    // Comments and junk are rejected too, without stopping a load.
    EXPECT_FALSE(parseCheckpointLine("# a comment", out));
    EXPECT_FALSE(parseCheckpointLine("random garbage", out));
}

TEST(CheckpointJournal, ResumeSkipsCompletedAndReportIsIdentical)
{
    TempDir dir("wmr_batch_resume");
    const std::size_t total = writeMixedCorpus(dir.path(), 6);
    const auto scan = scanCorpus(dir.path().string());
    ASSERT_TRUE(scan.ok()) << scan.error;

    // The reference: one uninterrupted run, no checkpoint.
    const auto ref = runBatch(scan, {});

    // "Killed halfway": run only the first half of the corpus (via
    // a manifest) with the journal, as if the process died there.
    const fs::path half = dir.path() / "half.manifest";
    {
        std::ofstream out(half);
        for (std::size_t i = 0; i < scan.files.size() / 2; ++i)
            out << scan.files[i] << "\n";
    }
    const auto halfScan = scanCorpus(half.string());
    ASSERT_TRUE(halfScan.ok()) << halfScan.error;
    const std::string ckpt = (dir.path() / "ck.tsv").string();
    BatchOptions withCkpt;
    withCkpt.checkpointPath = ckpt;
    const auto first = runBatch(halfScan, withCkpt);
    EXPECT_EQ(first.metrics.resumed, 0u);

    // Resume over the FULL corpus: the journaled half is prefilled,
    // only the rest is analyzed, and the report is byte-identical
    // to the uninterrupted run.
    const auto resumed = runBatch(scan, withCkpt);
    EXPECT_EQ(resumed.metrics.resumed, scan.files.size() / 2);
    EXPECT_EQ(resumed.metrics.corpusTraces, total);
    EXPECT_EQ(formatBatchReport(resumed), formatBatchReport(ref));
    EXPECT_EQ(batchReportJson(resumed), batchReportJson(ref));

    // A third run resumes everything.
    const auto third = runBatch(scan, withCkpt);
    EXPECT_EQ(third.metrics.resumed, scan.files.size());
    EXPECT_EQ(formatBatchReport(third), formatBatchReport(ref));
}

TEST(CheckpointJournal, TornJournalLineIsIgnoredAndHealed)
{
    TempDir dir("wmr_batch_torn_journal");
    writeMixedCorpus(dir.path(), 4);
    const auto scan = scanCorpus(dir.path().string());
    ASSERT_TRUE(scan.ok()) << scan.error;

    const std::string ckpt = (dir.path() / "ck.tsv").string();
    BatchOptions opts;
    opts.checkpointPath = ckpt;
    const auto ref = runBatch(scan, opts);

    // Tear the journal: keep two lines plus half of a third, with
    // no trailing newline — the SIGKILL-mid-append shape.
    const auto full = loadCheckpoint(ckpt);
    ASSERT_GE(full.entries.size(), 3u);
    {
        std::ifstream in(ckpt);
        std::string l1, l2, l3;
        std::getline(in, l1);
        std::getline(in, l2);
        std::getline(in, l3);
        in.close();
        std::ofstream out(ckpt, std::ios::trunc);
        out << l1 << "\n"
            << l2 << "\n"
            << l3.substr(0, l3.size() / 2);
    }
    const auto torn = loadCheckpoint(ckpt);
    EXPECT_EQ(torn.entries.size(), 2u);
    EXPECT_EQ(torn.tornLines, 1u);

    // Resuming over the torn journal re-analyzes the torn trace and
    // appends on a FRESH line (no gluing onto the fragment)...
    const auto again = runBatch(scan, opts);
    EXPECT_EQ(again.metrics.resumed, 2u);
    EXPECT_EQ(formatBatchReport(again), formatBatchReport(ref));

    // ...so the next resume recovers every completed trace.
    const auto healed = runBatch(scan, opts);
    EXPECT_EQ(healed.metrics.resumed, scan.files.size());
    EXPECT_EQ(formatBatchReport(healed), formatBatchReport(ref));
}

// ---------------------------------------------------------------
// AnalysisReentrancy: analyzeTrace() across threads.
// ---------------------------------------------------------------

TEST(AnalysisReentrancy, ConcurrentAnalyzeTraceAgreesWithSerial)
{
    const auto bytes = makeTraceBytes(99);
    auto loaded = tryDeserializeTrace(bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    const auto serial = formatReport(
        analyzeTrace(std::move(loaded.trace)), nullptr);

    constexpr unsigned kThreads = 8;
    std::vector<std::string> reports(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            auto res = tryDeserializeTrace(bytes);
            ASSERT_TRUE(res.ok());
            reports[t] = formatReport(
                analyzeTrace(std::move(res.trace)), nullptr);
        });
    }
    for (auto &th : threads)
        th.join();
    for (const auto &r : reports)
        EXPECT_EQ(r, serial);
}

} // namespace
} // namespace wmr
