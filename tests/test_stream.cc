/**
 * @file
 * The streaming engine's differential suite (src/stream/):
 *
 *  - StreamGolden.*: every committed golden-corpus trace, streamed,
 *    renders the byte-identical provenance + report the whole-trace
 *    pipeline prints for the same segmented bytes;
 *  - StreamDifferential.*: seeded synthetics — race-free, sparse and
 *    densely racy — at window sizes {1, 4, 64}, plus truncated /
 *    salvaged inputs and strict-error identity;
 *  - StreamScale.*: a 1,000,000-event synthetic streams with a flat
 *    resident line and identical output at every window size;
 *  - StreamGc.*: watermark retirement actually bounds resident state
 *    (the observable form of "no clock entry survives past its
 *    retirement epoch": retired events leave live_, and analysis
 *    stays byte-correct without them);
 *  - Generator.*: writeSyntheticSegmentedTraceFile() is
 *    byte-identical to serializing makeSyntheticTrace();
 *  - TailReader.*: a half-written frame on a live file is "wait",
 *    not "torn" — and the same bytes as a dead snapshot salvage; a
 *    finished file comes back in bounded polls.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "damage_cases.hh"
#include "detect/analysis.hh"
#include "detect/report.hh"
#include "stream/stream_analyzer.hh"
#include "trace/segmented_io.hh"
#include "trace/trace_io.hh"
#include "workload/synthetic_trace.hh"

namespace fs = std::filesystem;

namespace wmr {
namespace {

std::string
tempPath(const char *tag)
{
    return (fs::temp_directory_path() /
            (std::string(tag) + "." + std::to_string(::getpid()) +
             ".seg"))
        .string();
}

std::vector<std::uint8_t>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<std::uint8_t>(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string &path,
               const std::vector<std::uint8_t> &bytes,
               std::size_t count = SIZE_MAX)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(
                  std::min(count, bytes.size())));
    ASSERT_TRUE(out.good()) << path;
}

/** Provenance + report of the whole-trace pipeline on segmented
 *  bytes — exactly what `wmrace check` prints. */
std::string
wholeTraceText(const std::vector<std::uint8_t> &bytes, bool strict)
{
    auto res =
        strict ? tryReadSegmentedTrace(bytes) : trySalvageTrace(bytes);
    EXPECT_TRUE(res.ok()) << res.error;
    if (!res.ok())
        return "";
    std::string text = formatTraceProvenance(true, res.salvage);
    const DetectionResult det = analyzeTrace(std::move(res.trace));
    text += formatReport(det, nullptr, {});
    return text;
}

/** Provenance + report of the streaming engine on the same file. */
std::string
streamedText(const std::string &path, bool strict,
             std::size_t window, StreamResult *resultOut = nullptr)
{
    StreamOptions opts;
    opts.strict = strict;
    opts.windowSegments = window;
    StreamResult sr = streamAnalyzeFile(path, opts);
    EXPECT_TRUE(sr.ok) << sr.error;
    if (resultOut)
        *resultOut = sr;
    if (!sr.ok)
        return "";
    return formatTraceProvenance(true, sr.salvage) +
           renderReport(sr.report, nullptr, {});
}

/** Both engines over the same segmented bytes, byte-compared. */
void
expectEquivalent(const std::vector<std::uint8_t> &bytes, bool strict,
                 std::size_t window, const std::string &what)
{
    const std::string path = tempPath("stream_diff");
    writeFileBytes(path, bytes);
    StreamResult sr;
    const std::string streamed =
        streamedText(path, strict, window, &sr);
    const std::string whole = wholeTraceText(bytes, strict);
    EXPECT_EQ(streamed, whole)
        << what << " (window " << window << ")";
    EXPECT_TRUE(sr.exact) << what;
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// StreamGolden: the committed regression corpus.
// ---------------------------------------------------------------

TEST(StreamGolden, MatchesWholeTraceAcrossCorpus)
{
    const fs::path dir = WMR_GOLDEN_DIR;
    ASSERT_TRUE(fs::is_directory(dir)) << dir;
    std::size_t checked = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() != ".trace")
            continue;
        const std::string name = entry.path().filename().string();
        auto bytes = readFileBytes(entry.path().string());
        ASSERT_FALSE(bytes.empty()) << name;
        const bool damaged = name.find("damaged") != std::string::npos;
        auto loaded = tryDeserializeTrace(bytes, /*salvage=*/damaged);
        ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.error;
        if (!loaded.segmented) {
            // Legacy WMRTRC01 fixtures cannot stream directly; the
            // differential runs on their segmented serialization
            // (small segments, so even tiny traces window).
            bytes = serializeSegmentedTrace(loaded.trace, 8);
        }
        expectEquivalent(bytes, /*strict=*/!damaged,
                         /*window=*/2, name);
        ++checked;
    }
    EXPECT_GE(checked, 10u);
}

// ---------------------------------------------------------------
// StreamDifferential: seeded synthetics and damaged inputs.
// ---------------------------------------------------------------

/** A mostly-synchronized trace with sparse data races. */
SyntheticTraceOptions
sparseOptions()
{
    SyntheticTraceOptions o;
    o.procs = 4;
    o.eventsPerProc = 4000;
    o.memWords = 2048;
    o.syncWords = 32;
    o.syncFraction = 0.5;
    o.hotFraction = 0.0;
    o.seed = 11;
    return o;
}

/** A conflict-dense trace: thousands of races, one big partition —
 *  the summary-graph path under load. */
SyntheticTraceOptions
denseOptions()
{
    SyntheticTraceOptions o;
    o.procs = 8;
    o.eventsPerProc = 1200;
    o.memWords = 256;
    o.syncWords = 16;
    o.seed = 7;
    return o;
}

/** One whole-trace run, streamed at several window sizes. */
void
expectEquivalentAcrossWindows(const std::vector<std::uint8_t> &bytes,
                              std::initializer_list<unsigned> windows,
                              const std::string &what)
{
    const std::string whole = wholeTraceText(bytes, /*strict=*/true);
    const std::string path = tempPath("stream_windows");
    writeFileBytes(path, bytes);
    for (const std::size_t window : windows) {
        StreamResult sr;
        EXPECT_EQ(streamedText(path, /*strict=*/true, window, &sr),
                  whole)
            << what << " (window " << window << ")";
        EXPECT_TRUE(sr.exact) << what;
    }
    std::remove(path.c_str());
}

TEST(StreamDifferential, SparseSyntheticAcrossWindows)
{
    const auto bytes =
        serializeSegmentedTrace(makeSyntheticTrace(sparseOptions()));
    expectEquivalentAcrossWindows(bytes, {1u, 4u, 64u}, "sparse");
}

TEST(StreamDifferential, DenseRacySynthetic)
{
    const auto bytes =
        serializeSegmentedTrace(makeSyntheticTrace(denseOptions()));
    expectEquivalentAcrossWindows(bytes, {1u, 4u}, "dense");
}

TEST(StreamDifferential, RaceFreeSingleProc)
{
    SyntheticTraceOptions o;
    o.procs = 1;
    o.eventsPerProc = 3000;
    o.seed = 3;
    const auto bytes =
        serializeSegmentedTrace(makeSyntheticTrace(o));
    expectEquivalent(bytes, /*strict=*/true, 4, "single-proc");
}

TEST(StreamDifferential, SalvagedTruncation)
{
    const auto bytes =
        serializeSegmentedTrace(makeSyntheticTrace(sparseOptions()));
    // Chop mid-file: inside some segment, so salvage drops a tail.
    for (const double frac : {0.35, 0.71, 0.97}) {
        const auto keep =
            static_cast<std::size_t>(bytes.size() * frac);
        std::vector<std::uint8_t> cut(bytes.begin(),
                                      bytes.begin() + keep);
        const std::string path = tempPath("stream_cut");
        writeFileBytes(path, cut);
        StreamResult sr;
        const std::string streamed =
            streamedText(path, /*strict=*/false, 4, &sr);
        EXPECT_EQ(streamed, wholeTraceText(cut, /*strict=*/false))
            << "keep=" << keep;
        EXPECT_TRUE(sr.salvage.salvaged);
        std::remove(path.c_str());
    }

    // The damage cases every path must judge alike: the same
    // salvaged report, or the same refusal when nothing survives.
    for (const auto &dc : testing_damage::damageCases()) {
        const std::string path = tempPath("stream_damage");
        writeFileBytes(path, dc.bytes);
        const auto whole = trySalvageTrace(dc.bytes);
        if (whole.ok()) {
            StreamResult sr;
            EXPECT_EQ(streamedText(path, /*strict=*/false, 4, &sr),
                      wholeTraceText(dc.bytes, /*strict=*/false))
                << dc.name;
            EXPECT_TRUE(sr.salvage.salvaged) << dc.name;
        } else {
            StreamOptions opts;
            opts.strict = false;
            const StreamResult sr = streamAnalyzeFile(path, opts);
            EXPECT_FALSE(sr.ok) << dc.name;
            EXPECT_EQ(sr.error, whole.error) << dc.name;
        }
        std::remove(path.c_str());
    }
}

TEST(StreamDifferential, StrictErrorsMatchWholeTraceReader)
{
    const auto bytes =
        serializeSegmentedTrace(makeSyntheticTrace(sparseOptions()));
    std::vector<testing_damage::DamageCase> inputs =
        testing_damage::damageCases();
    for (const double frac : {0.35, 0.97}) {
        const auto keep =
            static_cast<std::size_t>(bytes.size() * frac);
        inputs.push_back({"keep=" + std::to_string(keep),
                          std::vector<std::uint8_t>(
                              bytes.begin(), bytes.begin() + keep)});
    }
    for (const auto &in : inputs) {
        const auto whole = tryReadSegmentedTrace(in.bytes);
        ASSERT_FALSE(whole.ok()) << in.name;

        const std::string path = tempPath("stream_strict");
        writeFileBytes(path, in.bytes);
        StreamOptions opts; // strict by default
        const StreamResult sr = streamAnalyzeFile(path, opts);
        EXPECT_FALSE(sr.ok) << in.name;
        EXPECT_EQ(sr.error, whole.error) << in.name;
        std::remove(path.c_str());
    }
}

// ---------------------------------------------------------------
// StreamScale: a million events, flat resident line.
// ---------------------------------------------------------------

TEST(StreamScale, MillionEventsFlatAcrossWindows)
{
    SyntheticTraceOptions o;
    o.procs = 4;
    o.eventsPerProc = 250000; // 1M events total
    o.memWords = 65536;       // word lists, never bitsets: huge
    o.syncWords = 16;         // universes cost the stream nothing
    o.syncFraction = 0.6;
    o.hotFraction = 0.0;
    o.seed = 11;

    const std::string path = tempPath("stream_million");
    ASSERT_GT(writeSyntheticSegmentedTraceFile(o, path), 0u);

    std::string first;
    for (const std::size_t window : {1u, 4u, 64u}) {
        StreamResult sr;
        const std::string text =
            streamedText(path, /*strict=*/true, window, &sr);
        if (first.empty())
            first = text;
        else
            EXPECT_EQ(text, first) << "window " << window;
        EXPECT_TRUE(sr.exact);
        EXPECT_EQ(sr.events, 1000000u);
        EXPECT_GT(sr.windowsRetired, 0u);
        // The point of the subsystem: resident state is a fraction
        // of a percent of the trace, at every window size.
        EXPECT_LT(sr.peakResident, 20000u) << "window " << window;
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// StreamGc: watermark retirement bounds resident state.
// ---------------------------------------------------------------

TEST(StreamGc, SingleProcWindowRetiresEverything)
{
    // One processor: every event is po-ordered after the window
    // before it, so each GC retires the whole preceding window.  If
    // any clock entry outlived its retirement epoch, eventsResident
    // could not stay pinned to the window size.
    SyntheticTraceOptions o;
    o.procs = 1;
    o.eventsPerProc = 10000;
    o.seed = 5;
    const std::string path = tempPath("stream_gc1");
    ASSERT_GT(writeSyntheticSegmentedTraceFile(o, path), 0u);

    StreamOptions opts;
    opts.windowSegments = 2;
    std::uint64_t maxResident = 0;
    std::uint64_t lastRetired = 0;
    opts.onWindow = [&](const StreamProgress &p) {
        maxResident = std::max(maxResident, p.eventsResident);
        EXPECT_GE(p.windowsRetired, lastRetired);
        lastRetired = p.windowsRetired;
    };
    const StreamResult sr = streamAnalyzeFile(path, opts);
    ASSERT_TRUE(sr.ok) << sr.error;
    EXPECT_EQ(sr.races, 0u);
    EXPECT_GT(sr.windowsRetired, 0u);
    // 2-segment windows of 64 events + the segment in flight.
    EXPECT_LE(maxResident, 3u * 64u);
    EXPECT_LE(sr.peakResident, 3u * 64u);
    std::remove(path.c_str());
}

TEST(StreamGc, PairedProcsStayBounded)
{
    SyntheticTraceOptions o = sparseOptions();
    o.eventsPerProc = 12000; // 48k events
    const std::string path = tempPath("stream_gc2");
    ASSERT_GT(writeSyntheticSegmentedTraceFile(o, path), 0u);

    StreamOptions opts;
    const StreamResult sr = streamAnalyzeFile(path, opts);
    ASSERT_TRUE(sr.ok) << sr.error;
    EXPECT_GT(sr.windowsRetired, 0u);
    // Residency = hb1-unordered frontier + pinned racy events; both
    // are a small fraction of a well-synchronized trace.
    EXPECT_LT(sr.peakResident, sr.events / 4);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// Generator: the bounded-memory producer is byte-identical.
// ---------------------------------------------------------------

TEST(Generator, StreamedFileMatchesWholeTraceSerialization)
{
    std::vector<SyntheticTraceOptions> cases;
    cases.push_back({});
    {
        SyntheticTraceOptions o;
        o.procs = 7;
        o.eventsPerProc = 333;
        o.memWords = 64;
        o.syncWords = 64; // dataBase = 0: sync and data words overlap
        o.seed = 42;
        cases.push_back(o);
    }
    {
        SyntheticTraceOptions o;
        o.procs = 2;
        o.eventsPerProc = 100;
        o.syncFraction = 0.9; // token reuse: many rebinds per word
        o.syncWords = 2;
        o.seed = 9;
        cases.push_back(o);
    }

    for (std::size_t i = 0; i < cases.size(); ++i) {
        const std::string a = tempPath("gen_stream");
        const std::string b = tempPath("gen_whole");
        const std::size_t na =
            writeSyntheticSegmentedTraceFile(cases[i], a);
        const std::size_t nb = writeSegmentedTraceFile(
            makeSyntheticTrace(cases[i]), b);
        ASSERT_GT(na, 0u);
        EXPECT_EQ(na, nb) << "case " << i;
        EXPECT_EQ(readFileBytes(a), readFileBytes(b))
            << "case " << i;
        std::remove(a.c_str());
        std::remove(b.c_str());
    }
}

TEST(Generator, NonDefaultSegmentSizeMatchesToo)
{
    SyntheticTraceOptions o;
    o.procs = 3;
    o.eventsPerProc = 70;
    o.seed = 13;
    const std::string a = tempPath("gen_seg5a");
    const std::string b = tempPath("gen_seg5b");
    ASSERT_GT(writeSyntheticSegmentedTraceFile(o, a, 5), 0u);
    ASSERT_GT(writeSegmentedTraceFile(makeSyntheticTrace(o), b, 5),
              0u);
    EXPECT_EQ(readFileBytes(a), readFileBytes(b));
    std::remove(a.c_str());
    std::remove(b.c_str());
}

/** Latest-wins token rebinding: reusing one token per sync word must
 *  pair an acquire with the NEWEST release carrying the token. */
TEST(Generator, SpillWriterTokenRebinds)
{
    const std::string path = tempPath("token_rebind");
    SegmentSpillWriter w;
    ASSERT_TRUE(w.open(path));

    const auto sync = [](ProcId p, OpId op, bool release) {
        SegEvent ev;
        ev.kind = EventKind::Sync;
        ev.proc = p;
        ev.firstOp = ev.lastOp = op;
        ev.opCount = 1;
        ev.syncOp.id = op;
        ev.syncOp.proc = p;
        ev.syncOp.sync = true;
        ev.syncOp.addr = 0;
        ev.syncOp.kind = release ? OpKind::Write : OpKind::Read;
        (release ? ev.syncOp.release : ev.syncOp.acquire) = true;
        return ev;
    };

    SegEvent r1 = sync(0, 0, true);
    r1.releaseToken = 77; // ordinal 0
    w.addEvent(r1);
    SegEvent r2 = sync(1, 1, true);
    r2.releaseToken = 77; // same token: rebinds to ordinal 1
    w.addEvent(r2);
    SegEvent a1 = sync(2, 2, false);
    a1.pairedToken = 77;
    w.addEvent(a1);

    SegShape shape;
    shape.procs = 3;
    shape.memWords = 1;
    shape.totalOps = 3;
    ASSERT_TRUE(w.finish(shape));

    const auto res = tryReadSegmentedTrace(readFileBytes(path));
    ASSERT_TRUE(res.ok()) << res.error;
    ASSERT_EQ(res.trace.events().size(), 3u);
    EXPECT_EQ(res.trace.event(2).pairedRelease, EventId{1});
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// TailReader: live files vs torn writes.
// ---------------------------------------------------------------

TEST(TailReader, MidFrameIsWaitingNotTorn)
{
    SyntheticTraceOptions o;
    o.procs = 2;
    o.eventsPerProc = 100;
    o.seed = 21;
    const auto bytes =
        serializeSegmentedTrace(makeSyntheticTrace(o), 16);

    // Frame boundaries: magic, then len-prefixed frames.
    const auto frameEnd = [&](std::size_t begin) {
        const std::uint32_t len =
            static_cast<std::uint32_t>(bytes.at(begin)) |
            static_cast<std::uint32_t>(bytes.at(begin + 1)) << 8 |
            static_cast<std::uint32_t>(bytes.at(begin + 2)) << 16 |
            static_cast<std::uint32_t>(bytes.at(begin + 3)) << 24;
        return begin + 4 + len + 4;
    };
    const std::size_t frame1End = frameEnd(8);
    const std::size_t frame2End = frameEnd(frame1End);
    const std::size_t midFrame2 = frame1End + (frame2End - frame1End) / 2;

    const std::string path = tempPath("tail_midframe");
    writeFileBytes(path, bytes, midFrame2);

    SegmentTailReader tail;
    ASSERT_TRUE(tail.open(path));
    std::vector<SegTailSegment> segs;
    EXPECT_EQ(tail.poll(segs), TailPollStatus::Progress);
    ASSERT_EQ(segs.size(), 1u);
    EXPECT_EQ(segs[0].events.size(), 16u);

    // The half-written second frame is a LIVE tail, not damage.
    segs.clear();
    EXPECT_EQ(tail.poll(segs), TailPollStatus::Waiting);
    EXPECT_TRUE(segs.empty());

    // The very same bytes as a dead-file snapshot ARE a torn write:
    // salvage accounts for the dropped tail.
    std::vector<std::uint8_t> snapshot(bytes.begin(),
                                       bytes.begin() + midFrame2);
    const auto salvaged = trySalvageTrace(snapshot);
    ASSERT_TRUE(salvaged.ok()) << salvaged.error;
    EXPECT_TRUE(salvaged.salvage.salvaged);
    EXPECT_GT(salvaged.salvage.bytesDropped, 0u);

    // The writer comes back: append the rest, poll to FIN — a clean
    // complete stream, nothing dropped, nothing salvaged.
    {
        std::ofstream app(path,
                          std::ios::binary | std::ios::app);
        app.write(reinterpret_cast<const char *>(bytes.data()) +
                      midFrame2,
                  static_cast<std::streamsize>(bytes.size() -
                                               midFrame2));
        ASSERT_TRUE(app.good());
    }
    segs.clear();
    TailPollStatus st = tail.poll(segs);
    while (st == TailPollStatus::Progress &&
           st != TailPollStatus::Fin)
        st = tail.poll(segs);
    EXPECT_EQ(st, TailPollStatus::Fin);
    EXPECT_TRUE(tail.finSeen());
    ASSERT_TRUE(tail.finalize(/*strict=*/true)) << tail.error();
    EXPECT_FALSE(tail.salvage().salvaged);
    EXPECT_EQ(tail.salvage().bytesDropped, 0u);
    std::remove(path.c_str());
}

TEST(TailReader, FinishedFileComesBackInBoundedPolls)
{
    // A complete multi-MB file must not come back in one poll: each
    // poll holds at most one chunk plus one frame, so a finished
    // file streams in bounded memory like a live one.
    SyntheticTraceOptions o;
    o.procs = 2;
    o.eventsPerProc = 80000;
    o.memWords = 65536;
    o.syncWords = 16;
    o.syncFraction = 0.6;
    o.hotFraction = 0.0;
    o.seed = 5;
    const std::string path = tempPath("tail_bounded");
    const std::size_t size = writeSyntheticSegmentedTraceFile(o, path);
    constexpr std::size_t kChunk = SegmentTailReader::kChunkBytes;
    ASSERT_GT(size, 3 * kChunk);

    std::size_t maxFrame = 0;
    {
        const auto bytes = readFileBytes(path);
        for (std::size_t pos = 8; pos + 4 <= bytes.size();) {
            const std::size_t len =
                bytes[pos] | bytes[pos + 1] << 8 |
                bytes[pos + 2] << 16 |
                static_cast<std::size_t>(bytes[pos + 3]) << 24;
            maxFrame = std::max(maxFrame, 8 + len);
            pos += 8 + len;
        }
    }

    SegmentTailReader tail;
    ASSERT_TRUE(tail.open(path));
    std::vector<SegTailSegment> segs;
    std::size_t polls = 0;
    std::uint64_t events = 0;
    std::uint64_t before = 0;
    TailPollStatus st;
    while ((st = tail.poll(segs)) == TailPollStatus::Progress) {
        ++polls;
        EXPECT_LE(tail.offset() - before, kChunk + maxFrame)
            << "poll " << polls;
        EXPECT_LT(tail.bytesSeen() - tail.offset(), maxFrame)
            << "poll " << polls;
        before = tail.offset();
        for (const SegTailSegment &seg : segs)
            events += seg.events.size();
        segs.clear();
    }
    EXPECT_EQ(st, TailPollStatus::Fin);
    EXPECT_GE(polls, size / (kChunk + maxFrame));
    EXPECT_EQ(events, 160000u);
    ASSERT_TRUE(tail.finalize(/*strict=*/true)) << tail.error();
    EXPECT_EQ(tail.offset(), size);
    std::remove(path.c_str());
}

TEST(TailReader, FollowEqualsWholeFileRead)
{
    // streamAnalyzeFollow() with no liveness predicate must behave
    // exactly like the one-shot file read.
    const auto bytes =
        serializeSegmentedTrace(makeSyntheticTrace(denseOptions()));
    const std::string path = tempPath("tail_follow");
    writeFileBytes(path, bytes);

    StreamOptions opts;
    const StreamResult a = streamAnalyzeFile(path, opts);
    const StreamResult b =
        streamAnalyzeFollow(path, opts, [] { return false; }, 1);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_EQ(renderReport(a.report, nullptr, {}),
              renderReport(b.report, nullptr, {}));
    EXPECT_EQ(a.races, b.races);
    std::remove(path.c_str());
}

} // namespace
} // namespace wmr
