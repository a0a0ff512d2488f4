/**
 * @file
 * Tests of the segmented, checksummed trace container and its
 * salvage reader (src/trace/segmented_io):
 *
 *  - SegmentedRoundTrip.*: serialize -> strict read is lossless and
 *    transparent through the loader, tryDeserializeTrace();
 *  - Salvage.*: EVERY mid-segment truncation and EVERY single-bit
 *    flip comes back as exactly the longest valid whole-segment
 *    prefix, or as a typed refusal when that prefix holds no event —
 *    never a crash, never silently wrong data;
 *  - SpillWriter.*: the incremental writer (the recorder's spill
 *    path), including crashSeal() and the deliberately torn frame
 *    of the fault-injection harness.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>
#include <vector>

#include "detect/analysis.hh"
#include "sim/executor.hh"
#include "trace/segmented_io.hh"
#include "trace/trace_io.hh"
#include "workload/random_gen.hh"

namespace fs = std::filesystem;

namespace wmr {
namespace {

/** Produce one in-memory trace from a seeded random program. */
ExecutionTrace
makeTrace(std::uint64_t seed, bool racy = true)
{
    const Program prog =
        racy ? randomRacyProgram(seed) : randomRaceFreeProgram(seed);
    ExecOptions opts;
    opts.model = ModelKind::WO;
    opts.seed = seed;
    const auto res = runProgram(prog, opts);
    return buildTrace(res, {.keepMemberOps = true});
}

std::string
tempPath(const char *tag)
{
    return (fs::temp_directory_path() /
            (std::string(tag) + "." + std::to_string(::getpid()) +
             ".trace"))
        .string();
}

/** One frame of a segmented byte image, as the test walks it. */
struct Frame
{
    std::size_t begin = 0; ///< offset of the length header
    std::size_t end = 0;   ///< one past the trailing CRC
    char tag = 0;          ///< 'D' or 'F'
    std::uint64_t events = 0;
};

std::uint64_t
readVarint(const std::vector<std::uint8_t> &b, std::size_t &pos)
{
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
        const std::uint8_t byte = b.at(pos++);
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return v;
        shift += 7;
    }
}

/** Walk the frames of a WELL-FORMED segmented image. */
std::vector<Frame>
walkFrames(const std::vector<std::uint8_t> &b)
{
    std::vector<Frame> frames;
    std::size_t pos = 8; // past the magic
    while (pos < b.size()) {
        Frame f;
        f.begin = pos;
        const std::uint32_t len =
            static_cast<std::uint32_t>(b.at(pos)) |
            static_cast<std::uint32_t>(b.at(pos + 1)) << 8 |
            static_cast<std::uint32_t>(b.at(pos + 2)) << 16 |
            static_cast<std::uint32_t>(b.at(pos + 3)) << 24;
        f.end = pos + 4 + len + 4;
        f.tag = static_cast<char>(b.at(pos + 4));
        if (f.tag == 'D') {
            std::size_t p = pos + 5;
            readVarint(b, p); // opsSoFar
            readVarint(b, p); // droppedSoFar
            f.events = readVarint(b, p);
        }
        frames.push_back(f);
        pos = f.end;
    }
    return frames;
}

/** Events in D-segments wholly before byte offset @p damagedAt. */
std::uint64_t
eventsBeforeDamage(const std::vector<Frame> &frames,
                   std::size_t damagedAt)
{
    std::uint64_t n = 0;
    for (const auto &f : frames) {
        if (f.end > damagedAt)
            break;
        n += f.events;
    }
    return n;
}

// ---------------------------------------------------------------
// SegmentedRoundTrip
// ---------------------------------------------------------------

TEST(SegmentedRoundTrip, StrictReadIsLossless)
{
    const ExecutionTrace src = makeTrace(7);
    const auto bytes = serializeSegmentedTrace(src, 4);

    const auto res = tryReadSegmentedTrace(bytes);
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_TRUE(res.segmented);
    EXPECT_TRUE(res.salvage.finSeen);
    EXPECT_FALSE(res.salvage.salvaged);
    EXPECT_EQ(res.salvage.segmentsDropped, 0u);
    EXPECT_EQ(res.salvage.unresolvedPairings, 0u);

    ASSERT_EQ(res.trace.events().size(), src.events().size());
    EXPECT_EQ(res.trace.numProcs(), src.numProcs());
    EXPECT_EQ(res.trace.memWords(), src.memWords());
    EXPECT_EQ(res.trace.totalOps(), src.totalOps());
    for (std::size_t i = 0; i < src.events().size(); ++i) {
        const Event &a = src.events()[i];
        const Event &b = res.trace.events()[i];
        EXPECT_EQ(a.kind, b.kind) << "event " << i;
        EXPECT_EQ(a.proc, b.proc) << "event " << i;
        EXPECT_EQ(a.firstOp, b.firstOp) << "event " << i;
        EXPECT_EQ(a.pairedRelease, b.pairedRelease) << "event " << i;
        EXPECT_EQ(a.readSet, b.readSet) << "event " << i;
        EXPECT_EQ(a.writeSet, b.writeSet) << "event " << i;
    }
}

TEST(SegmentedRoundTrip, ClassicReaderSniffsTheMagic)
{
    const ExecutionTrace src = makeTrace(11);
    const auto bytes = serializeSegmentedTrace(src);
    // The pre-existing entry point must accept both containers.
    const auto res = tryDeserializeTrace(bytes);
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_EQ(res.trace.events().size(), src.events().size());
}

TEST(SegmentedRoundTrip, AnalysisVerdictSurvivesTheContainer)
{
    const ExecutionTrace src = makeTrace(13, /*racy=*/true);
    const auto bytes = serializeSegmentedTrace(src, 3);
    auto res = tryReadSegmentedTrace(bytes);
    ASSERT_TRUE(res.ok()) << res.error;
    const DetectionResult a = analyzeTrace(ExecutionTrace(src));
    const DetectionResult b = analyzeTrace(std::move(res.trace));
    EXPECT_EQ(a.anyDataRace(), b.anyDataRace());
    EXPECT_EQ(a.numDataRaces(), b.numDataRaces());
    EXPECT_EQ(a.reportedRaces().size(), b.reportedRaces().size());
}

// ---------------------------------------------------------------
// Salvage: truncation and corruption, exhaustively.
// ---------------------------------------------------------------

TEST(Salvage, EveryTruncationRecoversAWholeSegmentPrefix)
{
    const ExecutionTrace src = makeTrace(17);
    const auto bytes = serializeSegmentedTrace(src, 2);
    const auto frames = walkFrames(bytes);
    ASSERT_GT(frames.size(), 3u) << "want a multi-segment file";

    for (std::size_t cut = 8; cut < bytes.size(); ++cut) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + cut);

        // Strict mode must reject every truncation.
        const auto strict = tryReadSegmentedTrace(prefix);
        EXPECT_FALSE(strict.ok()) << "cut at " << cut;

        // Salvage must recover exactly the whole segments that fit,
        // and refuse a prefix that holds no whole data segment.
        const auto res = trySalvageTrace(prefix);
        if (eventsBeforeDamage(frames, cut) == 0) {
            EXPECT_FALSE(res.ok()) << "cut at " << cut;
            EXPECT_NE(res.error.find("salvage recovered no events"),
                      std::string::npos)
                << res.error;
            continue;
        }
        ASSERT_TRUE(res.ok()) << "cut " << cut << ": " << res.error;
        EXPECT_TRUE(res.salvage.salvaged) << "cut at " << cut;
        EXPECT_EQ(res.salvage.eventsRecovered,
                  eventsBeforeDamage(frames, cut))
            << "cut at " << cut;
        EXPECT_EQ(res.trace.events().size(),
                  res.salvage.eventsRecovered);

        // The recovered events are a prefix of the original's (both
        // producers order the file by firstOp).
        for (std::size_t i = 0; i < res.trace.events().size(); ++i) {
            EXPECT_EQ(res.trace.events()[i].firstOp,
                      src.events()[i].firstOp)
                << "cut " << cut << " event " << i;
        }
    }
}

TEST(Salvage, EverySingleBitFlipIsCaught)
{
    const ExecutionTrace src = makeTrace(19);
    const auto bytes = serializeSegmentedTrace(src, 2);
    const auto frames = walkFrames(bytes);
    ASSERT_GT(frames.size(), 2u);

    for (std::size_t byte = 8; byte < bytes.size(); ++byte) {
        for (int bit : {0, 3, 7}) {
            auto corrupt = bytes;
            corrupt[byte] ^= static_cast<std::uint8_t>(1u << bit);

            EXPECT_FALSE(tryReadSegmentedTrace(corrupt).ok())
                << "strict accepted flip at byte " << byte;

            const auto res = trySalvageTrace(corrupt);
            if (eventsBeforeDamage(frames, byte) == 0) {
                EXPECT_FALSE(res.ok()) << "flip at byte " << byte;
                continue;
            }
            ASSERT_TRUE(res.ok())
                << "byte " << byte << ": " << res.error;
            EXPECT_TRUE(res.salvage.salvaged)
                << "flip at byte " << byte;
            EXPECT_EQ(res.salvage.eventsRecovered,
                      eventsBeforeDamage(frames, byte))
                << "flip at byte " << byte;
        }
    }
}

TEST(Salvage, MissingFinAloneLosesNoEvents)
{
    // The SIGKILL shape: every data segment reached the disk, only
    // the FIN is missing.
    const ExecutionTrace src = makeTrace(23);
    const auto bytes = serializeSegmentedTrace(src, 4);
    const auto frames = walkFrames(bytes);
    ASSERT_EQ(frames.back().tag, 'F');
    const std::vector<std::uint8_t> chopped(
        bytes.begin(),
        bytes.begin() +
            static_cast<std::ptrdiff_t>(frames.back().begin));

    const auto strict = tryReadSegmentedTrace(chopped);
    ASSERT_FALSE(strict.ok());
    EXPECT_NE(strict.error.find("FIN"), std::string::npos)
        << strict.error;

    const auto res = trySalvageTrace(chopped);
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_TRUE(res.salvage.salvaged);
    EXPECT_FALSE(res.salvage.finSeen);
    EXPECT_EQ(res.salvage.segmentsDropped, 0u);
    EXPECT_EQ(res.salvage.eventsRecovered, src.events().size());
    EXPECT_EQ(res.trace.totalOps(), src.totalOps());
    // Without the FIN the shape is widened from the events; it must
    // still cover every referenced proc and word.
    EXPECT_EQ(res.trace.numProcs(), src.numProcs());
}

TEST(Salvage, GarbageBodyRecoversNothingAndIsRefused)
{
    // Nothing recoverable is a typed refusal, not an empty analysis
    // that would pass for an execution without races.
    std::vector<std::uint8_t> bytes = {'W', 'M', 'R', 'S',
                                       'E', 'G', '0', '1'};
    for (int i = 0; i < 64; ++i)
        bytes.push_back(static_cast<std::uint8_t>(i * 37));
    const auto res = trySalvageTrace(bytes);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status, TraceIoStatus::FormatError);
    EXPECT_NE(res.error.find("salvage recovered no events"),
              std::string::npos)
        << res.error;
    EXPECT_TRUE(res.salvage.salvaged);
    EXPECT_EQ(res.salvage.eventsRecovered, 0u);
    EXPECT_GT(res.salvage.bytesDropped, 0u);
}

TEST(Salvage, WrongMagicIsAHardError)
{
    const std::vector<std::uint8_t> junk = {'N', 'O', 'P', 'E'};
    EXPECT_FALSE(trySalvageTrace(junk).ok());
    EXPECT_FALSE(tryReadSegmentedTrace(junk).ok());
}

// ---------------------------------------------------------------
// SpillWriter: the recorder-side incremental producer.
// ---------------------------------------------------------------

/** Feed @p src's events through a SegmentSpillWriter as the tracer
 *  would: sealing every @p perSeal events. */
void
spillTrace(const ExecutionTrace &src, SegmentSpillWriter &w,
           std::size_t perSeal, bool andFinish)
{
    std::uint64_t ops = 0;
    std::size_t sinceSeal = 0;
    for (const Event &ev : src.events()) {
        SegEvent se;
        se.kind = ev.kind;
        se.proc = ev.proc;
        se.firstOp = ev.firstOp;
        se.lastOp = ev.lastOp;
        se.opCount = ev.opCount;
        if (ev.kind == EventKind::Sync) {
            se.syncOp = ev.syncOp;
            // Tokens: 1 + event id works because releases precede
            // their acquires in id order.
            if (ev.syncOp.release)
                se.releaseToken = 1 + ev.id;
            if (ev.pairedRelease != kNoEvent)
                se.pairedToken = 1 + ev.pairedRelease;
        } else {
            se.readWords = ev.readSet;
            se.writeWords = ev.writeSet;
        }
        ops += ev.opCount;
        w.setCounters(ops, 0);
        w.addEvent(se);
        if (++sinceSeal == perSeal) {
            ASSERT_TRUE(w.sealSegment()) << w.lastError();
            sinceSeal = 0;
        }
    }
    if (andFinish) {
        SegShape shape;
        shape.procs = src.numProcs();
        shape.memWords = src.memWords();
        shape.firstStaleRead = src.firstStaleRead();
        shape.totalOps = src.totalOps();
        ASSERT_TRUE(w.finish(shape)) << w.lastError();
    }
}

TEST(SpillWriter, IncrementalWriterMatchesTheSerializer)
{
    const ExecutionTrace src = makeTrace(29);
    const std::string path = tempPath("wmr_spill_ok");
    {
        SegmentSpillWriter w;
        ASSERT_TRUE(w.open(path)) << w.lastError();
        spillTrace(src, w, 3, /*andFinish=*/true);
        EXPECT_GT(w.segmentsWritten(), 1u);
    }
    auto res = tryReadSegmentedTraceFile(path);
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_FALSE(res.salvage.salvaged);
    ASSERT_EQ(res.trace.events().size(), src.events().size());
    for (std::size_t i = 0; i < src.events().size(); ++i) {
        EXPECT_EQ(res.trace.events()[i].pairedRelease,
                  src.events()[i].pairedRelease)
            << "event " << i;
    }
    fs::remove(path);
}

TEST(SpillWriter, CrashSealLeavesASalvageableFile)
{
    const ExecutionTrace src = makeTrace(31);
    const std::string path = tempPath("wmr_spill_crash");
    {
        SegmentSpillWriter w;
        ASSERT_TRUE(w.open(path)) << w.lastError();
        // Seal the first few, leave the rest pending, then take the
        // fatal-signal path instead of finish().
        spillTrace(src, w, 4, /*andFinish=*/false);
        ASSERT_TRUE(w.crashSeal()) << w.lastError();
    }
    const auto res = tryReadTraceFile(path, /*salvage=*/true);
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_TRUE(res.salvage.salvaged);
    EXPECT_FALSE(res.salvage.finSeen);
    EXPECT_EQ(res.salvage.eventsRecovered, src.events().size())
        << "crashSeal must flush everything pending";
    fs::remove(path);
}

TEST(SpillWriter, TornFrameIsDroppedExactly)
{
    const ExecutionTrace src = makeTrace(37);
    const std::string path = tempPath("wmr_spill_torn");
    std::uint64_t sealedEvents = 0;
    {
        SegmentSpillWriter w;
        ASSERT_TRUE(w.open(path)) << w.lastError();
        std::size_t half = src.events().size() / 2;
        std::uint64_t ops = 0;
        for (std::size_t i = 0; i < half; ++i) {
            const Event &ev = src.events()[i];
            SegEvent se;
            se.kind = ev.kind;
            se.proc = ev.proc;
            se.firstOp = ev.firstOp;
            se.lastOp = ev.lastOp;
            se.opCount = ev.opCount;
            if (ev.kind == EventKind::Sync) {
                se.syncOp = ev.syncOp;
                if (ev.syncOp.release)
                    se.releaseToken = 1 + ev.id;
                if (ev.pairedRelease != kNoEvent)
                    se.pairedToken = 1 + ev.pairedRelease;
            }
            ops += ev.opCount;
            w.setCounters(ops, 0);
            w.addEvent(se);
        }
        ASSERT_TRUE(w.sealSegment()) << w.lastError();
        sealedEvents = half;
        w.writeTornFrame(); // the crash-mid-segment fault point
    }
    const auto strict = tryReadSegmentedTraceFile(path);
    EXPECT_FALSE(strict.ok());

    const auto res = tryReadTraceFile(path, /*salvage=*/true);
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_TRUE(res.salvage.salvaged);
    EXPECT_EQ(res.salvage.segmentsDropped, 1u);
    EXPECT_EQ(res.salvage.eventsRecovered, sealedEvents);
    fs::remove(path);
}

TEST(SpillWriter, MissingDirectoryFailsOpenCleanly)
{
    SegmentSpillWriter w;
    EXPECT_FALSE(w.open("/nonexistent-dir-wmr/x.trace"));
    EXPECT_FALSE(w.lastError().empty());
    EXPECT_FALSE(w.isOpen());
}

} // namespace
} // namespace wmr
