/**
 * @file
 * Unit tests of the fault-injection registry (src/fault/): spec
 * grammar, trigger semantics (once/nth/after/probability), seeded
 * determinism, parameter plumbing, obs counter export — plus
 * integration through the segmented trace container, proving the
 * injected I/O faults degrade into the typed salvage/error paths
 * instead of crashes.
 *
 * Every test (re)configures the process-wide registry through the
 * fault::configure() test hook and the fixture disables it again on
 * teardown, so the suite leaves no schedule behind for other tests
 * in the binary.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <string>
#include <vector>

#include "detect/report.hh"
#include "fault/fault.hh"
#include "obs/obs.hh"
#include "stream/stream_analyzer.hh"
#include "trace/segmented_io.hh"
#include "trace/trace_io.hh"
#include "workload/scenarios.hh"

namespace wmr {
namespace {

class FaultTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ASSERT_TRUE(fault::configure("", 0));
    }

    void
    TearDown() override
    {
        ASSERT_TRUE(fault::configure("", 0));
    }
};

TEST_F(FaultTest, DisabledRegistryNeverFires)
{
    std::uint64_t param = 42;
    EXPECT_FALSE(fault::at("nothing.here", &param));
    EXPECT_EQ(param, 0u);
    EXPECT_FALSE(fault::configured("nothing.here"));
    EXPECT_EQ(fault::hits("nothing.here"), 0u);
    EXPECT_EQ(fault::paramOr("nothing.here", 7), 7u);
}

TEST_F(FaultTest, BareSiteFiresOnEveryHit)
{
    ASSERT_TRUE(fault::configure("a.b", 0));
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(fault::at("a.b"));
    EXPECT_FALSE(fault::at("a.other")); // unlisted site: inert
    EXPECT_EQ(fault::hits("a.b"), 5u);
    EXPECT_EQ(fault::fired("a.b"), 5u);
    EXPECT_TRUE(fault::configured("a.b"));
    EXPECT_FALSE(fault::configured("a.other"));
}

TEST_F(FaultTest, OnceFiresOnFirstHitOnly)
{
    ASSERT_TRUE(fault::configure("a.b@once", 0));
    EXPECT_TRUE(fault::at("a.b"));
    EXPECT_FALSE(fault::at("a.b"));
    EXPECT_FALSE(fault::at("a.b"));
    EXPECT_EQ(fault::hits("a.b"), 3u);
    EXPECT_EQ(fault::fired("a.b"), 1u);
}

TEST_F(FaultTest, NthFiresExactlyOnTheNthHit)
{
    ASSERT_TRUE(fault::configure("a.b@n3", 0));
    EXPECT_FALSE(fault::at("a.b"));
    EXPECT_FALSE(fault::at("a.b"));
    EXPECT_TRUE(fault::at("a.b"));
    EXPECT_FALSE(fault::at("a.b"));
    EXPECT_EQ(fault::fired("a.b"), 1u);
}

TEST_F(FaultTest, AfterFiresOnEveryHitPastTheThreshold)
{
    ASSERT_TRUE(fault::configure("a.b@after2", 0));
    EXPECT_FALSE(fault::at("a.b"));
    EXPECT_FALSE(fault::at("a.b"));
    EXPECT_TRUE(fault::at("a.b"));
    EXPECT_TRUE(fault::at("a.b"));
    EXPECT_EQ(fault::fired("a.b"), 2u);
}

TEST_F(FaultTest, ParamIsDeliveredAndComposesWithTriggers)
{
    ASSERT_TRUE(fault::configure("a.b@5", 0));
    std::uint64_t param = 0;
    EXPECT_TRUE(fault::at("a.b", &param));
    EXPECT_EQ(param, 5u);
    EXPECT_EQ(fault::paramOr("a.b", 9), 5u);

    // Trigger + param in one spec: fires on hit 2 with param 7.
    ASSERT_TRUE(fault::configure("a.b@n2:7", 0));
    param = 99;
    EXPECT_FALSE(fault::at("a.b", &param));
    EXPECT_EQ(param, 7u); // param is reported on every hit
    EXPECT_TRUE(fault::at("a.b", &param));
    EXPECT_EQ(param, 7u);
}

TEST_F(FaultTest, MultipleEntriesAreIndependent)
{
    ASSERT_TRUE(fault::configure("a.b@once,c.d@n2:31", 0));
    EXPECT_TRUE(fault::at("a.b"));
    EXPECT_FALSE(fault::at("a.b"));
    std::uint64_t param = 0;
    EXPECT_FALSE(fault::at("c.d", &param));
    EXPECT_TRUE(fault::at("c.d", &param));
    EXPECT_EQ(param, 31u);
    EXPECT_EQ(fault::hits("a.b"), 2u);
    EXPECT_EQ(fault::hits("c.d"), 2u);
}

TEST_F(FaultTest, ProbabilityScheduleIsSeedDeterministic)
{
    const auto schedule = [](std::uint64_t seed) {
        EXPECT_TRUE(fault::configure("a.b@p0.5", seed));
        std::vector<bool> out;
        for (int i = 0; i < 64; ++i)
            out.push_back(fault::at("a.b"));
        return out;
    };
    const auto s0 = schedule(1234);
    const auto s0again = schedule(1234);
    const auto s1 = schedule(99);
    EXPECT_EQ(s0, s0again);
    EXPECT_NE(s0, s1); // 2^-64 flake odds: the seeds disagree

    // A fair coin over 64 hits lands well inside [8, 56].
    std::size_t firedCount = 0;
    for (const bool b : s0)
        firedCount += b ? 1 : 0;
    EXPECT_GT(firedCount, 8u);
    EXPECT_LT(firedCount, 56u);

    // Degenerate probabilities are exact, not approximate.
    EXPECT_TRUE(fault::configure("a.b@p0", 7));
    for (int i = 0; i < 16; ++i)
        EXPECT_FALSE(fault::at("a.b"));
    EXPECT_TRUE(fault::configure("a.b@p1.0", 7));
    for (int i = 0; i < 16; ++i)
        EXPECT_TRUE(fault::at("a.b"));
}

TEST_F(FaultTest, SeedIsVisibleAndReconfigureResetsCounters)
{
    ASSERT_TRUE(fault::configure("a.b", 77));
    EXPECT_EQ(fault::seed(), 77u);
    EXPECT_TRUE(fault::at("a.b"));
    ASSERT_TRUE(fault::configure("a.b", 77));
    EXPECT_EQ(fault::hits("a.b"), 0u); // fresh sites, fresh counts
}

TEST_F(FaultTest, GrammarViolationsDisableTheRegistry)
{
    const char *bad[] = {
        "@n1",          // empty site name
        "a.b@",         // empty spec field
        "a.b@n0",       // hits are 1-based
        "a.b@nbanana",  // not a count
        "a.b@p1.5",     // probability outside [0,1]
        "a.b@pbanana",  // not a float
        "a.b@bogus",    // unknown field
        "a.b,,c.d",     // stray comma
        "a.b@n2:whee",  // bad second field
    };
    for (const char *spec : bad) {
        ASSERT_TRUE(fault::configure("a.b", 0));
        std::string error;
        EXPECT_FALSE(fault::configure(spec, 0, &error))
            << "spec '" << spec << "' should be rejected";
        EXPECT_FALSE(error.empty()) << spec;
        // The failed configure tore down the old schedule too: a
        // chaos run must fail loudly, never soak fault-free.
        EXPECT_FALSE(fault::at("a.b")) << spec;
    }
}

TEST_F(FaultTest, ObsCountersTrackHitsAndFires)
{
    ASSERT_TRUE(fault::configure("x.y@n2", 0));
    const std::uint64_t hits0 = obs::counter("fault.x.y.hits").value();
    const std::uint64_t fired0 = obs::counter("fault.x.y").value();
    EXPECT_FALSE(fault::at("x.y"));
    EXPECT_TRUE(fault::at("x.y"));
    EXPECT_FALSE(fault::at("x.y"));
    EXPECT_EQ(obs::counter("fault.x.y.hits").value() - hits0, 3u);
    EXPECT_EQ(obs::counter("fault.x.y").value() - fired0, 1u);

    // Externally-managed faults (the legacy tracer machinery) report
    // through the same counter namespace.
    const std::uint64_t rt0 =
        obs::counter("fault.rt.slow-child").value();
    fault::noteFired("rt.slow-child");
    EXPECT_EQ(obs::counter("fault.rt.slow-child").value() - rt0, 1u);
}

// ---------------------------------------------------------------
// Integration through the segmented trace container: the injected
// I/O faults must land in the typed degradation paths.
// ---------------------------------------------------------------

namespace {

std::vector<std::uint8_t>
segmentedBytes()
{
    const auto s = stageFigure2bExecution({.regionSize = 6,
                                           .staleOffset = 2});
    return serializeSegmentedTrace(
        buildTrace(s.result, {.keepMemberOps = true}), 4);
}

struct TempFile
{
    std::string path;

    explicit TempFile(const std::vector<std::uint8_t> &bytes)
    {
        char buf[] = "/tmp/wmr_fault_XXXXXX";
        const int fd = ::mkstemp(buf);
        EXPECT_GE(fd, 0);
        path = buf;
        std::FILE *f = ::fdopen(fd, "wb");
        if (!bytes.empty()) {
            EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                      bytes.size());
        }
        std::fclose(f);
    }

    ~TempFile() { std::remove(path.c_str()); }
};

} // namespace

TEST_F(FaultTest, InjectedBitflipFailsStrictReadButSalvages)
{
    TempFile file(segmentedBytes());

    // Clean baseline.
    EXPECT_TRUE(tryReadSegmentedTraceFile(file.path).ok());

    // A flipped bit inside the second frame (byte 0 would destroy
    // the magic, which not even salvage accepts; the first frame
    // would leave salvage nothing to recover) breaks a frame CRC:
    // the strict reader refuses with a typed error pointing at
    // salvage...
    const std::vector<std::uint8_t> bytes = segmentedBytes();
    // Past the magic and the first frame (u32le len, payload, crc).
    const std::size_t len1 = bytes[8] | bytes[9] << 8 |
                             bytes[10] << 16 |
                             static_cast<std::size_t>(bytes[11]) << 24;
    const std::size_t frame2 = 8 + 4 + len1 + 4;
    const std::string flip =
        "trace.read.bitflip@n1:" + std::to_string(frame2 + 6);
    ASSERT_TRUE(fault::configure(flip, 0));
    const auto strict = tryReadSegmentedTraceFile(file.path);
    EXPECT_FALSE(strict.ok());
    EXPECT_FALSE(strict.error.empty());

    // ...and the salvage reader recovers the undamaged prefix.
    ASSERT_TRUE(fault::configure(flip, 0));
    const auto salvage = tryReadTraceFile(file.path, /*salvage=*/true);
    EXPECT_TRUE(salvage.ok());
    EXPECT_TRUE(salvage.salvage.salvaged);
}

TEST_F(FaultTest, InjectedShortReadDropsTheTailIntoSalvage)
{
    TempFile file(segmentedBytes());
    ASSERT_TRUE(fault::configure("trace.read.short@n1", 0));
    const auto strict = tryReadSegmentedTraceFile(file.path);
    EXPECT_FALSE(strict.ok()); // FIN frame is torn

    ASSERT_TRUE(fault::configure("trace.read.short@n1", 0));
    const auto salvage = tryReadTraceFile(file.path, /*salvage=*/true);
    EXPECT_TRUE(salvage.ok());
    EXPECT_TRUE(salvage.salvage.salvaged);
}

TEST_F(FaultTest, SpillWriterAbsorbsInjectedEintrStorms)
{
    // Every write syscall first fails with a 3-long EINTR storm; the
    // writer's retry loop must absorb all of them invisibly.
    ASSERT_TRUE(fault::configure("trace.seg.write.eintr@3", 0));

    TempFile file({});
    SegmentSpillWriter w;
    ASSERT_TRUE(w.open(file.path)) << w.lastError();
    SegEvent ev;
    ev.kind = EventKind::Computation;
    ev.proc = 0;
    ev.firstOp = 0;
    ev.lastOp = 0;
    ev.opCount = 1;
    ev.writeWords = {0};
    w.addEvent(ev);
    ASSERT_TRUE(w.sealSegment()) << w.lastError();
    SegShape shape;
    shape.procs = 1;
    shape.memWords = 1;
    shape.totalOps = 1;
    ASSERT_TRUE(w.finish(shape)) << w.lastError();
    EXPECT_GT(fault::fired("trace.seg.write.eintr"), 0u);

    // The retried file is byte-perfect: the strict reader accepts.
    ASSERT_TRUE(fault::configure("", 0));
    EXPECT_TRUE(tryReadSegmentedTraceFile(file.path).ok());
}

TEST_F(FaultTest, TailReaderStallFaultHoldsAtWaiting)
{
    TempFile file(segmentedBytes());
    SegmentTailReader r;
    ASSERT_TRUE(r.open(file.path));
    std::vector<SegTailSegment> segs;

    // Stalled tail: the reader reports Waiting — the live-follow
    // contract ("more may come"), never a hang or false damage.
    ASSERT_TRUE(fault::configure("stream.tail.stall", 0));
    EXPECT_EQ(r.poll(segs), TailPollStatus::Waiting);
    EXPECT_TRUE(segs.empty());

    // Stall lifted: the complete on-disk file decodes through FIN.
    ASSERT_TRUE(fault::configure("", 0));
    TailPollStatus st = r.poll(segs);
    while (st == TailPollStatus::Progress)
        st = r.poll(segs);
    EXPECT_EQ(st, TailPollStatus::Fin);
    EXPECT_TRUE(r.finalize(true)) << r.error();
}

TEST_F(FaultTest, TailStallOnCompleteFileIsInvisible)
{
    // A stalled poll means "no new bytes yet", never "the stream
    // ended": analyzing a complete file through a stall must give
    // the unfaulted report, wherever the stall lands.
    TempFile file(segmentedBytes());
    const StreamResult clean = streamAnalyzeFile(file.path, {});
    ASSERT_TRUE(clean.ok) << clean.error;
    for (const char *spec :
         {"stream.tail.stall@n1", "stream.tail.stall@n2"}) {
        ASSERT_TRUE(fault::configure(spec, 0));
        const StreamResult sr = streamAnalyzeFile(file.path, {});
        EXPECT_GT(fault::fired("stream.tail.stall"), 0u) << spec;
        ASSERT_TRUE(sr.ok) << spec << ": " << sr.error;
        EXPECT_EQ(renderReport(sr.report, nullptr, {}),
                  renderReport(clean.report, nullptr, {}))
            << spec;
    }
}

TEST_F(FaultTest, TailReaderDamageFaultIsTypedDamaged)
{
    TempFile file(segmentedBytes());
    SegmentTailReader r;
    ASSERT_TRUE(r.open(file.path));
    std::vector<SegTailSegment> segs;
    ASSERT_TRUE(fault::configure("stream.tail.damage@n1", 0));
    TailPollStatus st = r.poll(segs);
    while (st == TailPollStatus::Progress)
        st = r.poll(segs);
    EXPECT_EQ(st, TailPollStatus::Damaged);
    // Tolerant finalize folds the damage into salvage accounting —
    // the streaming twin of trySalvageTrace.
    EXPECT_TRUE(r.finalize(false));
    EXPECT_TRUE(r.salvage().salvaged);
}

TEST_F(FaultTest, SpillWriterSurfacesInjectedEnospcAsTypedError)
{
    ASSERT_TRUE(fault::configure("trace.seg.write.enospc@n1", 0));
    TempFile file({});
    SegmentSpillWriter w;
    // open() writes the magic — that is the first frame-ish write;
    // the injected ENOSPC lands on the first writeFrame call.
    ASSERT_TRUE(w.open(file.path)) << w.lastError();
    SegEvent ev;
    ev.kind = EventKind::Computation;
    ev.proc = 0;
    ev.opCount = 1;
    ev.writeWords = {0};
    w.addEvent(ev);
    errno = 0;
    EXPECT_FALSE(w.sealSegment());
    EXPECT_FALSE(w.lastError().empty());
    EXPECT_EQ(errno, ENOSPC);
}

} // namespace
} // namespace wmr
