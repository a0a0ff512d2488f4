/**
 * @file
 * Tests of the in-process runtime tracer (src/rt):
 *
 *  - SpscRing.*:       the per-thread lock-free ring (wraparound,
 *                      full/empty edges, cross-thread stress);
 *  - SyncRegistry.*:   the lock-free sync-object table;
 *  - RtRecord.*:       record mode end to end — annotated REAL
 *                      threads -> recorder -> EVENT trace file ->
 *                      the existing detect analysis reports the
 *                      seeded race (and none on the race-free twin);
 *  - RtInline.*:       inline mode reports the same race through the
 *                      on-the-fly detectors without writing a file;
 *  - RtSpill.*:        crash-resilient segmented spilling — strict
 *                      round trip, crashFlush() salvage, parity with
 *                      the classic container;
 *  - RtOverflow.*:     Drop-policy accounting and foreground drains.
 *
 * The workload mirrors examples/rt_demo_shared.hh: two worker
 * threads deposit into one account under a REAL std::mutex (so these
 * tests stay clean under WMR_SANITIZE=thread); the racy variant
 * merely omits the mutex *annotations*, seeding an annotation-level
 * race the trace analysis must find.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <numeric>
#include <thread>
#include <unistd.h>
#include <vector>

#include "detect/analysis.hh"
#include "rt/ring_buffer.hh"
#include "rt/sync_registry.hh"
#include "rt/tracer.hh"
#include "trace/segmented_io.hh"
#include "trace/trace_io.hh"

namespace fs = std::filesystem;

namespace wmr::rt {
namespace {

// ---------------------------------------------------------------
// SpscRing
// ---------------------------------------------------------------

TEST(SpscRing, FifoAcrossManyWraparounds)
{
    SpscRing<int> ring(8);
    EXPECT_EQ(ring.capacity(), 8u);
    int expected = 0;
    for (int round = 0; round < 100; ++round) {
        // Fill to capacity, then drain, crossing the index mask
        // dozens of times.
        int next = round * 8;
        for (int i = 0; i < 8; ++i)
            ASSERT_TRUE(ring.tryPush(next + i));
        EXPECT_FALSE(ring.tryPush(-1)) << "push into a full ring";
        int v = -1;
        while (ring.tryPop(v))
            EXPECT_EQ(v, expected++);
    }
    EXPECT_EQ(expected, 800);
    int v;
    EXPECT_FALSE(ring.tryPop(v)) << "pop from an empty ring";
}

TEST(SpscRing, PeekLeavesItemInPlace)
{
    SpscRing<int> ring(4);
    ASSERT_TRUE(ring.tryPush(42));
    const int *p1 = ring.peek();
    ASSERT_NE(p1, nullptr);
    EXPECT_EQ(*p1, 42);
    const int *p2 = ring.peek();
    ASSERT_NE(p2, nullptr);
    EXPECT_EQ(*p2, 42) << "peek must not consume";
    ring.popFront();
    EXPECT_EQ(ring.peek(), nullptr);
}

TEST(SpscRing, TwoThreadStressKeepsOrderAndLosesNothing)
{
    constexpr int kItems = 200000;
    SpscRing<int> ring(1 << 10);
    std::uint64_t sum = 0;
    int popped = 0;

    std::thread consumer([&] {
        int v;
        while (popped < kItems) {
            if (ring.tryPop(v)) {
                ASSERT_EQ(v, popped) << "FIFO order broken";
                sum += static_cast<std::uint64_t>(v);
                ++popped;
            } else {
                std::this_thread::yield();
            }
        }
    });
    for (int i = 0; i < kItems; ++i) {
        while (!ring.tryPush(i))
            std::this_thread::yield();
    }
    consumer.join();
    EXPECT_EQ(popped, kItems);
    EXPECT_EQ(sum, static_cast<std::uint64_t>(kItems) *
                       (kItems - 1) / 2);
}

// ---------------------------------------------------------------
// SyncRegistry
// ---------------------------------------------------------------

TEST(SyncRegistry, SameObjectSameSlotDistinctObjectsDistinct)
{
    SyncRegistry reg(16);
    int a, b;
    SyncSlot *sa = reg.findOrInsert(&a);
    SyncSlot *sb = reg.findOrInsert(&b);
    ASSERT_NE(sa, nullptr);
    ASSERT_NE(sb, nullptr);
    EXPECT_NE(sa, sb);
    EXPECT_EQ(reg.findOrInsert(&a), sa);
    EXPECT_EQ(reg.findOrInsert(&b), sb);
    EXPECT_EQ(reg.sizeApprox(), 2u);
}

TEST(SyncRegistry, FullTableDegradesToNullNotCorruption)
{
    SyncRegistry reg(4);
    std::uint64_t objs[8];
    int inserted = 0;
    for (auto &o : objs) {
        if (reg.findOrInsert(&o) != nullptr)
            ++inserted;
    }
    EXPECT_EQ(inserted, 4) << "capacity is a hard ceiling";
    // Registered objects stay findable after the table fills.
    EXPECT_NE(reg.findOrInsert(&objs[0]), nullptr);
}

// ---------------------------------------------------------------
// Shared workload: the miniature bank of the demos.
// ---------------------------------------------------------------

struct Account
{
    std::mutex mu;
    std::uint64_t balance = 0;
    std::uint64_t history[4] = {0, 0, 0, 0};
};

/** Deposit loop over the tracer's direct (non-global) API.  The real
 *  mutex is always held; @p annotateLocks decides whether the tracer
 *  is told about it. */
void
depositLoop(Tracer &t, Account &acct, bool annotateLocks,
            int deposits)
{
    t.threadBegin();
    for (int i = 0; i < deposits; ++i) {
        std::lock_guard<std::mutex> lock(acct.mu);
        if (annotateLocks)
            t.onAcquire(&acct.mu);

        t.onData(&acct.balance, sizeof(acct.balance), false);
        const std::uint64_t v = acct.balance;
        t.onData(&acct.balance, sizeof(acct.balance), true);
        acct.balance = v + 10;
        t.onData(&acct.history[v % 4], sizeof(acct.history[0]),
                 true);
        acct.history[v % 4] += 1;

        if (annotateLocks)
            t.onRelease(&acct.mu);
    }
    t.threadEnd();
}

/** Run the two-worker workload under @p t. */
void
runWorkload(Tracer &t, Account &acct, bool annotateLocks)
{
    std::thread w1(depositLoop, std::ref(t), std::ref(acct),
                   annotateLocks, 4);
    std::thread w2(depositLoop, std::ref(t), std::ref(acct),
                   annotateLocks, 4);
    w1.join();
    w2.join();
}

std::string
tempTracePath(const char *tag)
{
    return (fs::temp_directory_path() /
            (std::string(tag) + "." + std::to_string(::getpid()) +
             ".trace"))
        .string();
}

// ---------------------------------------------------------------
// RtRecord: annotated threads -> recorder -> EVENT trace file ->
// existing analysis.  This is the issue's acceptance round trip.
// ---------------------------------------------------------------

TEST(RtRecord, SeededRaceSurvivesTheFileRoundTrip)
{
    const std::string path = tempTracePath("wmr_rt_racy");
    Account acct;
    TracerConfig cfg;
    cfg.mode = RtMode::Record;
    cfg.tracePath = path;
    {
        Tracer t(cfg);
        runWorkload(t, acct, /*annotateLocks=*/false);
        t.stop();

        const RtStats s = t.stats();
        EXPECT_EQ(s.threadsTraced, 2u);
        EXPECT_EQ(s.recordsDropped, 0u);
        EXPECT_GT(s.opsEmitted, 0u);
        EXPECT_GT(s.eventsEmitted, 0u);

        // The racy word (the balance) must be in the address map and
        // map back to its native granule.
        const Addr w = t.denseAddrOf(&acct.balance);
        ASSERT_NE(w, Tracer::kNoAddr);
        EXPECT_EQ(t.nativeAddrOf(w),
                  reinterpret_cast<const void *>(
                      reinterpret_cast<std::uintptr_t>(
                          &acct.balance) &
                      ~std::uintptr_t(7)));
    }

    // Read the file back through the recoverable path and run the
    // full Section-4 analysis on it: the seeded race must be
    // reported from a FIRST partition.
    auto res = tryReadTraceFile(path);
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_EQ(res.trace.numProcs(), 2u);
    const DetectionResult det = analyzeTrace(std::move(res.trace));
    EXPECT_TRUE(det.anyDataRace());
    EXPECT_GT(det.numDataRaces(), 0u);
    EXPECT_FALSE(det.reportedRaces().empty())
        << "a racy trace must have a first partition to report";
    fs::remove(path);
}

TEST(RtRecord, AnnotatedLocksMakeTheTraceRaceFree)
{
    const std::string path = tempTracePath("wmr_rt_clean");
    Account acct;
    TracerConfig cfg;
    cfg.mode = RtMode::Record;
    cfg.tracePath = path;
    {
        Tracer t(cfg);
        runWorkload(t, acct, /*annotateLocks=*/true);
        t.stop();
        const RtStats s = t.stats();
        EXPECT_GT(s.syncEvents, 0u) << "locks must appear as sync";
        EXPECT_EQ(s.unresolvedPairings + s.registryFull, 0u);
    }
    auto res = tryReadTraceFile(path);
    ASSERT_TRUE(res.ok()) << res.error;
    const DetectionResult det = analyzeTrace(std::move(res.trace));
    EXPECT_FALSE(det.anyDataRace());
    EXPECT_EQ(det.numDataRaces(), 0u);
    fs::remove(path);
}

TEST(RtRecord, InMemoryTraceMatchesTheFile)
{
    // tracePath = "" keeps the trace in memory; takeTrace() must
    // yield the same analysis verdict as the file round trip.
    Account acct;
    TracerConfig cfg;
    cfg.mode = RtMode::Record;
    Tracer t(cfg);
    runWorkload(t, acct, /*annotateLocks=*/false);
    t.stop();
    const DetectionResult det = analyzeTrace(t.takeTrace());
    EXPECT_TRUE(det.anyDataRace());
}

TEST(RtRecord, SyncEventsArePairedReleaseToAcquire)
{
    Account acct;
    TracerConfig cfg;
    cfg.mode = RtMode::Record;
    Tracer t(cfg);
    runWorkload(t, acct, /*annotateLocks=*/true);
    t.stop();
    const ExecutionTrace trace = t.takeTrace();

    std::size_t acquires = 0, paired = 0;
    for (const auto &ev : trace.events()) {
        if (ev.kind != EventKind::Sync || !ev.syncOp.acquire)
            continue;
        ++acquires;
        if (ev.pairedRelease == kNoEvent)
            continue;
        ++paired;
        const Event &rel = trace.events()[ev.pairedRelease];
        ASSERT_EQ(rel.kind, EventKind::Sync);
        EXPECT_TRUE(rel.syncOp.release);
        EXPECT_EQ(rel.syncOp.addr, ev.syncOp.addr)
            << "pairing must stay on one sync object";
    }
    ASSERT_GT(acquires, 0u);
    // Every acquire except each object's first observes a release.
    EXPECT_GE(paired + 1, acquires);
}

// ---------------------------------------------------------------
// RtInline: the same race through the on-the-fly detectors, no file.
// ---------------------------------------------------------------

class RtInlineP : public ::testing::TestWithParam<RtDetector>
{
};

TEST_P(RtInlineP, ReportsTheSeededRaceWithNativeAddress)
{
    Account acct;
    TracerConfig cfg;
    cfg.mode = RtMode::Inline;
    cfg.detector = GetParam();
    Tracer t(cfg);
    runWorkload(t, acct, /*annotateLocks=*/false);
    t.stop();

    const auto races = t.inlineRaces();
    ASSERT_FALSE(races.empty());
    EXPECT_EQ(t.stats().inlineRaces, races.size());
    // Every reported address must map back into the account.
    const auto *lo = reinterpret_cast<const char *>(&acct);
    const auto *hi = lo + sizeof(acct);
    for (const auto &rr : races) {
        ASSERT_NE(rr.nativeAddr, nullptr);
        const auto *p = static_cast<const char *>(rr.nativeAddr);
        EXPECT_TRUE(p >= lo && p < hi)
            << "race reported outside the workload's data";
        EXPECT_NE(rr.race.proc1, rr.race.proc2);
    }
}

TEST_P(RtInlineP, AnnotatedLocksSilenceTheDetector)
{
    Account acct;
    TracerConfig cfg;
    cfg.mode = RtMode::Inline;
    cfg.detector = GetParam();
    Tracer t(cfg);
    runWorkload(t, acct, /*annotateLocks=*/true);
    t.stop();
    EXPECT_TRUE(t.inlineRaces().empty());
    EXPECT_EQ(t.stats().inlineRaces, 0u);
}

INSTANTIATE_TEST_SUITE_P(Detectors, RtInlineP,
                         ::testing::Values(RtDetector::VectorClock,
                                           RtDetector::Epoch),
                         [](const auto &info) {
                             return info.param ==
                                            RtDetector::VectorClock
                                        ? "VectorClock"
                                        : "Epoch";
                         });

// ---------------------------------------------------------------
// RtOverflow: Drop policy accounting, foreground drain.
// ---------------------------------------------------------------

TEST(RtOverflow, DropPolicyCountsEveryLostRecord)
{
    TracerConfig cfg;
    cfg.mode = RtMode::Record;
    cfg.overflow = RtOverflowPolicy::Drop;
    cfg.ringCapacity = 8;
    cfg.backgroundDrain = false; // nobody drains while we push
    Tracer t(cfg);

    t.threadBegin();
    std::uint64_t x = 0;
    constexpr std::uint64_t kPushes = 1000;
    for (std::uint64_t i = 0; i < kPushes; ++i)
        t.onData(&x, sizeof(x), true);
    t.threadEnd();
    t.stop();

    const RtStats s = t.stats();
    EXPECT_GT(s.recordsDropped, 0u);
    EXPECT_EQ(s.recordsCaptured + s.recordsDropped, kPushes);
    EXPECT_EQ(s.opsEmitted, s.recordsCaptured)
        << "everything captured must still drain";
}

TEST(RtOverflow, ForegroundDrainAllMakesRoom)
{
    TracerConfig cfg;
    cfg.mode = RtMode::Record;
    cfg.overflow = RtOverflowPolicy::Drop;
    cfg.ringCapacity = 8;
    cfg.backgroundDrain = false;
    Tracer t(cfg);

    t.threadBegin();
    std::uint64_t x = 0;
    for (int round = 0; round < 100; ++round) {
        for (int i = 0; i < 4; ++i)
            t.onData(&x, sizeof(x), i % 2 == 0);
        t.drainAll(); // frees the ring between bursts
    }
    t.threadEnd();
    t.stop();

    const RtStats s = t.stats();
    EXPECT_EQ(s.recordsDropped, 0u)
        << "drained-between-bursts run must be lossless";
    EXPECT_EQ(s.opsEmitted, 400u);
}

// ---------------------------------------------------------------
// RtSpill: crash-resilient segmented spilling from the recorder.
// ---------------------------------------------------------------

TEST(RtSpill, SpillProducesAStrictReadableSegmentedFile)
{
    const std::string path = tempTracePath("wmr_rt_spill");
    Account acct;
    TracerConfig cfg;
    cfg.mode = RtMode::Record;
    cfg.tracePath = path;
    cfg.spillSegmentBytes = 64; // tiny threshold -> many segments
    {
        Tracer t(cfg);
        runWorkload(t, acct, /*annotateLocks=*/false);
        t.stop();
        const RtStats s = t.stats();
        EXPECT_GT(s.segmentsSpilled, 1u);
        EXPECT_GT(s.spillBytes, 0u);
        EXPECT_EQ(s.spillFailures, 0u);
    }
    // The file is the segmented container, complete (FIN present),
    // and the seeded race survives the incremental path.
    EXPECT_TRUE(fileLooksSegmented(path));

    auto seg = tryReadSegmentedTraceFile(path);
    ASSERT_TRUE(seg.ok()) << seg.error;
    EXPECT_TRUE(seg.salvage.finSeen);
    EXPECT_FALSE(seg.salvage.salvaged);

    // And the loader reads it like any other trace.
    auto res = tryReadTraceFile(path);
    ASSERT_TRUE(res.ok()) << res.error;
    const DetectionResult det = analyzeTrace(std::move(res.trace));
    EXPECT_TRUE(det.anyDataRace());
    EXPECT_FALSE(det.reportedRaces().empty());
    fs::remove(path);
}

TEST(RtSpill, SpilledAndClassicTracesAgreeOnTheVerdict)
{
    const std::string classicPath = tempTracePath("wmr_rt_classic");
    const std::string spillPath = tempTracePath("wmr_rt_spill2");
    for (const bool spill : {false, true}) {
        Account acct;
        TracerConfig cfg;
        cfg.mode = RtMode::Record;
        cfg.tracePath = spill ? spillPath : classicPath;
        cfg.spillSegmentBytes = spill ? 128 : 0;
        Tracer t(cfg);
        runWorkload(t, acct, /*annotateLocks=*/true);
        t.stop();
    }
    auto a = tryReadTraceFile(classicPath);
    auto b = tryReadTraceFile(spillPath);
    ASSERT_TRUE(a.ok()) << a.error;
    ASSERT_TRUE(b.ok()) << b.error;
    EXPECT_EQ(a.trace.events().size(), b.trace.events().size());
    EXPECT_EQ(a.trace.numSyncEvents(), b.trace.numSyncEvents());
    const DetectionResult da = analyzeTrace(std::move(a.trace));
    const DetectionResult db = analyzeTrace(std::move(b.trace));
    EXPECT_EQ(da.anyDataRace(), db.anyDataRace());
    EXPECT_EQ(da.numDataRaces(), db.numDataRaces());
    fs::remove(classicPath);
    fs::remove(spillPath);
}

TEST(RtSpill, CrashFlushLeavesASalvageableTrace)
{
    // Simulate the fatal-signal path without dying: crashFlush() is
    // exactly what the installed handlers call.  Crash flush can only
    // save events that have CLOSED (open events are still in flux in
    // the owning threads); maxCompRun bounds how much of an
    // unsynchronized run stays open, i.e. the worst-case crash loss.
    const std::string path = tempTracePath("wmr_rt_crashflush");
    Account acct;
    TracerConfig cfg;
    cfg.mode = RtMode::Record;
    cfg.tracePath = path;
    cfg.spillSegmentBytes = 1 << 20; // never reaches the threshold
    cfg.backgroundDrain = false;     // we drain, deterministically
    cfg.maxCompRun = 2;              // close events every 2 ops
    auto *t = new Tracer(cfg);
    runWorkload(*t, acct, /*annotateLocks=*/false);
    t->drainAll();
    ASSERT_TRUE(t->crashFlush());
    // The process "died": the tracer is abandoned, never stop()ed.
    // (Leaked deliberately; its drain thread keeps the file open.)

    auto strict = tryReadSegmentedTraceFile(path);
    EXPECT_FALSE(strict.ok()) << "no FIN must fail the strict read";

    auto res = tryReadTraceFile(path, /*salvage=*/true);
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_TRUE(res.salvage.salvaged);
    EXPECT_FALSE(res.salvage.finSeen);
    EXPECT_GT(res.salvage.eventsRecovered, 0u);
    const DetectionResult det = analyzeTrace(std::move(res.trace));
    EXPECT_TRUE(det.anyDataRace())
        << "the seeded race must survive the crash flush";
    fs::remove(path);
}

TEST(RtSpill, SpillStatsStayZeroWhenDisabled)
{
    Account acct;
    TracerConfig cfg;
    cfg.mode = RtMode::Record; // no tracePath, no spill
    Tracer t(cfg);
    runWorkload(t, acct, /*annotateLocks=*/false);
    t.stop();
    const RtStats s = t.stats();
    EXPECT_EQ(s.segmentsSpilled, 0u);
    EXPECT_EQ(s.spillBytes, 0u);
    EXPECT_EQ(s.spillFailures, 0u);
}

TEST(RtOverflow, SyncRecordsAreNeverDropped)
{
    TracerConfig cfg;
    cfg.mode = RtMode::Record;
    cfg.overflow = RtOverflowPolicy::Drop;
    cfg.ringCapacity = 1 << 8;
    cfg.backgroundDrain = false;
    Tracer t(cfg);

    t.threadBegin();
    std::uint64_t x = 0;
    int m;
    for (int i = 0; i < 20; ++i) {
        t.onAcquire(&m);
        t.onData(&x, sizeof(x), true);
        t.onRelease(&m);
    }
    t.threadEnd();
    t.stop();

    const RtStats s = t.stats();
    EXPECT_EQ(s.recordsDropped, 0u);
    EXPECT_EQ(s.syncEvents, 40u) << "20 acquires + 20 releases";
}

} // namespace
} // namespace wmr::rt
