/**
 * @file
 * Unit tests of the trace layer: event construction (Section 4.1),
 * READ/WRITE sets, so1 pairing, and trace file round trips through
 * the loader.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "prog/builder.hh"
#include "sim/executor.hh"
#include "trace/execution_trace.hh"
#include "trace/segmented_io.hh"
#include "trace/trace_io.hh"
#include "trace/wire_codec.hh"
#include "workload/patterns.hh"

namespace wmr {
namespace {

ExecutionResult
runFig1b()
{
    ExecOptions opts;
    opts.model = ModelKind::WO;
    opts.seed = 3;
    return runProgram(figure1b(), opts);
}

TEST(Events, ComputationEventsGroupConsecutiveDataOps)
{
    // P1 of figure 1b: two data writes then an Unset -> one
    // computation event then one sync event.
    const auto res = runFig1b();
    const auto trace = buildTrace(res);
    const auto &p1 = trace.procEvents(0);
    ASSERT_GE(p1.size(), 2u);
    EXPECT_EQ(trace.event(p1[0]).kind, EventKind::Computation);
    EXPECT_EQ(trace.event(p1[0]).opCount, 2u);
    EXPECT_EQ(trace.event(p1[1]).kind, EventKind::Sync);
    EXPECT_TRUE(trace.event(p1[1]).syncOp.release);
}

TEST(Events, ReadWriteSetsAreExact)
{
    const auto res = runFig1b();
    const auto trace = buildTrace(res);
    const Event &comp = trace.event(trace.procEvents(0)[0]);
    EXPECT_EQ(comp.writeSet, (std::vector<Addr>{0, 1})); // x, y
    EXPECT_TRUE(comp.readSet.empty());
    EXPECT_TRUE(comp.writes(0));
    EXPECT_FALSE(comp.reads(0));
}

TEST(Events, SyncEventsCarryTheirOp)
{
    const auto res = runFig1b();
    const auto trace = buildTrace(res);
    // Sync order on the lock location (addr 2) is recorded.
    const auto it = trace.syncOrder().find(2);
    ASSERT_NE(it, trace.syncOrder().end());
    EXPECT_GE(it->second.size(), 3u); // >=1 tas pair + unset
}

TEST(Events, So1PairingResolvesReleaseToAcquire)
{
    const auto res = runFig1b();
    const auto trace = buildTrace(res);
    // Find the successful tas acquire (read of value 0).
    EventId acquire = kNoEvent;
    EventId release = kNoEvent;
    for (const auto &ev : trace.events()) {
        if (ev.kind != EventKind::Sync)
            continue;
        if (ev.syncOp.acquire && ev.syncOp.value == 0)
            acquire = ev.id;
        if (ev.syncOp.release)
            release = ev.id;
    }
    ASSERT_NE(acquire, kNoEvent);
    ASSERT_NE(release, kNoEvent);
    EXPECT_EQ(trace.event(acquire).pairedRelease, release);
}

TEST(Events, FailedTasDoesNotPair)
{
    // A tas that read 1 (lock busy) observed a non-release write (or
    // the initial image) and must not create an so1 edge.
    const auto res = runFig1b();
    const auto trace = buildTrace(res);
    for (const auto &ev : trace.events()) {
        if (ev.kind == EventKind::Sync && ev.syncOp.acquire &&
            ev.syncOp.value != 0) {
            EXPECT_EQ(ev.pairedRelease, kNoEvent);
        }
    }
}

TEST(Events, MemberOpsRetainedWhenRequested)
{
    const auto res = runFig1b();
    const auto with = buildTrace(res, {.keepMemberOps = true});
    const auto without = buildTrace(res, {.keepMemberOps = false});
    const Event &a = with.event(with.procEvents(0)[0]);
    const Event &b = without.event(without.procEvents(0)[0]);
    EXPECT_EQ(a.memberOps.size(), 2u);
    EXPECT_TRUE(b.memberOps.empty());
    EXPECT_EQ(a.opCount, b.opCount);
}

TEST(Events, MaxCompRunSplitsEvents)
{
    ThreadBuilder t;
    for (Addr a = 0; a < 10; ++a)
        t.storei(a, 1);
    t.halt();
    ProgramBuilder pb;
    pb.thread(t);
    const auto res = runProgram(pb.build());
    const auto trace = buildTrace(res, {.maxCompRun = 3});
    EXPECT_EQ(trace.procEvents(0).size(), 4u); // 3+3+3+1
}

TEST(Events, StaleReadCarriedIntoTrace)
{
    ExecOptions opts;
    opts.model = ModelKind::WO;
    opts.drainLaziness = 1.0;
    // Find a seed with a stale read in figure 1a.
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
        opts.seed = seed;
        const auto res = runProgram(figure1a(), opts);
        if (res.firstStaleRead != kNoOp) {
            const auto trace = buildTrace(res);
            EXPECT_EQ(trace.firstStaleRead(), res.firstStaleRead);
            return;
        }
    }
    FAIL() << "no stale seed found";
}

TEST(Events, IndexInProcAndPoOrder)
{
    const auto res = runFig1b();
    const auto trace = buildTrace(res);
    for (ProcId p = 0; p < trace.numProcs(); ++p) {
        const auto &seq = trace.procEvents(p);
        for (std::size_t i = 0; i < seq.size(); ++i) {
            EXPECT_EQ(trace.event(seq[i]).indexInProc, i);
            EXPECT_EQ(trace.event(seq[i]).proc, p);
            if (i > 0) {
                EXPECT_LT(trace.event(seq[i - 1]).lastOp,
                          trace.event(seq[i]).firstOp);
            }
        }
    }
}

TEST(EventConflicts, ComputationVsComputation)
{
    Event a, b;
    a.kind = b.kind = EventKind::Computation;
    a.writeSet = {3};
    b.readSet = {3};
    EXPECT_TRUE(eventsConflict(a, b));
    EXPECT_EQ(conflictAddrs(a, b), std::vector<Addr>{3});
    b.readSet = {4};
    EXPECT_FALSE(eventsConflict(a, b));
}

TEST(EventConflicts, ReadReadDoesNotConflict)
{
    Event a, b;
    a.kind = b.kind = EventKind::Computation;
    a.readSet = {3};
    b.readSet = {3};
    EXPECT_FALSE(eventsConflict(a, b));
}

TEST(EventConflicts, SyncVsComputation)
{
    Event s, c;
    s.kind = EventKind::Sync;
    s.syncOp.kind = OpKind::Write;
    s.syncOp.addr = 5;
    c.kind = EventKind::Computation;
    c.readSet = {5};
    EXPECT_TRUE(eventsConflict(s, c));
    EXPECT_TRUE(eventsConflict(c, s));
    // Sync read vs computation read: no conflict.
    s.syncOp.kind = OpKind::Read;
    EXPECT_FALSE(eventsConflict(s, c));
    c.writeSet = {5};
    EXPECT_TRUE(eventsConflict(s, c));
}

TEST(TraceIo, SerializeRoundTrip)
{
    // WMRSEG01 carries everything the analysis reads; member ops are
    // the one field it drops (no trace consumer reads them).
    const auto res = runFig1b();
    const auto trace = buildTrace(res);
    const auto loaded = tryDeserializeTrace(serializeSegmentedTrace(trace));
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    EXPECT_TRUE(loaded.segmented);
    const ExecutionTrace &back = loaded.trace;

    ASSERT_EQ(back.events().size(), trace.events().size());
    EXPECT_EQ(back.numProcs(), trace.numProcs());
    EXPECT_EQ(back.memWords(), trace.memWords());
    EXPECT_EQ(back.firstStaleRead(), trace.firstStaleRead());
    EXPECT_EQ(back.totalOps(), trace.totalOps());
    for (std::size_t i = 0; i < trace.events().size(); ++i) {
        const Event &a = trace.events()[i];
        const Event &b = back.events()[i];
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.proc, b.proc);
        EXPECT_EQ(a.firstOp, b.firstOp);
        EXPECT_EQ(a.lastOp, b.lastOp);
        EXPECT_EQ(a.opCount, b.opCount);
        EXPECT_EQ(a.pairedRelease, b.pairedRelease);
        EXPECT_EQ(a.readSet, b.readSet);
        EXPECT_EQ(a.writeSet, b.writeSet);
        EXPECT_TRUE(b.memberOps.empty());
        if (a.kind == EventKind::Sync) {
            EXPECT_EQ(a.syncOp.addr, b.syncOp.addr);
            EXPECT_EQ(a.syncOp.value, b.syncOp.value);
            EXPECT_EQ(a.syncOp.release, b.syncOp.release);
            EXPECT_EQ(a.syncOp.observedWrite, b.syncOp.observedWrite);
        }
    }
    // Sync order reconstructed identically.
    EXPECT_EQ(back.syncOrder(), trace.syncOrder());
}

TEST(TraceIo, FileRoundTrip)
{
    const auto res = runFig1b();
    const auto trace = buildTrace(res);
    const std::string path = "/tmp/wmr_test_trace.bin";
    const std::size_t bytes = writeSegmentedTraceFile(trace, path);
    EXPECT_GT(bytes, 0u);
    EXPECT_TRUE(fileLooksSegmented(path));
    const auto back = tryReadTraceFile(path);
    ASSERT_TRUE(back.ok()) << back.error;
    EXPECT_EQ(back.trace.events().size(), trace.events().size());
    std::remove(path.c_str());
}

TEST(TraceIo, RejectsGarbage)
{
    std::vector<std::uint8_t> junk{'n', 'o', 't', 'a', 't', 'r',
                                   'c', '!'};
    const auto res = tryDeserializeTrace(junk);
    EXPECT_EQ(res.status, TraceIoStatus::FormatError);
    EXPECT_NE(res.error.find("unrecognized magic"), std::string::npos)
        << res.error;
}

TEST(TraceIo, RejectsTruncation)
{
    const auto res = runFig1b();
    auto bytes = serializeSegmentedTrace(buildTrace(res));
    bytes.resize(bytes.size() / 2);
    const auto loaded = tryDeserializeTrace(bytes);
    EXPECT_EQ(loaded.status, TraceIoStatus::FormatError);
    EXPECT_NE(loaded.error.find("recovered with salvage"),
              std::string::npos)
        << loaded.error;
}

// --- Magic sniffing: each container names itself precisely -------
//
// tryDeserializeTrace()'s error for a wrong-format or garbage header
// must say WHICH magic was found (and escape unprintable bytes), so
// a misrouted upload to `wmrace serve` or a mis-fed batch corpus
// diagnoses itself from the error string alone.

TEST(TraceIoMagic, ShortInputNamesItsLength)
{
    const std::vector<std::uint8_t> tiny{'W', 'M', 'R'};
    const auto res = tryDeserializeTrace(tiny);
    EXPECT_EQ(res.status, TraceIoStatus::FormatError);
    EXPECT_NE(res.error.find("3 byte(s) is shorter than any "
                             "wmrace container header"),
              std::string::npos)
        << res.error;
}

TEST(TraceIoMagic, FullOpMagicIsCrossReferenced)
{
    std::vector<std::uint8_t> bytes{'W', 'M', 'R', 'F',
                                    'O', 'P', '0', '1'};
    const auto res = tryDeserializeTrace(bytes);
    EXPECT_EQ(res.status, TraceIoStatus::FormatError);
    EXPECT_NE(res.error.find("full-op file (WMRFOP01)"),
              std::string::npos)
        << res.error;
}

TEST(TraceIoMagic, UnrecognizedMagicIsQuoted)
{
    std::vector<std::uint8_t> bytes{'N', 'O', 'T', 'A',
                                    'T', 'R', 'C', '!'};
    const auto res = tryDeserializeTrace(bytes);
    EXPECT_EQ(res.status, TraceIoStatus::FormatError);
    EXPECT_NE(res.error.find("unrecognized magic \"NOTATRC!\""),
              std::string::npos)
        << res.error;
    EXPECT_NE(res.error.find("WMRTRC01, WMRSEG01 or WMRFOP01"),
              std::string::npos)
        << res.error;
}

TEST(TraceIoMagic, UnprintableMagicBytesAreEscaped)
{
    std::vector<std::uint8_t> bytes(16, 0x01);
    const auto res = tryDeserializeTrace(bytes);
    EXPECT_EQ(res.status, TraceIoStatus::FormatError);
    EXPECT_NE(res.error.find("\\x01"), std::string::npos)
        << res.error;
}

TEST(TraceIo, FullOpFormatIsLargerThanEventFormat)
{
    // The point of Section 4.1's bit-vector events: tracing every
    // operation costs (much) more than tracing events.
    ExecOptions opts;
    opts.model = ModelKind::WO;
    opts.seed = 1;
    const auto res = runProgram(figure2Queue({.regionSize = 64}), opts);
    const auto eventBytes =
        serializeSegmentedTrace(buildTrace(res)).size();
    // The per-operation encoding: one MemOp record per operation.
    wire::Encoder fullOps;
    for (const MemOp &op : res.ops)
        wire::encodeMemOp(fullOps, op);
    EXPECT_GT(fullOps.size(), eventBytes);
}

} // namespace
} // namespace wmr
