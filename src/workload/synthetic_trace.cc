#include "workload/synthetic_trace.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "trace/segmented_io.hh"

namespace wmr {

ExecutionTrace
makeSyntheticTrace(const SyntheticTraceOptions &opts)
{
    wmr_assert(opts.procs > 0);
    wmr_assert(opts.memWords > 0);
    const Addr syncWords =
        std::min<Addr>(std::max<Addr>(opts.syncWords, 1),
                       opts.memWords);
    const Addr dataBase = syncWords < opts.memWords ? syncWords : 0;
    const Addr dataSpan = opts.memWords - dataBase;
    const Addr hotWords =
        std::min<Addr>(std::max<Addr>(opts.hotWords, 1), dataSpan);

    Rng rng(opts.seed);
    ExecutionTrace trace;
    trace.setShape(opts.procs, opts.memWords);

    // Latest release sync event seen per sync word, across all
    // processors — the pairing target of later acquires.  Events are
    // added in chronological (round-robin step) order, so a paired
    // release always has a smaller event id than its acquire and the
    // resulting hb1 graph is acyclic, like a real execution's.
    std::vector<EventId> lastRelease(syncWords, kNoEvent);

    const auto dataAddr = [&]() -> Addr {
        if (rng.chance(opts.hotFraction))
            return dataBase + static_cast<Addr>(rng.below(hotWords));
        return dataBase + static_cast<Addr>(rng.below(dataSpan));
    };

    OpId nextOp = 0;
    std::uint64_t totalOps = 0;

    // Round-robin interleave: step-major, processor-minor.
    for (std::uint32_t step = 0; step < opts.eventsPerProc; ++step) {
        for (ProcId p = 0; p < opts.procs; ++p) {
            Event ev;
            ev.proc = p;
            if (rng.chance(opts.syncFraction)) {
                ev.kind = EventKind::Sync;
                const Addr w =
                    static_cast<Addr>(rng.below(syncWords));
                MemOp &op = ev.syncOp;
                op.id = nextOp;
                op.proc = p;
                op.sync = true;
                op.addr = w;
                if (rng.chance(opts.acquireFraction)) {
                    op.kind = OpKind::Read;
                    op.acquire = true;
                    if (lastRelease[w] != kNoEvent &&
                        rng.chance(opts.pairFraction))
                        ev.pairedRelease = lastRelease[w];
                } else {
                    op.kind = OpKind::Write;
                    op.release = true;
                }
                ev.firstOp = ev.lastOp = nextOp;
                ev.opCount = 1;
                ++nextOp;
                ++totalOps;
                const EventId id = trace.addEvent(std::move(ev));
                if (trace.event(id).syncOp.release)
                    lastRelease[w] = id;
            } else {
                ev.kind = EventKind::Computation;
                const auto nr = 1 + rng.below(opts.maxReads);
                const auto nw = rng.below(opts.maxWrites + 1);
                for (std::uint64_t i = 0; i < nr; ++i)
                    ev.readSet.push_back(dataAddr());
                for (std::uint64_t i = 0; i < nw; ++i)
                    ev.writeSet.push_back(dataAddr());
                const auto ops = nr + nw;
                ev.firstOp = nextOp;
                ev.lastOp = static_cast<OpId>(nextOp + ops - 1);
                ev.opCount = static_cast<std::uint32_t>(ops);
                nextOp = static_cast<OpId>(nextOp + ops);
                totalOps += ops;
                trace.addEvent(std::move(ev));
            }
        }
    }

    trace.setTotalOps(totalOps);
    return trace;
}

std::size_t
writeSyntheticSegmentedTraceFile(const SyntheticTraceOptions &opts,
                                 const std::string &path,
                                 std::size_t eventsPerSegment)
{
    wmr_assert(opts.procs > 0);
    wmr_assert(opts.memWords > 0);
    if (eventsPerSegment == 0)
        eventsPerSegment = 64;
    const Addr syncWords =
        std::min<Addr>(std::max<Addr>(opts.syncWords, 1),
                       opts.memWords);
    const Addr dataBase = syncWords < opts.memWords ? syncWords : 0;
    const Addr dataSpan = opts.memWords - dataBase;
    const Addr hotWords =
        std::min<Addr>(std::max<Addr>(opts.hotWords, 1), dataSpan);

    Rng rng(opts.seed);

    SegmentSpillWriter writer;
    if (!writer.open(path))
        return 0;

    // One pairing token per sync word: a release rebinds its word's
    // token, an acquire references it, and the writer's latest-wins
    // resolution yields exactly makeSyntheticTrace's lastRelease[w]
    // pairing.  Producer state never grows with the trace.
    std::vector<bool> haveRelease(syncWords, false);

    const auto dataAddr = [&]() -> Addr {
        if (rng.chance(opts.hotFraction))
            return dataBase + static_cast<Addr>(rng.below(hotWords));
        return dataBase + static_cast<Addr>(rng.below(dataSpan));
    };

    OpId nextOp = 0;
    std::uint64_t totalOps = 0;
    std::uint64_t opsAtSegmentStart = 0;

    // Identical RNG draw order to makeSyntheticTrace: equal options
    // give a byte-identical file.
    for (std::uint32_t step = 0; step < opts.eventsPerProc; ++step) {
        for (ProcId p = 0; p < opts.procs; ++p) {
            SegEvent ev;
            ev.proc = p;
            if (rng.chance(opts.syncFraction)) {
                ev.kind = EventKind::Sync;
                const Addr w =
                    static_cast<Addr>(rng.below(syncWords));
                MemOp &op = ev.syncOp;
                op.id = nextOp;
                op.proc = p;
                op.sync = true;
                op.addr = w;
                if (rng.chance(opts.acquireFraction)) {
                    op.kind = OpKind::Read;
                    op.acquire = true;
                    if (haveRelease[w] &&
                        rng.chance(opts.pairFraction))
                        ev.pairedToken = w + 1ull;
                } else {
                    op.kind = OpKind::Write;
                    op.release = true;
                    ev.releaseToken = w + 1ull;
                    haveRelease[w] = true;
                }
                ev.firstOp = ev.lastOp = nextOp;
                ev.opCount = 1;
                ++nextOp;
                ++totalOps;
            } else {
                ev.kind = EventKind::Computation;
                const auto nr = 1 + rng.below(opts.maxReads);
                const auto nw = rng.below(opts.maxWrites + 1);
                ev.readWords.reserve(nr);
                ev.writeWords.reserve(nw);
                for (std::uint64_t i = 0; i < nr; ++i)
                    ev.readWords.push_back(dataAddr());
                for (std::uint64_t i = 0; i < nw; ++i)
                    ev.writeWords.push_back(dataAddr());
                const auto ops = nr + nw;
                ev.firstOp = nextOp;
                ev.lastOp = static_cast<OpId>(nextOp + ops - 1);
                ev.opCount = static_cast<std::uint32_t>(ops);
                nextOp = static_cast<OpId>(nextOp + ops);
                totalOps += ops;
            }
            writer.addEvent(ev);
            if (writer.pendingEvents() >= eventsPerSegment) {
                writer.setCounters(opsAtSegmentStart, 0);
                if (!writer.sealSegment())
                    return 0;
                opsAtSegmentStart = totalOps;
            }
        }
    }

    writer.setCounters(opsAtSegmentStart, 0);
    SegShape shape;
    shape.procs = opts.procs;
    shape.memWords = opts.memWords;
    shape.firstStaleRead = kNoOp;
    shape.totalOps = totalOps;
    shape.droppedRecords = 0;
    if (!writer.finish(shape))
        return 0;
    return writer.bytesWritten();
}

} // namespace wmr
