/**
 * @file
 * Deep validation of the hb layer:
 *
 *  - the clock-vector reachability index cross-checked against
 *    brute-force BFS on random graphs (with cycles), the structure
 *    the whole detector rests on;
 *  - a manufactured CYCLIC hb1 trace (possible in theory on weak
 *    systems, Sec. 3.1) driven through the full analysis pipeline.
 */

#include <gtest/gtest.h>

#include <queue>

#include "common/rng.hh"
#include "detect/analysis.hh"
#include "hb/reachability.hh"
#include "trace/execution_trace.hh"

namespace wmr {
namespace {

/** Brute-force all-pairs reachability by BFS. */
std::vector<std::vector<bool>>
bruteForce(const AdjList &g)
{
    const std::size_t n = g.size();
    std::vector<std::vector<bool>> reach(n,
                                         std::vector<bool>(n, false));
    for (std::size_t s = 0; s < n; ++s) {
        std::queue<std::uint32_t> work;
        work.push(static_cast<std::uint32_t>(s));
        reach[s][s] = true;
        while (!work.empty()) {
            const auto v = work.front();
            work.pop();
            for (const auto w : g[v]) {
                if (!reach[s][w]) {
                    reach[s][w] = true;
                    work.push(w);
                }
            }
        }
    }
    return reach;
}

TEST(ReachabilityDeep, MatchesBruteForceOnRandomGraphs)
{
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        Rng rng(seed);
        const ProcId procs = static_cast<ProcId>(2 + rng.below(4));
        const std::uint32_t perProc =
            static_cast<std::uint32_t>(3 + rng.below(10));
        const std::uint32_t n = procs * perProc;

        // po chains (required structure) + random extra edges,
        // including back edges (cycles).
        AdjList g(n);
        std::vector<ProcId> procOf(n);
        std::vector<std::uint32_t> idx(n);
        for (ProcId p = 0; p < procs; ++p) {
            for (std::uint32_t i = 0; i < perProc; ++i) {
                const std::uint32_t v = p * perProc + i;
                procOf[v] = p;
                idx[v] = i;
                if (i + 1 < perProc)
                    g[v].push_back(v + 1);
            }
        }
        const std::uint32_t extra =
            static_cast<std::uint32_t>(rng.below(2 * n));
        for (std::uint32_t e = 0; e < extra; ++e) {
            const auto a = static_cast<std::uint32_t>(rng.below(n));
            const auto b = static_cast<std::uint32_t>(rng.below(n));
            if (a != b)
                g[a].push_back(b);
        }

        const ReachabilityIndex index(g, procOf, idx, procs);
        const auto truth = bruteForce(g);
        for (std::uint32_t a = 0; a < n; ++a) {
            for (std::uint32_t b = 0; b < n; ++b) {
                ASSERT_EQ(index.reaches(a, b),
                          static_cast<bool>(truth[a][b]))
                    << "seed " << seed << " pair " << a << "->" << b;
            }
        }
    }
}

/**
 * Build a trace whose so1 pairing forms an hb1 CYCLE:
 *   P0: acquire(A) [pairs r1] ; release(B)
 *   P1: acquire(B) [pairs r0] ; release(A)
 * plus one conflicting computation event per processor.
 */
ExecutionTrace
cyclicTrace()
{
    ExecutionTrace trace;
    trace.setShape(2, 8);
    trace.setTotalOps(6);
    trace.setFirstStaleRead(kNoOp);

    const auto sync = [&](ProcId p, OpId op, Addr addr, bool acq,
                          bool rel) {
        Event ev;
        ev.kind = EventKind::Sync;
        ev.proc = p;
        ev.firstOp = ev.lastOp = op;
        ev.opCount = 1;
        ev.syncOp.id = op;
        ev.syncOp.proc = p;
        ev.syncOp.kind = acq ? OpKind::Read : OpKind::Write;
        ev.syncOp.sync = true;
        ev.syncOp.acquire = acq;
        ev.syncOp.release = rel;
        ev.syncOp.addr = addr;
        return trace.addEvent(ev);
    };
    const auto comp = [&](ProcId p, OpId op, Addr w) {
        Event ev;
        ev.kind = EventKind::Computation;
        ev.proc = p;
        ev.firstOp = ev.lastOp = op;
        ev.opCount = 1;
        ev.memberOps = {op};
        ev.writeSet = {w};
        return trace.addEvent(ev);
    };

    const EventId a0 = sync(0, 0, 4, true, false);  // acquire A
    const EventId r0 = sync(0, 1, 5, false, true);  // release B
    const EventId c0 = comp(0, 2, 7);               // write x
    const EventId a1 = sync(1, 3, 5, true, false);  // acquire B
    const EventId r1 = sync(1, 4, 4, false, true);  // release A
    const EventId c1 = comp(1, 5, 7);               // write x

    // The cyclic pairing: a0 pairs with r1, a1 pairs with r0.
    trace.mutableEvent(a0).pairedRelease = r1;
    trace.mutableEvent(a1).pairedRelease = r0;
    (void)c0;
    (void)c1;
    return trace;
}

TEST(CyclicHb1, SccGroupsTheCycle)
{
    const auto trace = cyclicTrace();
    HbGraph hb(trace);
    ReachabilityIndex reach(hb, trace);
    const auto &scc = reach.scc();
    // a0, r0, a1, r1 form one SCC (events 0,1,3,4).
    EXPECT_EQ(scc.componentOf[0], scc.componentOf[1]);
    EXPECT_EQ(scc.componentOf[0], scc.componentOf[3]);
    EXPECT_EQ(scc.componentOf[0], scc.componentOf[4]);
    // The computation events hang off the cycle.
    EXPECT_NE(scc.componentOf[2], scc.componentOf[0]);
    // Mutual order inside the cycle.
    EXPECT_TRUE(reach.ordered(0, 4));
    EXPECT_TRUE(reach.reaches(0, 4));
    EXPECT_TRUE(reach.reaches(4, 0));
}

TEST(CyclicHb1, PipelineHandlesTheCycle)
{
    // The conflicting computation events are both hb1-AFTER the
    // cycle; they are mutually unordered -> one data race, and the
    // analysis must not crash or loop on the cyclic graph.
    const auto det = analyzeTrace(cyclicTrace());
    ASSERT_EQ(det.races().size(), 1u);
    EXPECT_TRUE(det.races()[0].isDataRace);
    EXPECT_EQ(det.partitions().firstPartitions.size(), 1u);
}

TEST(CyclicHb1, ConflictingEventsInsideTheCycleAreOrdered)
{
    // Put the conflicting accesses INTO the cycle events' locations:
    // sync-sync conflicts inside one SCC count as ordered (mutual
    // hb1), so no race is reported even with the option on.
    auto trace = cyclicTrace();
    AnalysisOptions opts;
    opts.finder.includeSyncSyncRaces = true;
    const auto det = analyzeTrace(std::move(trace), opts);
    // a0 (read A) and r1 (write A) conflict but sit in one SCC.
    for (const auto &race : det.races()) {
        EXPECT_FALSE(det.trace().event(race.a).kind ==
                         EventKind::Sync &&
                     det.trace().event(race.b).kind ==
                         EventKind::Sync)
            << "sync-sync pair inside the cycle must be ordered";
    }
}

} // namespace
} // namespace wmr
