/**
 * @file
 * Unit tests of the hb layer: SCC decomposition, the hb1 graph, the
 * reachability index (including cyclic graphs), vector clocks, and
 * the forward race test of the access history.
 */

#include <gtest/gtest.h>

#include "hb/access_history.hh"
#include "hb/hb_graph.hh"
#include "hb/reachability.hh"
#include "hb/scc.hh"
#include "hb/vector_clock.hh"
#include "sim/executor.hh"
#include "trace/execution_trace.hh"
#include "workload/patterns.hh"

namespace wmr {
namespace {

TEST(Scc, SingletonsOnDag)
{
    // 0 -> 1 -> 2
    AdjList g{{1}, {2}, {}};
    const auto scc = stronglyConnectedComponents(g);
    EXPECT_EQ(scc.numComponents, 3u);
    // Tarjan reverse-topological property: edges go to smaller ids.
    EXPECT_GT(scc.componentOf[0], scc.componentOf[1]);
    EXPECT_GT(scc.componentOf[1], scc.componentOf[2]);
}

TEST(Scc, DetectsCycle)
{
    // 0 -> 1 -> 2 -> 0, 2 -> 3
    AdjList g{{1}, {2}, {0, 3}, {}};
    const auto scc = stronglyConnectedComponents(g);
    EXPECT_EQ(scc.numComponents, 2u);
    EXPECT_EQ(scc.componentOf[0], scc.componentOf[1]);
    EXPECT_EQ(scc.componentOf[1], scc.componentOf[2]);
    EXPECT_NE(scc.componentOf[0], scc.componentOf[3]);
    // Condensation has exactly one edge cycle-comp -> {3}.
    const auto cyc = scc.componentOf[0];
    ASSERT_EQ(scc.condensation[cyc].size(), 1u);
    EXPECT_EQ(scc.condensation[cyc][0], scc.componentOf[3]);
}

TEST(Scc, SelfLoopIsItsOwnComponent)
{
    AdjList g{{0}, {}};
    const auto scc = stronglyConnectedComponents(g);
    EXPECT_EQ(scc.numComponents, 2u);
    EXPECT_EQ(scc.members[scc.componentOf[0]].size(), 1u);
}

TEST(Scc, TwoInterleavedCycles)
{
    // 0<->1, 2<->3, 1->2
    AdjList g{{1}, {0, 2}, {3}, {2}};
    const auto scc = stronglyConnectedComponents(g);
    EXPECT_EQ(scc.numComponents, 2u);
    EXPECT_EQ(scc.componentOf[0], scc.componentOf[1]);
    EXPECT_EQ(scc.componentOf[2], scc.componentOf[3]);
    EXPECT_NE(scc.componentOf[0], scc.componentOf[2]);
}

TEST(Scc, EmptyGraph)
{
    const auto scc = stronglyConnectedComponents({});
    EXPECT_EQ(scc.numComponents, 0u);
}

TEST(Scc, DeepChainDoesNotOverflowStack)
{
    // 100k-node chain: the iterative Tarjan must handle it.
    const std::uint32_t n = 100'000;
    AdjList g(n);
    for (std::uint32_t i = 0; i + 1 < n; ++i)
        g[i].push_back(i + 1);
    const auto scc = stronglyConnectedComponents(g);
    EXPECT_EQ(scc.numComponents, n);
}

// Helper: reachability over an explicit 2-proc graph.  Nodes
// alternate procs: node i belongs to proc i%2 with index i/2, and po
// chains 0->2->4..., 1->3->5... are added automatically.
ReachabilityIndex
makeIndex(std::uint32_t n, AdjList extra)
{
    AdjList g(n);
    std::vector<ProcId> proc(n);
    std::vector<std::uint32_t> idx(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        proc[i] = i % 2;
        idx[i] = i / 2;
        if (i + 2 < n)
            g[i].push_back(i + 2);
    }
    for (std::uint32_t i = 0; i < n; ++i)
        for (const auto j : extra[i])
            g[i].push_back(j);
    return ReachabilityIndex(g, proc, idx, 2);
}

TEST(Reachability, PoChainsReach)
{
    auto r = makeIndex(6, AdjList(6));
    EXPECT_TRUE(r.reaches(0, 2));
    EXPECT_TRUE(r.reaches(0, 4));
    EXPECT_TRUE(r.reaches(1, 5));
    EXPECT_FALSE(r.reaches(4, 0));
    EXPECT_FALSE(r.reaches(0, 1)); // different procs, no cross edge
    EXPECT_FALSE(r.ordered(0, 1));
    EXPECT_TRUE(r.ordered(0, 4));
}

TEST(Reachability, CrossEdgeOrders)
{
    // so1-like edge 0 -> 3: then 0 reaches 3 and 5, but not 1.
    AdjList extra(6);
    extra[0].push_back(3);
    auto r = makeIndex(6, std::move(extra));
    EXPECT_TRUE(r.reaches(0, 3));
    EXPECT_TRUE(r.reaches(0, 5));
    EXPECT_FALSE(r.reaches(0, 1));
    EXPECT_TRUE(r.ordered(0, 5));
    EXPECT_FALSE(r.ordered(2, 1));
}

TEST(Reachability, TransitiveThroughBothProcs)
{
    // 0 -> 1's chain -> back to 0's chain: 0 ->(e) 3 ->(po) 5 ->(e) 4.
    AdjList extra(6);
    extra[0].push_back(3);
    extra[5].push_back(4);
    auto r = makeIndex(6, std::move(extra));
    EXPECT_TRUE(r.reaches(0, 4));
    EXPECT_FALSE(r.reaches(0, 1));
}

TEST(Reachability, CycleMeansMutuallyOrdered)
{
    // 0 -> 3 and 3 -> 0 create a cycle {0,3} (with nothing between).
    AdjList extra(6);
    extra[0].push_back(3);
    extra[3].push_back(0);
    auto r = makeIndex(6, std::move(extra));
    EXPECT_TRUE(r.reaches(0, 3));
    EXPECT_TRUE(r.reaches(3, 0));
    EXPECT_TRUE(r.ordered(0, 3));
    // Everything po-after either cycle member is reachable from both.
    EXPECT_TRUE(r.reaches(3, 2));
    EXPECT_TRUE(r.reaches(0, 5));
}

TEST(Reachability, ReflexiveReaches)
{
    auto r = makeIndex(4, AdjList(4));
    EXPECT_TRUE(r.reaches(2, 2));
}

TEST(HbGraph, Figure1bOrdersAcrossProcs)
{
    ExecOptions opts;
    opts.model = ModelKind::WO;
    opts.seed = 3;
    const auto res = runProgram(figure1b(), opts);
    const auto trace = buildTrace(res);
    HbGraph hb(trace);
    EXPECT_GT(hb.numSyncEdges(), 0u);
    ReachabilityIndex reach(hb, trace);

    // P1's computation event (writes) must happen-before P2's final
    // computation event (reads) through the Unset/Test&Set pairing.
    const EventId writer = trace.procEvents(0)[0];
    const EventId reader = trace.procEvents(1).back();
    EXPECT_TRUE(reach.reaches(writer, reader));
    EXPECT_FALSE(reach.reaches(reader, writer));
}

TEST(HbGraph, Figure1aLeavesDataUnordered)
{
    ExecOptions opts;
    opts.model = ModelKind::SC;
    opts.seed = 3;
    const auto res = runProgram(figure1a(), opts);
    const auto trace = buildTrace(res);
    HbGraph hb(trace);
    EXPECT_EQ(hb.numSyncEdges(), 0u);
    ReachabilityIndex reach(hb, trace);
    const EventId e0 = trace.procEvents(0)[0];
    const EventId e1 = trace.procEvents(1)[0];
    EXPECT_FALSE(reach.ordered(e0, e1));
}

TEST(HbGraph, EdgesAreLabelled)
{
    ExecOptions opts;
    opts.seed = 3;
    const auto res = runProgram(figure1b(), opts);
    const auto trace = buildTrace(res);
    HbGraph hb(trace);
    bool saw_po = false, saw_so = false;
    for (const auto &e : hb.edges()) {
        saw_po |= e.kind == HbEdgeKind::ProgramOrder;
        saw_so |= e.kind == HbEdgeKind::SyncOrder;
    }
    EXPECT_TRUE(saw_po);
    EXPECT_TRUE(saw_so);
}

TEST(VectorClock, TickAndGet)
{
    VectorClock c(3);
    EXPECT_EQ(c.get(1), 0u);
    c.tick(1);
    c.tick(1);
    EXPECT_EQ(c.get(1), 2u);
    EXPECT_EQ(c.get(0), 0u);
}

TEST(VectorClock, JoinIsPointwiseMax)
{
    VectorClock a(3), b(3);
    a.set(0, 5);
    a.set(1, 1);
    b.set(1, 4);
    b.set(2, 2);
    a.join(b);
    EXPECT_EQ(a.get(0), 5u);
    EXPECT_EQ(a.get(1), 4u);
    EXPECT_EQ(a.get(2), 2u);
}

TEST(VectorClock, LessOrEqual)
{
    VectorClock a(2), b(2);
    a.set(0, 1);
    b.set(0, 2);
    b.set(1, 1);
    EXPECT_TRUE(a.lessOrEqual(b));
    EXPECT_FALSE(b.lessOrEqual(a));
    EXPECT_TRUE(a.lessOrEqual(a));
}

TEST(VectorClock, EpochLeq)
{
    VectorClock c(2);
    c.set(1, 3);
    EXPECT_TRUE(c.epochLeq(1, 3));
    EXPECT_TRUE(c.epochLeq(1, 2));
    EXPECT_FALSE(c.epochLeq(1, 4));
    EXPECT_FALSE(c.epochLeq(0, 1));
}

TEST(VectorClock, EqualityAcrossSizes)
{
    VectorClock a(2), b(4);
    a.set(1, 7);
    b.set(1, 7);
    EXPECT_TRUE(a == b);
    b.set(3, 1);
    EXPECT_FALSE(a == b);
}

TEST(VectorClock, Str)
{
    VectorClock c(3);
    c.set(0, 3);
    c.set(2, 7);
    EXPECT_EQ(c.str(), "<3,0,7>");
}

AccessSplit
syncAccess(OpKind kind, Addr addr)
{
    Event ev;
    ev.kind = EventKind::Sync;
    ev.syncOp.kind = kind;
    ev.syncOp.addr = addr;
    AccessSplit out;
    splitAccesses(ev, out);
    return out;
}

AccessSplit
dataAccess(std::vector<Addr> reads, std::vector<Addr> writes)
{
    Event ev;
    ev.readSet = std::move(reads);
    ev.writeSet = std::move(writes);
    AccessSplit out;
    splitAccesses(ev, out);
    return out;
}

/** The keys of race(), in the order it returned them. */
std::vector<std::uint64_t>
raceKeys(AccessHistory &h, const AccessSplit &acc, ProcId proc,
         const VectorClock &clock)
{
    std::vector<std::uint64_t> keys;
    for (const AccessHistory::Partner &u : h.races(acc, proc, clock))
        keys.push_back(u.key);
    return keys;
}

TEST(AccessHistory, SplitKeepsReadsThatAreNotWrites)
{
    const AccessSplit d = dataAccess({1, 2, 3}, {2, 5});
    EXPECT_FALSE(d.sync);
    EXPECT_EQ(d.writes, (std::vector<Addr>{2, 5}));
    EXPECT_EQ(d.reads, (std::vector<Addr>{1, 3}));

    const AccessSplit rel = syncAccess(OpKind::Write, 4);
    EXPECT_TRUE(rel.sync);
    EXPECT_EQ(rel.writes, (std::vector<Addr>{4}));
    EXPECT_TRUE(rel.reads.empty());

    const AccessSplit acq = syncAccess(OpKind::Read, 4);
    EXPECT_TRUE(acq.writes.empty());
    EXPECT_EQ(acq.reads, (std::vector<Addr>{4}));
}

TEST(AccessHistory, SyncSyncNeverRaces)
{
    AccessHistory h;
    h.record(syncAccess(OpKind::Write, 0), 1, 0, 1);
    h.record(syncAccess(OpKind::Read, 0), 2, 1, 1);
    const VectorClock zero(3);
    EXPECT_TRUE(
        raceKeys(h, syncAccess(OpKind::Write, 0), 2, zero).empty());
    EXPECT_TRUE(
        raceKeys(h, syncAccess(OpKind::Read, 0), 2, zero).empty());
}

TEST(AccessHistory, SyncAndDataAccessesOfOneWordRace)
{
    const VectorClock zero(2);
    {
        // A sync write, then a data read of its word.
        AccessHistory h;
        h.record(syncAccess(OpKind::Write, 3), 7, 0, 1);
        const auto got = h.races(dataAccess({3}, {}), 1, zero);
        ASSERT_EQ(got.size(), 1u);
        EXPECT_EQ(got[0].key, 7u);
        EXPECT_EQ(got[0].addrs, (std::vector<Addr>{3}));
    }
    {
        // A data write, then a sync read of its word.
        AccessHistory h;
        h.record(dataAccess({}, {3}), 7, 0, 1);
        EXPECT_EQ(raceKeys(h, syncAccess(OpKind::Read, 3), 1, zero),
                  (std::vector<std::uint64_t>{7}));
    }
    {
        // Two reads never conflict, whatever their kinds.
        AccessHistory h;
        h.record(syncAccess(OpKind::Read, 3), 7, 0, 1);
        EXPECT_TRUE(raceKeys(h, dataAccess({3}, {}), 1, zero).empty());
    }
}

TEST(AccessHistory, SameProcessorAndOrderedAccessesNeverRace)
{
    AccessHistory h;
    h.record(dataAccess({}, {0}), 1, 0, 1);
    h.record(dataAccess({}, {0}), 2, 1, 4);

    VectorClock c(2);
    // Processor 0 again: po-ordered after its own access.
    EXPECT_EQ(raceKeys(h, dataAccess({}, {0}), 0, c),
              (std::vector<std::uint64_t>{2}));
    // The clock covers processor 1 up to epoch 4: ordered.
    c.set(1, 4);
    EXPECT_TRUE(raceKeys(h, dataAccess({}, {0}), 0, c).empty());
    // ... up to epoch 3 only: a race.
    c.set(1, 3);
    EXPECT_EQ(raceKeys(h, dataAccess({0}, {}), 0, c),
              (std::vector<std::uint64_t>{2}));
}

TEST(AccessHistory, PartnersComeBackGroupedByKey)
{
    AccessHistory h;
    h.record(dataAccess({}, {5, 9}), 30, 0, 1);
    h.record(dataAccess({2}, {}), 10, 1, 1);
    h.record(dataAccess({9}, {2}), 20, 1, 2);
    h.record(syncAccess(OpKind::Write, 7), 40, 1, 3);

    const auto got =
        h.races(dataAccess({}, {2, 5, 7, 9}), 2, VectorClock(3));
    ASSERT_EQ(got.size(), 4u);
    EXPECT_EQ(got[0].key, 10u);
    EXPECT_EQ(got[0].addrs, (std::vector<Addr>{2}));
    EXPECT_EQ(got[1].key, 20u);
    EXPECT_EQ(got[1].addrs, (std::vector<Addr>{2, 9}));
    EXPECT_EQ(got[2].key, 30u);
    EXPECT_EQ(got[2].addrs, (std::vector<Addr>{5, 9}));
    EXPECT_EQ(got[3].key, 40u);
    EXPECT_EQ(got[3].addrs, (std::vector<Addr>{7}));
}

TEST(AccessHistory, RetireDropsExactlyEntriesUnderTheLimit)
{
    AccessHistory h;
    for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
        h.record(dataAccess({}, {5}), 10 + epoch, 0, epoch);
        h.record(dataAccess({5}, {}), 20 + epoch, 1, epoch);
    }
    h.record(syncAccess(OpKind::Write, 6), 31, 2, 1);

    // Word 6 is not named: its entry stays whatever the limit.
    h.retire({5, 5}, {2, 1, 9});
    const VectorClock zero(4);
    EXPECT_EQ(raceKeys(h, dataAccess({}, {5, 6}), 3, zero),
              (std::vector<std::uint64_t>{13, 22, 23, 31}));

    // A processor past the end of the limits keeps its entries.
    h.retire({5, 6}, {9});
    EXPECT_EQ(raceKeys(h, dataAccess({}, {5, 6}), 3, zero),
              (std::vector<std::uint64_t>{22, 23, 31}));
}

} // namespace
} // namespace wmr
