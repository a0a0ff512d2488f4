/**
 * @file
 * Property tests of the detection pipeline against brute force.
 *
 * The production path answers "is this pair hb1-ordered" with the
 * per-processor clock oracle over the SCC condensation, enumerates
 * candidates per word from a sync/data-split access index cut into
 * word shards, and partitions races by G'-SCC.
 * Every one of those layers has a trivially correct O(n^2)
 * counterpart: the transitive closure computed by DFS from every
 * node.  This file cross-checks, over seeded random-program traces
 * and synthetic traces:
 *
 *  - ReachOracle.*:     reaches()/ordered() equal the hb1 closure on
 *                       ALL event pairs;
 *  - RaceOracle.*:      findRaces() (serial and sharded) returns
 *                       exactly the conflicting-unordered pairs, with
 *                       exactly the conflict addresses;
 *  - PartitionOracle.*: partition membership equals mutual G'-closure
 *                       reachability and first flags equal Def. 4.1
 *                       computed by brute force;
 *  - EngineOracle.*:    the single-pass clock engines (src/engines)
 *                       equal their declarative closures — SHB's race
 *                       set is exactly the hb1-unordered conflicting
 *                       pairs, WCP's is the unordered set of the
 *                       closure of po plus conditional release edges
 *                       (release → first region access conflicting
 *                       with the releaser's region footprint), and
 *                       the containment races(shb) ⊆ races(wcp)
 *                       holds oracle-side too — over the figure
 *                       programs, the shared trace spread, and 200+
 *                       seeded random small traces;
 *  - RobustnessOracle.*: checkRobustness() (linear acyclicity of
 *                       po u rf u co u fr) equals a brute-force
 *                       backtracking search for an SC-equivalent
 *                       total order — over 200+ seeded executions
 *                       across all seven models and both
 *                       realizations, with zero disagreements, and
 *                       the reported first non-SC operation is the
 *                       exact prefix boundary the brute force finds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "detect/analysis.hh"
#include "detect/robustness.hh"
#include "engines/family.hh"
#include "hb/access_history.hh"
#include "hb/hb_graph.hh"
#include "hb/reachability.hh"
#include "sim/executor.hh"
#include "trace/event.hh"
#include "workload/patterns.hh"
#include "workload/random_gen.hh"
#include "workload/synthetic_trace.hh"

namespace wmr {
namespace {

/** O(V*E) transitive closure: reach[a][b] == path a ->* b (and
 *  reach[a][a] always).  Handles cycles — plain DFS. */
std::vector<std::vector<char>>
bruteClosure(const AdjList &adj)
{
    const std::size_t n = adj.size();
    std::vector<std::vector<char>> reach(
        n, std::vector<char>(n, 0));
    std::vector<std::uint32_t> stack;
    for (std::size_t s = 0; s < n; ++s) {
        auto &row = reach[s];
        stack.assign(1, static_cast<std::uint32_t>(s));
        row[s] = 1;
        while (!stack.empty()) {
            const std::uint32_t v = stack.back();
            stack.pop_back();
            for (const std::uint32_t w : adj[v]) {
                if (!row[w]) {
                    row[w] = 1;
                    stack.push_back(w);
                }
            }
        }
    }
    return reach;
}

/** The inputs every oracle check needs, built once per trace. */
struct TraceUnderTest
{
    ExecutionTrace trace;
    HbGraph hb;
    ReachabilityIndex reach;
    std::vector<std::vector<char>> closure; ///< hb1 brute closure

    explicit TraceUnderTest(ExecutionTrace t)
        : trace(std::move(t)), hb(trace), reach(hb, trace),
          closure(bruteClosure(hb.adjacency()))
    {
    }

    bool
    bruteOrdered(EventId a, EventId b) const
    {
        return closure[a][b] || closure[b][a];
    }
};

/** A spread of trace shapes: weak-model program runs (racy and
 *  race-free), synthetic hot-conflict traces, and one synthetic
 *  trace whose sync and data words coincide. */
std::vector<ExecutionTrace>
oracleTraces()
{
    std::vector<ExecutionTrace> out;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const Program prog = seed % 2 == 0
                                 ? randomRacyProgram(seed)
                                 : randomRaceFreeProgram(seed);
        ExecOptions opts;
        opts.model = ModelKind::WO;
        opts.seed = seed;
        out.push_back(
            buildTrace(runProgram(prog, opts),
                       {.keepMemberOps = true}));
    }
    for (std::uint64_t seed = 30; seed < 34; ++seed) {
        SyntheticTraceOptions opts;
        opts.procs = 3 + static_cast<ProcId>(seed % 3);
        opts.eventsPerProc = 40;
        opts.memWords = 48;
        opts.hotFraction = 0.6;
        opts.seed = seed;
        out.push_back(makeSyntheticTrace(opts));
    }
    // memWords == syncWords puts data and sync accesses on the same
    // 8 words, so the finder's data×sync, sync×data and optional
    // sync×sync walks all meet the closure.
    SyntheticTraceOptions mixed;
    mixed.procs = 4;
    mixed.eventsPerProc = 40;
    mixed.memWords = 8;
    mixed.syncWords = 8;
    mixed.syncFraction = 0.6;
    mixed.hotFraction = 0;
    mixed.seed = 34;
    out.push_back(makeSyntheticTrace(mixed));
    return out;
}

/** Brute-force findRaces: every conflicting pair the closure leaves
 *  unordered, with its conflict addresses, canonically sorted. */
std::vector<DataRace>
bruteRaces(const TraceUnderTest &t, bool includeSyncSync)
{
    const auto &events = t.trace.events();
    std::vector<DataRace> out;
    for (EventId a = 0; a < events.size(); ++a) {
        for (EventId b = a + 1; b < events.size(); ++b) {
            const bool isData =
                events[a].kind == EventKind::Computation ||
                events[b].kind == EventKind::Computation;
            if (!isData && !includeSyncSync)
                continue;
            if (!eventsConflict(events[a], events[b]))
                continue;
            if (t.bruteOrdered(a, b))
                continue;
            DataRace r;
            r.a = a;
            r.b = b;
            r.addrs = conflictAddrs(events[a], events[b]);
            std::sort(r.addrs.begin(), r.addrs.end());
            r.isDataRace = isData;
            out.push_back(std::move(r));
        }
    }
    return out; // (a, b) ascending by construction
}

// ---------------------------------------------------------------
// ReachOracle
// ---------------------------------------------------------------

TEST(ReachOracle, AllPairsMatchBruteClosure)
{
    for (auto &trace : oracleTraces()) {
        const TraceUnderTest t(std::move(trace));
        const EventId n =
            static_cast<EventId>(t.trace.events().size());
        ASSERT_GT(n, 0u);
        for (EventId a = 0; a < n; ++a) {
            for (EventId b = 0; b < n; ++b) {
                ASSERT_EQ(t.reach.reaches(a, b),
                          static_cast<bool>(t.closure[a][b]))
                    << "reaches(" << a << ", " << b << ")";
                ASSERT_EQ(t.reach.ordered(a, b), t.bruteOrdered(a, b))
                    << "ordered(" << a << ", " << b << ")";
            }
        }
    }
}

// ---------------------------------------------------------------
// RaceOracle
// ---------------------------------------------------------------

void
expectSameRaces(const std::vector<DataRace> &got,
                const std::vector<DataRace> &want, const char *what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].a, want[i].a) << what << " race " << i;
        EXPECT_EQ(got[i].b, want[i].b) << what << " race " << i;
        EXPECT_EQ(got[i].addrs, want[i].addrs)
            << what << " race " << i;
        EXPECT_EQ(got[i].isDataRace, want[i].isDataRace)
            << what << " race " << i;
    }
}

TEST(RaceOracle, SerialAndShardedMatchBruteForce)
{
    for (auto &trace : oracleTraces()) {
        const TraceUnderTest t(std::move(trace));
        const auto expected = bruteRaces(t, false);
        expectSameRaces(findRaces(t.trace, t.reach, {}, 1), expected,
                        "serial");
        expectSameRaces(findRaces(t.trace, t.reach, {}, 4), expected,
                        "sharded");
    }
}

TEST(RaceOracle, SyncSyncGeneralRacesMatchToo)
{
    RaceFinderOptions opts;
    opts.includeSyncSyncRaces = true;
    for (auto &trace : oracleTraces()) {
        const TraceUnderTest t(std::move(trace));
        const auto expected = bruteRaces(t, true);
        expectSameRaces(findRaces(t.trace, t.reach, opts, 1),
                        expected, "serial+syncsync");
        expectSameRaces(findRaces(t.trace, t.reach, opts, 8),
                        expected, "sharded+syncsync");
    }
}

// ---------------------------------------------------------------
// PartitionOracle
// ---------------------------------------------------------------

TEST(PartitionOracle, MembershipAndFirstFlagsMatchBruteForce)
{
    for (auto &trace : oracleTraces()) {
        for (const unsigned threads : {1u, 4u}) {
            AnalysisOptions aopts;
            aopts.threads = threads;
            const DetectionResult det = analyzeTrace(trace, aopts);
            const auto &races = det.races();
            const auto &parts = det.partitions();

            // Brute closure of G' = hb1 + doubly directed race edges.
            AdjList aug = det.hbGraph().adjacency();
            for (const auto &r : races) {
                aug[r.a].push_back(r.b);
                aug[r.b].push_back(r.a);
            }
            const auto closure = bruteClosure(aug);

            // Same partition <=> mutually reachable in G'.
            for (RaceId r = 0; r < races.size(); ++r) {
                for (RaceId s = 0; s < races.size(); ++s) {
                    const bool sameBrute =
                        closure[races[r].a][races[s].a] &&
                        closure[races[s].a][races[r].a];
                    EXPECT_EQ(parts.partitionOf[r] ==
                                  parts.partitionOf[s],
                              sameBrute)
                        << "races " << r << ", " << s
                        << " at threads=" << threads;
                }
            }

            // First flags (Def. 4.1): a data-race partition is first
            // iff no OTHER data-race partition precedes it, where
            // partition j precedes i iff a G' path leads from j's
            // events to i's.
            for (std::size_t i = 0; i < parts.partitions.size();
                 ++i) {
                const auto &pi = parts.partitions[i];
                if (!pi.hasDataRace) {
                    EXPECT_FALSE(pi.first);
                    continue;
                }
                bool bruteFirst = true;
                for (std::size_t j = 0;
                     j < parts.partitions.size() && bruteFirst;
                     ++j) {
                    const auto &pj = parts.partitions[j];
                    if (j == i || !pj.hasDataRace)
                        continue;
                    const EventId from =
                        races[pj.races.front()].a;
                    const EventId to = races[pi.races.front()].a;
                    if (closure[from][to])
                        bruteFirst = false;
                }
                EXPECT_EQ(pi.first, bruteFirst)
                    << "partition " << i << " at threads=" << threads;
            }

            // firstPartitions lists exactly the flagged ones.
            std::vector<std::uint32_t> flagged;
            for (std::size_t i = 0; i < parts.partitions.size();
                 ++i) {
                if (parts.partitions[i].first)
                    flagged.push_back(
                        static_cast<std::uint32_t>(i));
            }
            EXPECT_EQ(parts.firstPartitions, flagged);
        }
    }
}

// ---------------------------------------------------------------
// EngineOracle
// ---------------------------------------------------------------

/** Run one chain engine over @p trace via the family runner. */
engines::EngineVerdict
runChainEngine(const ExecutionTrace &trace, const char *name)
{
    const auto kinds = engines::parseEngineSelection(name);
    EXPECT_TRUE(kinds.has_value()) << name;
    engines::EngineFamilyOptions fopts;
    fopts.kinds = *kinds;
    fopts.threads = 1;
    const engines::EngineFamilyResult fam =
        engines::runEngineFamily(trace, fopts);
    EXPECT_EQ(fam.verdicts.size(), 1u) << name;
    return fam.verdicts.front();
}

void
expectSameEngineRaces(const std::vector<engines::EngineRace> &got,
                      const std::vector<DataRace> &want,
                      const char *what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].a, want[i].a) << what << " race " << i;
        EXPECT_EQ(got[i].b, want[i].b) << what << " race " << i;
        EXPECT_EQ(got[i].addrs, want[i].addrs)
            << what << " race " << i;
        EXPECT_EQ(got[i].isDataRace, want[i].isDataRace)
            << what << " race " << i;
    }
}

/**
 * Brute-force WCP closure oracle.  Build the declarative WCP edge
 * set — po plus, for each paired release→acquire whose pending join
 * the acquirer's region consumes, one edge from the release to the
 * FIRST computation event after the acquire conflicting with the
 * release's closed-region footprint — then DFS-close it and
 * enumerate the conflicting unordered pairs exactly like
 * bruteRaces() (sync-sync pairs excluded).  O(n^2), no clocks: the
 * engine's one-directional clock test is what this validates.
 */
std::vector<DataRace>
bruteWcpRaces(const TraceUnderTest &t)
{
    const auto &events = t.trace.events();
    const std::size_t n = events.size();
    AdjList adj(n);

    struct Footprint
    {
        std::unordered_set<Addr> reads, writes;
    };
    struct PerProc
    {
        EventId last = kNoEvent;   ///< latest event, for po edges
        Footprint region;          ///< accesses since last sync
        bool pending = false;      ///< armed release join
        EventId pendingRel = kNoEvent;
    };
    std::unordered_map<ProcId, PerProc> procs;
    std::unordered_map<EventId, Footprint> relSnap;

    AccessSplit split;
    for (EventId id = 0; id < n; ++id) {
        const Event &ev = events[id];
        PerProc &ps = procs[ev.proc];
        if (ps.last != kNoEvent)
            adj[ps.last].push_back(id);
        ps.last = id;

        splitAccesses(ev, split);
        const std::vector<Addr> &writes = split.writes;
        const std::vector<Addr> &reads = split.reads;
        const bool isSync = ev.kind == EventKind::Sync;

        if (!isSync && ps.pending) {
            const Footprint &rel = relSnap.at(ps.pendingRel);
            bool conflict = false;
            for (const Addr a : writes) {
                if (rel.writes.count(a) || rel.reads.count(a))
                    conflict = true;
            }
            for (const Addr a : reads) {
                if (rel.writes.count(a))
                    conflict = true;
            }
            if (conflict) {
                adj[ps.pendingRel].push_back(id);
                ps.pending = false;
            }
        }

        if (isSync) {
            relSnap.emplace(id, std::move(ps.region));
            ps.region = Footprint{};
            ps.pending = false;
            if (ev.pairedRelease != kNoEvent &&
                relSnap.count(ev.pairedRelease)) {
                ps.pending = true;
                ps.pendingRel = ev.pairedRelease;
            }
        } else {
            for (const Addr a : writes)
                ps.region.writes.insert(a);
            for (const Addr a : reads)
                ps.region.reads.insert(a);
        }
    }

    const auto closure = bruteClosure(adj);
    std::vector<DataRace> out;
    for (EventId a = 0; a < n; ++a) {
        for (EventId b = a + 1; b < n; ++b) {
            if (events[a].kind == EventKind::Sync &&
                events[b].kind == EventKind::Sync)
                continue;
            if (!eventsConflict(events[a], events[b]))
                continue;
            if (closure[a][b] || closure[b][a])
                continue;
            DataRace r;
            r.a = a;
            r.b = b;
            r.addrs = conflictAddrs(events[a], events[b]);
            std::sort(r.addrs.begin(), r.addrs.end());
            r.isDataRace = true;
            out.push_back(std::move(r));
        }
    }
    return out;
}

/** Brute per-variable first race: for each address, the race whose
 *  later endpoint completes earliest (minimal (b, a)). */
std::vector<std::pair<Addr, std::uint32_t>>
bruteFirstRacePerVar(const std::vector<engines::EngineRace> &races)
{
    std::vector<std::pair<Addr, std::uint32_t>> out;
    std::unordered_set<Addr> addrs;
    for (const auto &r : races)
        for (const Addr a : r.addrs)
            addrs.insert(a);
    for (const Addr a : addrs) {
        std::uint32_t best = 0;
        bool have = false;
        for (std::uint32_t i = 0;
             i < static_cast<std::uint32_t>(races.size()); ++i) {
            const auto &r = races[i];
            if (std::find(r.addrs.begin(), r.addrs.end(), a) ==
                r.addrs.end())
                continue;
            if (!have ||
                std::make_pair(r.b, r.a) <
                    std::make_pair(races[best].b, races[best].a)) {
                best = i;
                have = true;
            }
        }
        out.emplace_back(a, best);
    }
    std::sort(out.begin(), out.end());
    return out;
}

/** One full engine-vs-oracle check of @p trace. */
void
checkEnginesAgainstOracles(ExecutionTrace trace, const char *what)
{
    const TraceUnderTest t(std::move(trace));

    // SHB order IS hb1: its race set must equal the brute
    // hb1-unordered conflicting pairs, bit for bit.
    const engines::EngineVerdict shb =
        runChainEngine(t.trace, "shb");
    const auto shbWant = bruteRaces(t, false);
    expectSameEngineRaces(shb.races, shbWant, what);
    EXPECT_EQ(shb.firstRacePerVar, bruteFirstRacePerVar(shb.races))
        << what;

    // WCP equals its declarative conditional-release closure.
    const engines::EngineVerdict wcp =
        runChainEngine(t.trace, "wcp");
    const auto wcpWant = bruteWcpRaces(t);
    expectSameEngineRaces(wcp.races, wcpWant, what);

    // Containment holds between the ORACLES too — the WCP edge set
    // is a subset of hb1's, so every hb1-unordered pair stays
    // wcp-unordered.
    std::unordered_set<std::uint64_t> wcpPairs;
    for (const auto &r : wcpWant)
        wcpPairs.insert((static_cast<std::uint64_t>(r.a) << 32) |
                        r.b);
    for (const auto &r : shbWant) {
        EXPECT_TRUE(wcpPairs.count(
            (static_cast<std::uint64_t>(r.a) << 32) | r.b))
            << what << ": shb race (" << r.a << ", " << r.b
            << ") missing from wcp oracle";
    }
}

TEST(EngineOracle, ChainEnginesMatchBruteForceOnTraceSpread)
{
    for (auto &trace : oracleTraces())
        checkEnginesAgainstOracles(std::move(trace), "spread");
}

TEST(EngineOracle, ChainEnginesMatchBruteForceOnFigurePrograms)
{
    const std::pair<const char *, Program> programs[] = {
        {"figure1a", figure1a()},
        {"figure1b", figure1b()},
        {"figure2Queue", figure2Queue()},
    };
    for (const auto &[label, prog] : programs) {
        for (const ModelKind model : kAllModels) {
            ExecOptions opts;
            opts.model = model;
            opts.seed = 7;
            checkEnginesAgainstOracles(
                buildTrace(runProgram(prog, opts),
                           {.keepMemberOps = true}),
                label);
        }
    }
}

TEST(EngineOracle, ChainEnginesMatchBruteForceOnRandomSmallTraces)
{
    // 200+ seeded small traces: synthetic shapes (dense sync
    // pairing so the conditional WCP join actually fires) plus
    // weak-model program runs.
    std::size_t checked = 0;
    for (std::uint64_t seed = 100; seed < 240; ++seed) {
        SyntheticTraceOptions opts;
        opts.procs = 2 + static_cast<ProcId>(seed % 3);
        opts.eventsPerProc = 12 + static_cast<std::uint32_t>(
                                      seed % 13);
        opts.memWords = 16;
        opts.syncWords = 4;
        opts.syncFraction = 0.3;
        opts.hotFraction = 0.7;
        opts.hotWords = 4;
        opts.seed = seed;
        checkEnginesAgainstOracles(makeSyntheticTrace(opts),
                                   "synthetic");
        ++checked;
    }
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        const Program prog = seed % 2 == 0
                                 ? randomRacyProgram(seed)
                                 : randomRaceFreeProgram(seed);
        ExecOptions opts;
        opts.model = ModelKind::WO;
        opts.seed = seed;
        checkEnginesAgainstOracles(
            buildTrace(runProgram(prog, opts),
                       {.keepMemberOps = true}),
            "random-program");
        ++checked;
    }
    EXPECT_GE(checked, 200u);
}

// ---------------------------------------------------------------
// RobustnessOracle: checkRobustness against a brute-force search
// for an SC-equivalent total order.
// ---------------------------------------------------------------

/**
 * Brute-force SC-equivalence (trace equivalence) oracle: does ANY
 * total order of the ops respect program order, place every write to
 * an address in the witnessed coherence order, and place every read
 * while its observed write is the latest placed write to its
 * address?  Memoized backtracking over per-processor frontiers —
 * the set of placed ops is exactly determined by the frontier
 * vector, so dead-state memoization bounds the search by
 * prod_p(|po_p| + 1) states regardless of branching.
 *
 * Mirrors buildGraph()'s co construction exactly: the visibility
 * witness deduplicated and restricted to the op range, with any
 * missed writes appended in issue order.
 */
bool
bruteScEquivalent(const std::vector<MemOp> &ops,
                  const std::vector<OpId> &visibility)
{
    const std::size_t n = ops.size();
    if (n == 0)
        return true;

    // Per-processor program-order streams.
    std::vector<std::vector<OpId>> po;
    for (OpId id = 0; id < n; ++id) {
        if (ops[id].proc >= po.size())
            po.resize(ops[id].proc + 1);
        po[ops[id].proc].push_back(id);
    }

    // coRank[w] = position of write w in its address's co sequence.
    std::vector<bool> witnessed(n, false);
    std::vector<OpId> vis;
    for (const OpId id : visibility) {
        if (id < n && !witnessed[id]) {
            witnessed[id] = true;
            vis.push_back(id);
        }
    }
    for (OpId id = 0; id < n; ++id) {
        if (ops[id].kind == OpKind::Write && !witnessed[id])
            vis.push_back(id);
    }
    std::unordered_map<Addr, std::size_t> coLen;
    std::vector<std::size_t> coRank(n, 0);
    for (const OpId id : vis)
        coRank[id] = coLen[ops[id].addr]++;

    // Search state, mutated in place and undone on backtrack.
    std::vector<std::size_t> frontier(po.size(), 0);
    std::unordered_map<Addr, std::size_t> writesPlaced;
    std::unordered_map<Addr, OpId> lastWriter;
    std::unordered_set<std::uint64_t> dead;

    const auto stateKey = [&]() {
        std::uint64_t key = 0;
        for (const std::size_t f : frontier)
            key = key * 131 + f;
        return key;
    };
    const auto placeable = [&](OpId id) {
        const MemOp &op = ops[id];
        if (op.kind == OpKind::Write)
            return coRank[id] == writesPlaced[op.addr];
        const auto it = lastWriter.find(op.addr);
        const OpId last = it == lastWriter.end() ? kNoOp : it->second;
        return last == op.observedWrite;
    };

    std::size_t placed = 0;
    // Explicit DFS would obscure the undo logic; recursion depth is
    // bounded by n (tiny here).
    const std::function<bool()> search = [&]() -> bool {
        if (placed == n)
            return true;
        if (dead.count(stateKey()))
            return false;
        for (std::size_t p = 0; p < po.size(); ++p) {
            if (frontier[p] == po[p].size())
                continue;
            const OpId id = po[p][frontier[p]];
            if (!placeable(id))
                continue;
            const MemOp &op = ops[id];
            const bool isWrite = op.kind == OpKind::Write;
            const OpId savedWriter =
                lastWriter.count(op.addr) ? lastWriter[op.addr]
                                          : kNoOp;
            ++frontier[p];
            ++placed;
            if (isWrite) {
                ++writesPlaced[op.addr];
                lastWriter[op.addr] = id;
            }
            if (search())
                return true;
            --frontier[p];
            --placed;
            if (isWrite) {
                --writesPlaced[op.addr];
                if (savedWriter == kNoOp)
                    lastWriter.erase(op.addr);
                else
                    lastWriter[op.addr] = savedWriter;
            }
        }
        dead.insert(stateKey());
        return false;
    };
    return search();
}

/** The small random programs the robustness sweep executes: pure
 *  data ops (no locks), 2-3 procs, a handful of ops each. */
Program
robustnessSweepProgram(std::uint64_t seed)
{
    RandomProgConfig cfg;
    cfg.seed = seed;
    cfg.procs = static_cast<ProcId>(2 + seed % 2);
    cfg.blocksPerProc = 1;
    cfg.opsPerBlock = 3;
    cfg.dataWords = 2;
    cfg.numLocks = 1;
    cfg.unlockedProb = 1.0;
    return randomProgram(cfg);
}

TEST(RobustnessOracle, MatchesBruteForceOnSeededTraces)
{
    std::size_t checked = 0;
    std::size_t violations = 0;
    for (std::uint64_t progSeed = 0; progSeed < 12; ++progSeed) {
        const Program p = robustnessSweepProgram(progSeed);
        for (const ModelKind model : kAllModels) {
            for (const Realization realization : kAllRealizations) {
                for (std::uint64_t seed = 0; seed < 2; ++seed) {
                    for (const double laziness : {0.5, 1.0}) {
                        ExecOptions opts;
                        opts.model = model;
                        opts.realization = realization;
                        opts.seed = seed;
                        opts.drainLaziness = laziness;
                        const auto res = runProgram(p, opts);
                        if (!res.completed || res.ops.size() > 24)
                            continue;
                        const auto verdict = checkRobustness(res);
                        EXPECT_EQ(verdict.robust,
                                  bruteScEquivalent(
                                      res.ops, res.visibilityOrder))
                            << "prog " << progSeed << " "
                            << modelName(model) << " seed " << seed
                            << " laziness " << laziness;
                        ++checked;
                        violations += !verdict.robust;
                    }
                }
            }
        }
    }
    EXPECT_GE(checked, 200u);
    // The sweep must exercise both outcomes or the comparison is
    // vacuous.
    EXPECT_GT(violations, 0u);
    EXPECT_LT(violations, checked);
}

TEST(RobustnessOracle, FirstViolationIsExactPrefixBoundary)
{
    // For every non-robust execution, the brute force agrees that
    // the prefix up to (excluding) violatingOp still has an
    // SC-equivalent and the prefix including it does not.
    std::size_t boundaries = 0;
    const Program p = dekkerDataFlags();
    for (const ModelKind model :
         {ModelKind::WO, ModelKind::TSO, ModelKind::PSO}) {
        for (std::uint64_t seed = 0; seed < 6; ++seed) {
            ExecOptions opts;
            opts.model = model;
            opts.seed = seed;
            opts.drainLaziness = 1.0;
            const auto res = runProgram(p, opts);
            ASSERT_TRUE(res.completed);
            const auto verdict = checkRobustness(res);
            if (verdict.robust)
                continue;
            ASSERT_NE(verdict.violatingOp, kNoOp);
            const std::vector<MemOp> upTo(
                res.ops.begin(),
                res.ops.begin() + verdict.violatingOp + 1);
            EXPECT_FALSE(
                bruteScEquivalent(upTo, res.visibilityOrder))
                << modelName(model) << " seed " << seed;
            const std::vector<MemOp> before(
                res.ops.begin(),
                res.ops.begin() + verdict.violatingOp);
            EXPECT_TRUE(
                bruteScEquivalent(before, res.visibilityOrder))
                << modelName(model) << " seed " << seed;
            ++boundaries;
        }
    }
    EXPECT_GT(boundaries, 0u);
}

TEST(RobustnessOracle, NoStaleReadsImpliesRobust)
{
    // The issue order itself is the SC witness when nothing went
    // stale — the containment documented in robustness.hh, checked
    // against both the linear checker and the brute force.
    for (std::uint64_t progSeed = 0; progSeed < 8; ++progSeed) {
        const Program p = robustnessSweepProgram(progSeed);
        for (const ModelKind model : kAllModels) {
            ExecOptions opts;
            opts.model = model;
            opts.seed = progSeed + 13;
            opts.drainLaziness = 0.5;
            const auto res = runProgram(p, opts);
            if (!res.completed || res.staleReads != 0)
                continue;
            EXPECT_TRUE(checkRobustness(res).robust)
                << "prog " << progSeed << " " << modelName(model);
            if (res.ops.size() <= 24) {
                EXPECT_TRUE(bruteScEquivalent(res.ops,
                                              res.visibilityOrder));
            }
        }
    }
}

} // namespace
} // namespace wmr
