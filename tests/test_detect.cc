/**
 * @file
 * Unit tests of the detection pipeline: race enumeration, augmented
 * graph, partitions and partition order, first partitions, SCP
 * classification, Condition 3.4 checking, and report formatting.
 */

#include <gtest/gtest.h>

#include "detect/analysis.hh"
#include "detect/report.hh"
#include "prog/builder.hh"
#include "sim/executor.hh"
#include "trace/segmented_io.hh"
#include "workload/patterns.hh"
#include "workload/random_gen.hh"
#include "workload/scenarios.hh"

namespace wmr {
namespace {

DetectionResult
analyze(const Program &p, ModelKind model = ModelKind::SC,
        std::uint64_t seed = 3, double laziness = 0.5)
{
    ExecOptions opts;
    opts.model = model;
    opts.seed = seed;
    opts.drainLaziness = laziness;
    return analyzeExecution(runProgram(p, opts));
}

TEST(RaceFinder, Figure1aHasExactlyOneDataRace)
{
    const auto det = analyze(figure1a());
    ASSERT_EQ(det.races().size(), 1u);
    const auto &r = det.races()[0];
    EXPECT_TRUE(r.isDataRace);
    // Conflicts on both x (0) and y (1).
    EXPECT_EQ(r.addrs, (std::vector<Addr>{0, 1}));
    EXPECT_EQ(det.partitions().firstPartitions.size(), 1u);
}

TEST(RaceFinder, Figure1bIsRaceFree)
{
    for (const auto kind : kAllModels) {
        for (std::uint64_t seed = 0; seed < 10; ++seed) {
            const auto det = analyze(figure1b(), kind, seed, 0.9);
            EXPECT_TRUE(det.races().empty())
                << modelName(kind) << " seed " << seed;
            EXPECT_TRUE(det.partitions().firstPartitions.empty());
        }
    }
}

TEST(RaceFinder, SameProcNeverRaces)
{
    // One processor writing the same word twice: no race.
    ThreadBuilder t;
    t.storei(0, 1).unset(5).storei(0, 2).halt();
    ProgramBuilder pb;
    pb.thread(t);
    const auto det = analyze(pb.build());
    EXPECT_TRUE(det.races().empty());
}

TEST(RaceFinder, ReadReadDoesNotRace)
{
    ProgramBuilder pb;
    pb.var("x", 0, 5);
    ThreadBuilder a, b;
    a.load(1, 0).halt();
    b.load(1, 0).halt();
    pb.thread(a).thread(b);
    const auto det = analyze(pb.build());
    EXPECT_TRUE(det.races().empty());
}

TEST(RaceFinder, SyncDataConflictIsDataRace)
{
    // P0 writes x with a DATA store; P1 Unsets x (sync write): the
    // pair conflicts, one op is data -> data race (Def. 2.4).
    ProgramBuilder pb;
    pb.var("x", 0, 1);
    ThreadBuilder a, b;
    a.storei(0, 7).halt();
    b.unset(0).halt();
    pb.thread(a).thread(b);
    const auto det = analyze(pb.build());
    ASSERT_EQ(det.races().size(), 1u);
    EXPECT_TRUE(det.races()[0].isDataRace);
}

TEST(RaceFinder, SyncSyncRaceExcludedByDefault)
{
    // Two processors Unset the same location with no ordering: a
    // general race but NOT a data race.
    ProgramBuilder pb;
    pb.var("s", 0, 1);
    ThreadBuilder a, b;
    a.unset(0).halt();
    b.unset(0).halt();
    pb.thread(a).thread(b);

    const auto res = runProgram(pb.build(), {.model = ModelKind::SC});
    const auto det = analyzeExecution(res);
    EXPECT_TRUE(det.races().empty());

    AnalysisOptions opts;
    opts.finder.includeSyncSyncRaces = true;
    const auto det2 = analyzeExecution(res, opts);
    ASSERT_EQ(det2.races().size(), 1u);
    EXPECT_FALSE(det2.races()[0].isDataRace);
    EXPECT_FALSE(det2.anyDataRace());
    // General races alone produce no reportable first partitions.
    EXPECT_TRUE(det2.partitions().firstPartitions.empty());
}

TEST(RaceFinder, LockedAccessesDoNotRace)
{
    const auto det = analyze(lockedCounter(3, 4), ModelKind::WO, 7);
    EXPECT_TRUE(det.races().empty());
}

TEST(RaceFinder, RacyCounterRaces)
{
    const auto det =
        analyze(lockedCounter(2, 3, /*racy=*/true), ModelKind::SC);
    EXPECT_FALSE(det.races().empty());
    EXPECT_TRUE(det.anyDataRace());
}

// Two independent races, one ordered after the other through po:
// the second is affected by the first and must not be first.
Program
chainedRaces()
{
    ProgramBuilder pb;
    pb.var("a", 0).var("c", 1).var("dummy", 2, 1);
    ThreadBuilder p0, p1, p2;
    p0.storei(0, 1).halt();                       // write a
    p1.load(1, 0)                                 // read a   (race 1)
      .unset(2)                                   // split events
      .storei(1, 1)                               // write c  (race 2)
      .halt();
    p2.load(1, 1).halt();                         // read c
    pb.thread(p0).thread(p1).thread(p2);
    return pb.build();
}

TEST(Partitions, AffectedRaceIsNotFirst)
{
    // Scripted order: P0 and P1 race on a, then P1 writes c, P2
    // reads c.  Any order works for race detection (hb1 does not
    // depend on the interleaving here).
    const auto det = analyze(chainedRaces());
    ASSERT_EQ(det.races().size(), 2u);
    ASSERT_EQ(det.partitions().partitions.size(), 2u);
    EXPECT_EQ(det.partitions().firstPartitions.size(), 1u);

    // The first partition is the one racing on address 0 (a).
    const auto &first =
        det.partitions()
            .partitions[det.partitions().firstPartitions[0]];
    ASSERT_EQ(first.races.size(), 1u);
    EXPECT_EQ(det.races()[first.races[0]].addrs,
              std::vector<Addr>{0});
    // And the reported set excludes the race on c.
    const auto reported = det.reportedRaces();
    ASSERT_EQ(reported.size(), 1u);
    EXPECT_EQ(det.races()[reported[0]].addrs, std::vector<Addr>{0});
}

TEST(Partitions, MutuallyAffectingRacesShareAPartition)
{
    // P0: write a ... read b;  P1: write b ... read a.
    // Each race's endpoint po-reaches the other race's endpoint in
    // both directions -> one SCC -> one partition.
    ProgramBuilder pb;
    pb.var("a", 0).var("b", 1).var("d0", 2, 1).var("d1", 3, 1);
    ThreadBuilder p0, p1;
    p0.storei(0, 1).unset(2).load(1, 1).halt();
    p1.storei(1, 1).unset(3).load(1, 0).halt();
    pb.thread(p0).thread(p1);
    const auto det = analyze(pb.build());
    ASSERT_EQ(det.races().size(), 2u);
    EXPECT_EQ(det.partitions().partitions.size(), 1u);
    EXPECT_EQ(det.partitions().firstPartitions.size(), 1u);
    EXPECT_EQ(det.reportedRaces().size(), 2u);
}

TEST(Partitions, Theorem41BothDirections)
{
    // No data races <-> no first partitions with data races.
    const auto clean = analyze(figure1b());
    EXPECT_FALSE(clean.anyDataRace());
    EXPECT_TRUE(clean.partitions().firstPartitions.empty());

    const auto racy = analyze(figure1a());
    EXPECT_TRUE(racy.anyDataRace());
    EXPECT_FALSE(racy.partitions().firstPartitions.empty());

    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        const auto det = analyze(randomRacyProgram(seed), ModelKind::SC,
                                 seed);
        EXPECT_EQ(det.anyDataRace(),
                  !det.partitions().firstPartitions.empty())
            << "seed " << seed;
    }
}

TEST(Augmented, RaceAffectsPoSuccessors)
{
    const auto det = analyze(chainedRaces());
    ASSERT_EQ(det.races().size(), 2u);
    const auto &r1 = det.races()[0].addrs[0] == 0 ? det.races()[0]
                                                  : det.races()[1];
    const auto &r2 = det.races()[0].addrs[0] == 0 ? det.races()[1]
                                                  : det.races()[0];
    EXPECT_TRUE(det.augmented().raceAffectsRace(r1, r2));
    EXPECT_FALSE(det.augmented().raceAffectsRace(r2, r1));
    // A race affects its own endpoints (Def. 3.3(1)).
    EXPECT_TRUE(det.augmented().raceAffectsEvent(r1, r1.a));
    EXPECT_TRUE(det.augmented().raceAffectsEvent(r1, r1.b));
}

TEST(Scp, WholeExecutionScWhenNoStaleReads)
{
    const auto det = analyze(figure1a(), ModelKind::SC);
    EXPECT_TRUE(det.scp().wholeExecutionSc);
    ASSERT_EQ(det.races().size(), 1u);
    EXPECT_TRUE(det.scp().raceInScp[0]);
}

TEST(Scp, Condition34HoldsOnWeakExecutions)
{
    // Sweep racy programs on weak models; the simulator must satisfy
    // Condition 3.4: every data race in (or affected by one in) SCP.
    for (std::uint64_t seed = 0; seed < 25; ++seed) {
        for (const auto kind :
             {ModelKind::WO, ModelKind::RCsc, ModelKind::DRF0,
              ModelKind::DRF1}) {
            const auto det =
                analyze(randomRacyProgram(seed), kind, seed, 0.9);
            const auto bad = checkCondition34(
                det.races(), det.scp(), det.augmented());
            EXPECT_TRUE(bad.empty())
                << modelName(kind) << " seed " << seed << ": "
                << bad.size() << " uncovered races";
        }
    }
}

TEST(Scp, StaleExecutionHasBoundedPrefix)
{
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
        ExecOptions opts;
        opts.model = ModelKind::WO;
        opts.seed = seed;
        opts.drainLaziness = 1.0;
        const auto res = runProgram(figure1a(), opts);
        if (res.firstStaleRead == kNoOp)
            continue;
        const auto det = analyzeExecution(res);
        EXPECT_FALSE(det.scp().wholeExecutionSc);
        EXPECT_EQ(det.scp().scpEndOp, res.firstStaleRead);
        return;
    }
    FAIL() << "no stale figure-1a execution found";
}

TEST(Scp, MembershipClassification)
{
    // The staged Figure 2(b) execution: P2 dequeued a stale address
    // and worked on it, so divergent operations exist.
    {
        const auto res =
            stageFigure2bExecution({.regionSize = 6, .staleOffset = 3})
                .result;
        ASSERT_NE(res.firstStaleRead, kNoOp);
        const auto det = analyzeExecution(res);
        const auto &scp = det.scp();
        const auto divergentOps = [&](const Event &ev) {
            std::size_t n = 0, total = 0;
            if (ev.kind == EventKind::Sync) {
                total = 1;
                n = res.ops[ev.syncOp.id].divergent ? 1 : 0;
            } else {
                for (const OpId o : ev.memberOps) {
                    ++total;
                    n += res.ops[o].divergent;
                }
            }
            return std::make_pair(n, total);
        };
        bool sawOutside = false;
        for (const auto &ev : det.trace().events()) {
            const auto [n, total] = divergentOps(ev);
            switch (scp.membership(ev.id)) {
              case ScpMembership::Full:
                EXPECT_EQ(n, 0u);
                break;
              case ScpMembership::Partial:
                EXPECT_GT(n, 0u);
                EXPECT_LT(n, total);
                break;
              case ScpMembership::Outside:
                EXPECT_EQ(n, total);
                EXPECT_GT(total, 0u);
                sawOutside = true;
                break;
            }
            // Nothing before the base boundary is ever divergent.
            if (ev.lastOp < scp.scpEndOp)
                EXPECT_NE(scp.membership(ev.id), ScpMembership::Outside);
        }
        // The stale queue execution has post-SCP work (P2's region
        // loop on the stale address).
        EXPECT_TRUE(sawOutside);
    }
}

TEST(Analysis, TraceFileRoundTripGivesSameVerdict)
{
    ExecOptions opts;
    opts.model = ModelKind::WO;
    opts.seed = 11;
    const auto res =
        runProgram(figure2Queue({.regionSize = 8}), opts);
    const auto direct = analyzeExecution(res);

    const std::string path = "/tmp/wmr_detect_roundtrip.bin";
    writeSegmentedTraceFile(buildTrace(res), path);
    auto file = tryReadTraceFile(path);
    std::remove(path.c_str());
    ASSERT_TRUE(file.ok()) << file.error;
    const auto loaded = analyzeTrace(std::move(file.trace));

    EXPECT_EQ(direct.races().size(), loaded.races().size());
    EXPECT_EQ(direct.partitions().firstPartitions.size(),
              loaded.partitions().firstPartitions.size());
    EXPECT_EQ(direct.anyDataRace(), loaded.anyDataRace());
}

TEST(Report, CleanReportStatesTheorem41)
{
    const auto det = analyze(figure1b());
    const auto text = formatReport(det, nullptr);
    EXPECT_NE(text.find("NO data races detected"), std::string::npos);
    EXPECT_NE(text.find("sequentially consistent"), std::string::npos);
}

TEST(Report, RacyReportNamesVariables)
{
    const Program prog = figure1a();
    const auto det = analyze(prog);
    const auto text = formatReport(det, &prog);
    EXPECT_NE(text.find("first partition"), std::string::npos);
    EXPECT_NE(text.find("x"), std::string::npos);
    EXPECT_NE(text.find("Theorem 4.2"), std::string::npos);
}

TEST(Report, EventDumpRendersMembership)
{
    const auto det = analyze(figure1a());
    ReportOptions ropts;
    ropts.showEvents = true;
    const auto text = formatReport(det, nullptr, ropts);
    EXPECT_NE(text.find("-- events --"), std::string::npos);
    EXPECT_NE(text.find("in-SCP"), std::string::npos);
}

} // namespace
} // namespace wmr
