/**
 * @file
 * Integration tests: the full post-mortem workflow end to end —
 * assemble / build a program, execute it on a weak model, write
 * trace files, read them back in a separate "analysis phase", detect
 * and report — plus cross-module consistency checks.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "detect/analysis.hh"
#include "detect/report.hh"
#include "onthefly/vc_detector.hh"
#include "prog/assembler.hh"
#include "trace/segmented_io.hh"
#include "workload/random_gen.hh"
#include "workload/scenarios.hh"

namespace wmr {
namespace {

TEST(EndToEnd, AssembleSimulateTraceDetect)
{
    // The full user workflow starting from assembly text.
    const Program p = assemble(R"(
        .var x 0
        .var y 1
        .var s 2 1
        .thread                     # P1
            storei [x], 1
            storei [y], 1
            unset [s]
            halt
        .thread                     # P2
        spin: tas r0, [s]
            bnz r0, spin
            load r1, [y]
            load r2, [x]
            halt
    )");

    ExecOptions opts;
    opts.model = ModelKind::WO;
    opts.seed = 4;
    const auto res = runProgram(p, opts);
    ASSERT_TRUE(res.completed);

    const std::string path = "/tmp/wmr_e2e_trace.bin";
    writeSegmentedTraceFile(buildTrace(res), path);
    auto file = tryReadTraceFile(path);
    std::remove(path.c_str());
    ASSERT_TRUE(file.ok()) << file.error;
    const auto det = analyzeTrace(std::move(file.trace));

    EXPECT_FALSE(det.anyDataRace());
    const auto report = formatReport(det, &p);
    EXPECT_NE(report.find("NO data races detected"),
              std::string::npos);
}

TEST(EndToEnd, PostMortemPhasesSeparated)
{
    // Phase 1: instrumented execution writes trace files.
    const auto s = stageFigure2bExecution();
    const std::string path = "/tmp/wmr_e2e_queue.bin";
    writeSegmentedTraceFile(buildTrace(s.result), path);

    // Phase 2 (post-mortem): a fresh analysis from the file alone.
    auto file = tryReadTraceFile(path);
    std::remove(path.c_str());
    ASSERT_TRUE(file.ok()) << file.error;
    const auto det = analyzeTrace(std::move(file.trace));

    EXPECT_TRUE(det.anyDataRace());
    ASSERT_EQ(det.partitions().firstPartitions.size(), 1u);
    // SCP classification survives serialization (divergence flags
    // ride in the trace's member-op metadata only when ops are
    // available; the trace-only path gives the conservative view).
    EXPECT_FALSE(det.scp().wholeExecutionSc);
}

TEST(EndToEnd, OnTheFlyAndPostMortemAgreeAcrossModels)
{
    for (const auto kind : kAllModels) {
        for (std::uint64_t seed = 0; seed < 8; ++seed) {
            const Program p = (seed % 2) ? randomRacyProgram(seed)
                                         : randomRaceFreeProgram(seed);
            VcDetector otf(p.numProcs(), p.memWords());
            ExecOptions opts;
            opts.model = kind;
            opts.seed = seed;
            opts.drainLaziness = 0.8;
            opts.sink = &otf;
            const auto res = runProgram(p, opts);
            ASSERT_TRUE(res.completed);
            const auto det = analyzeExecution(res);
            EXPECT_EQ(!otf.races().empty(), det.anyDataRace())
                << modelName(kind) << " seed " << seed;
        }
    }
}

TEST(EndToEnd, EventGranularityDoesNotChangeTheVerdict)
{
    // Splitting computation events (finer tracing) must not change
    // whether races are found, only how they are grouped.
    const auto s = stageFigure2bExecution();
    for (const std::uint32_t run : {0u, 1u, 2u, 8u}) {
        AnalysisOptions opts;
        opts.traceOpts.maxCompRun = run;
        opts.traceOpts.keepMemberOps = true;
        const auto det = analyzeExecution(s.result, opts);
        EXPECT_TRUE(det.anyDataRace()) << "run " << run;
        EXPECT_FALSE(det.partitions().firstPartitions.empty());
    }
}

TEST(EndToEnd, ScAndWeakAgreeOnRaceFreePrograms)
{
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        const Program p = randomRaceFreeProgram(seed);
        ExecutionResult sc, wo;
        {
            ExecOptions opts;
            opts.model = ModelKind::SC;
            opts.seed = seed;
            sc = runProgram(p, opts);
        }
        {
            ExecOptions opts;
            opts.model = ModelKind::WO;
            opts.seed = seed;
            wo = runProgram(p, opts);
        }
        // Identical schedules would give identical results, but the
        // rng use differs; assert the semantic agreement instead:
        // both race-free, both SC, same final shared state given the
        // deterministic per-address last writes under locks...
        // (final memory can legitimately differ when commutative
        // blocks interleave differently, so compare race verdicts).
        EXPECT_EQ(sc.staleReads, 0u);
        EXPECT_EQ(wo.staleReads, 0u);
        EXPECT_FALSE(analyzeExecution(sc).anyDataRace());
        EXPECT_FALSE(analyzeExecution(wo).anyDataRace());
    }
}

TEST(EndToEnd, LargeExecutionPipeline)
{
    // A larger run end to end: ~10k operations through tracing,
    // serialization, detection.
    RandomProgConfig cfg;
    cfg.seed = 42;
    cfg.procs = 6;
    cfg.blocksPerProc = 40;
    cfg.opsPerBlock = 10;
    cfg.dataWords = 64;
    cfg.numLocks = 8;
    cfg.unlockedProb = 0.05;
    const Program p = randomProgram(cfg);

    ExecOptions opts;
    opts.model = ModelKind::RCsc;
    opts.seed = 42;
    const auto res = runProgram(p, opts);
    ASSERT_TRUE(res.completed);
    EXPECT_GT(res.ops.size(), 2'000u);

    auto loaded =
        tryDeserializeTrace(serializeSegmentedTrace(buildTrace(res)));
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    const auto det = analyzeTrace(std::move(loaded.trace));
    // Racy blocks exist (5%), so usually some race appears; the
    // pipeline must at minimum be internally consistent.
    EXPECT_EQ(det.anyDataRace(),
              !det.partitions().firstPartitions.empty());
    const auto bad = checkCondition34(det.races(), det.scp(),
                                      det.augmented());
    EXPECT_TRUE(bad.empty());
}

TEST(EndToEnd, ReportIsStableAcrossRuns)
{
    const auto s1 = stageFigure2bExecution();
    const auto s2 = stageFigure2bExecution();
    const auto r1 = formatReport(analyzeExecution(s1.result),
                                 &s1.program);
    const auto r2 = formatReport(analyzeExecution(s2.result),
                                 &s2.program);
    EXPECT_EQ(r1, r2);
}

} // namespace
} // namespace wmr
