/**
 * @file
 * Section 5 overhead claims:
 *
 *  (1) Section 4.1's tracing scheme — READ/WRITE sets per
 *      computation event, stored as delta-coded word lists in the
 *      WMRSEG01 container — beats tracing every memory operation, and
 *      the gap grows with the length of unsynchronized runs.
 *  (2) Post-mortem analysis cost scales with EVENTS, not operations:
 *      coarser events (longer computation runs) make analysis
 *      cheaper for the same operation count.
 *  (3) On-the-fly detection avoids trace storage entirely but does
 *      work on every operation (the run-time overhead trade-off),
 *      with FastTrack-style epochs recovering most of the cost.
 */

#include "bench_util.hh"

#include "detect/analysis.hh"
#include "onthefly/epoch_detector.hh"
#include "onthefly/vc_detector.hh"
#include "trace/segmented_io.hh"
#include "trace/wire_codec.hh"
#include "workload/random_gen.hh"

namespace {

using namespace wmr;
using namespace wmr::benchutil;

Program
workloadProgram(std::uint32_t blocks, std::uint64_t seed = 11,
                std::uint32_t opsPerBlock = 8)
{
    RandomProgConfig cfg;
    cfg.seed = seed;
    cfg.procs = 4;
    cfg.blocksPerProc = blocks;
    cfg.opsPerBlock = opsPerBlock;
    cfg.dataWords = 64;
    cfg.numLocks = 8;
    cfg.unlockedProb = 0.05;
    return randomProgram(cfg);
}

/**
 * The FULL-OP encoding Section 4.1 rejects ("WMRFOP01"): one record
 * per memory operation.  It exists only to measure what the event
 * abstraction saves; nothing reads it back.
 */
std::vector<std::uint8_t>
serializeFullOps(const std::vector<MemOp> &ops)
{
    static constexpr char kFullOpMagic[8] = {'W', 'M', 'R', 'F',
                                             'O', 'P', '0', '1'};
    wire::Encoder enc;
    enc.raw(kFullOpMagic, sizeof(kFullOpMagic));
    enc.u64(ops.size());
    for (const auto &op : ops)
        wire::encodeMemOp(enc, op);
    return enc.take();
}

ExecutionResult
execOf(const Program &p, std::uint64_t seed = 11)
{
    ExecOptions opts;
    opts.model = ModelKind::WO;
    opts.seed = seed;
    return runProgram(p, opts);
}

void
reproduce()
{
    section("(1) trace size: full-op records vs WMRSEG01 events");
    std::printf("  %-10s %12s %14s %14s %12s %12s\n", "ops",
                "events", "full bytes", "event bytes", "B/op full",
                "B/op event");
    for (const std::uint32_t blocks : {5u, 20u, 80u, 320u}) {
        const auto res = execOf(workloadProgram(blocks));
        const auto trace = buildTrace(res);
        const auto fullBytes = serializeFullOps(res.ops).size();
        const auto eventBytes = serializeSegmentedTrace(trace).size();
        std::printf("  %-10zu %12zu %14zu %14zu %12.2f %12.2f\n",
                    res.ops.size(), trace.events().size(), fullBytes,
                    eventBytes,
                    static_cast<double>(fullBytes) /
                        static_cast<double>(res.ops.size()),
                    static_cast<double>(eventBytes) /
                        static_cast<double>(res.ops.size()));
    }
    note("'recording the READ and WRITE sets is in general more "
         "efficient than");
    note(" tracing every memory operation' (Sec. 4.1).");

    section("(1b) ...and the gap grows with the computation-run "
            "length");
    std::printf("  %-14s %10s %12s %12s %10s\n", "ops/block",
                "ops", "B/op full", "B/op event", "ratio");
    for (const std::uint32_t opb : {2u, 8u, 32u, 128u}) {
        const auto res = execOf(workloadProgram(20, 11, opb));
        const auto trace = buildTrace(res);
        const double full =
            static_cast<double>(serializeFullOps(res.ops).size()) /
            static_cast<double>(res.ops.size());
        const double event =
            static_cast<double>(serializeSegmentedTrace(trace).size()) /
            static_cast<double>(res.ops.size());
        std::printf("  %-14u %10zu %12.2f %12.2f %9.1fx\n", opb,
                    res.ops.size(), full, event, full / event);
    }
    note("long unsynchronized computation phases are where the "
         "event scheme");
    note("pays off: many operations fold into one event record.");

    section("(2) analysis cost follows events, not operations");
    std::printf("  %-14s %10s %10s  (same execution, different "
                "tracing granularity)\n",
                "maxCompRun", "events", "races");
    const auto res = execOf(workloadProgram(80));
    for (const std::uint32_t run : {1u, 4u, 16u, 0u}) {
        TraceBuildOptions t;
        t.maxCompRun = run;
        const auto trace = buildTrace(res, t);
        const auto det = analyzeTrace(trace);
        const std::string label =
            run == 0 ? "unbounded" : std::to_string(run);
        std::printf("  %-14s %10zu %10zu\n", label.c_str(),
                    trace.events().size(), det.races().size());
    }
    note("timings below (BM_AnalyzeGranularity) quantify the gap.");

    section("(3) on-the-fly work counters (per operation)");
    std::printf("  %-10s %14s %14s %16s %14s\n", "detector",
                "ops", "vector joins", "epoch checks", "races");
    {
        const Program p = workloadProgram(80);
        VcDetector vc(p.numProcs(), p.memWords());
        ExecOptions opts;
        opts.model = ModelKind::WO;
        opts.seed = 11;
        opts.sink = &vc;
        const auto r1 = runProgram(p, opts);
        std::printf("  %-10s %14llu %14llu %16llu %14llu\n", "VC",
                    static_cast<unsigned long long>(
                        vc.stats().opsProcessed),
                    static_cast<unsigned long long>(
                        vc.stats().clockJoins),
                    static_cast<unsigned long long>(
                        vc.stats().epochChecks),
                    static_cast<unsigned long long>(
                        vc.stats().racesReported));

        EpochDetector ep(p.numProcs(), p.memWords());
        for (const auto &op : r1.ops)
            ep.onOp(op);
        std::printf("  %-10s %14llu %14llu %16llu %14llu\n",
                    "FastTrack",
                    static_cast<unsigned long long>(
                        ep.stats().opsProcessed),
                    static_cast<unsigned long long>(
                        ep.stats().clockJoins),
                    static_cast<unsigned long long>(
                        ep.stats().epochChecks),
                    static_cast<unsigned long long>(
                        ep.stats().racesReported));
    }
    note("on-the-fly methods do O(1)-O(P) work on EVERY operation "
         "but write no trace");
    note("files (Sec. 5's storage-vs-runtime trade).");
}

void
BM_TraceWriteEventFormat(benchmark::State &state)
{
    const auto res = execOf(workloadProgram(
        static_cast<std::uint32_t>(state.range(0))));
    for (auto _ : state) {
        const auto trace = buildTrace(res);
        benchmark::DoNotOptimize(serializeSegmentedTrace(trace).size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(res.ops.size()));
}
BENCHMARK(BM_TraceWriteEventFormat)->Arg(20)->Arg(80);

void
BM_TraceWriteFullOps(benchmark::State &state)
{
    const auto res = execOf(workloadProgram(
        static_cast<std::uint32_t>(state.range(0))));
    for (auto _ : state)
        benchmark::DoNotOptimize(serializeFullOps(res.ops).size());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(res.ops.size()));
}
BENCHMARK(BM_TraceWriteFullOps)->Arg(20)->Arg(80);

void
BM_AnalyzeGranularity(benchmark::State &state)
{
    const auto res = execOf(workloadProgram(80));
    TraceBuildOptions t;
    t.maxCompRun = static_cast<std::uint32_t>(state.range(0));
    const auto trace = buildTrace(res, t);
    for (auto _ : state) {
        auto det = analyzeTrace(trace);
        benchmark::DoNotOptimize(det.races().size());
    }
    state.counters["events"] =
        static_cast<double>(trace.events().size());
}
BENCHMARK(BM_AnalyzeGranularity)->Arg(1)->Arg(16)->Arg(0);

void
BM_OnTheFlyVc(benchmark::State &state)
{
    const Program p = workloadProgram(80);
    const auto res = execOf(p);
    for (auto _ : state) {
        VcDetector det(p.numProcs(), p.memWords());
        for (const auto &op : res.ops)
            det.onOp(op);
        benchmark::DoNotOptimize(det.races().size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(res.ops.size()));
}
BENCHMARK(BM_OnTheFlyVc);

void
BM_OnTheFlyEpoch(benchmark::State &state)
{
    const Program p = workloadProgram(80);
    const auto res = execOf(p);
    for (auto _ : state) {
        EpochDetector det(p.numProcs(), p.memWords());
        for (const auto &op : res.ops)
            det.onOp(op);
        benchmark::DoNotOptimize(det.races().size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(res.ops.size()));
}
BENCHMARK(BM_OnTheFlyEpoch);

} // namespace

WMR_BENCH_MAIN(reproduce)
