/**
 * @file
 * The detector-family differential harness (src/engines/).
 *
 * Every trace class the project can produce is pushed through the
 * full containment chain {hb1, shb, wcp} and the family's pairwise
 * verdict-containment checks must come back with ZERO violations:
 *
 *   reported(hb1) ⊆ races(shb) == races(hb1) ⊆ races(wcp)
 *
 * Trace classes covered:
 *
 *  - DetectorDiff.GoldenCorpus*:     every committed golden trace
 *    (EVENT and segmented containers, incl. the damaged fixture via
 *    salvage), plus the family's hb1 verdict against a direct
 *    analyzeTrace() of the same trace (golden corpus and figure
 *    programs);
 *  - DetectorDiff.FigurePrograms*:   the paper's figure programs ×
 *    all five memory models × seeds, with the SHB first-race vs hb1
 *    first-partition cross-check;
 *  - DetectorDiff.WorkloadSynthetics*: generator shapes (race-free,
 *    sparse, dense-hot) with report byte-identity across --jobs;
 *  - DetectorDiff.SalvagedTruncated*: truncation points across a
 *    segmented trace, each salvaged prefix re-verified;
 *  - DetectorDiff.CrossValidation*:  the shb clock engine's race
 *    set against the independent reachability-index pipeline;
 *  - DetectorDiff.OpLevelAdapters*:  the vc/epoch/lockset adapters
 *    run from the same stream — deterministic, flagged opLevel,
 *    and the vc adapter flags a hand-built W-W race.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "detect/analysis.hh"
#include "engines/family.hh"
#include "sim/executor.hh"
#include "trace/segmented_io.hh"
#include "trace/trace_io.hh"
#include "workload/patterns.hh"
#include "workload/random_gen.hh"
#include "workload/synthetic_trace.hh"

namespace fs = std::filesystem;

namespace wmr {
namespace {

std::vector<std::uint8_t>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<std::uint8_t>(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
}

/** Run the full containment chain over @p trace. */
engines::EngineFamilyResult
runChain(const ExecutionTrace &trace, unsigned threads = 1)
{
    const auto kinds = engines::parseEngineSelection("all");
    EXPECT_TRUE(kinds.has_value());
    engines::EngineFamilyOptions fopts;
    fopts.kinds = *kinds;
    fopts.threads = threads;
    return engines::runEngineFamily(trace, fopts);
}

/** The harness' core assertion: the chain ran, every pairwise
 *  containment check passed, zero violations. */
void
expectChainClean(const engines::EngineFamilyResult &fam,
                 const std::string &what)
{
    ASSERT_EQ(fam.verdicts.size(), 3u) << what;
    EXPECT_TRUE(fam.containment.checkedReportedInShb) << what;
    EXPECT_TRUE(fam.containment.checkedShbMatchesHb1) << what;
    EXPECT_TRUE(fam.containment.checkedShbInWcp) << what;
    EXPECT_TRUE(fam.containment.reportedInShb) << what;
    EXPECT_TRUE(fam.containment.shbMatchesHb1) << what;
    EXPECT_TRUE(fam.containment.shbInWcp) << what;
    EXPECT_EQ(fam.containment.violations, 0u) << what;
    for (const std::string &note : fam.containment.notes)
        ADD_FAILURE() << what << ": " << note;

    // The family's aggregate verdict is the OR of its members.
    bool any = false;
    for (const auto &v : fam.verdicts)
        any = any || v.anyDataRace;
    EXPECT_EQ(fam.anyDataRace, any) << what;

    // The agreement JSON always carries the zero-violation tail.
    const std::string json = engines::familyAgreementJson(fam);
    EXPECT_NE(json.find("\"schema\":\"wmrace-engine-agreement\""),
              std::string::npos)
        << what;
    EXPECT_NE(json.find("\"violations\":0"), std::string::npos)
        << what << ": " << json;
}

/** SHB first-race vs hb1 first-partition cross-check: hb1's
 *  REPORTED races are a subset of shb's race set, so on every
 *  variable an hb1-reported race touches, shb's per-variable first
 *  race completes no later than that reported race. */
void
expectShbFirstRacesCoverHb1Reported(
    const engines::EngineFamilyResult &fam, const std::string &what)
{
    const engines::EngineVerdict *hb1 = fam.verdict("hb1");
    const engines::EngineVerdict *shb = fam.verdict("shb");
    ASSERT_NE(hb1, nullptr) << what;
    ASSERT_NE(shb, nullptr) << what;

    const auto firstOn =
        [&](Addr a) -> const engines::EngineRace * {
        for (const auto &[addr, idx] : shb->firstRacePerVar) {
            if (addr == a)
                return &shb->races[idx];
        }
        return nullptr;
    };

    for (const std::uint32_t i : hb1->reported) {
        const engines::EngineRace &r = hb1->races[i];
        for (const Addr a : r.addrs) {
            const engines::EngineRace *first = firstOn(a);
            ASSERT_NE(first, nullptr)
                << what << ": hb1 reports a race on word " << a
                << " but shb attributes no first race to it";
            EXPECT_LE(std::make_pair(first->b, first->a),
                      std::make_pair(r.b, r.a))
                << what << ": shb first race on word " << a
                << " completes after an hb1-reported race";
        }
    }
}

/** Full per-trace check: chain clean + first-race coverage. */
void
checkTrace(const ExecutionTrace &trace, const std::string &what)
{
    const engines::EngineFamilyResult fam = runChain(trace);
    expectChainClean(fam, what);
    expectShbFirstRacesCoverHb1Reported(fam, what);
}

// ---------------------------------------------------------------
// GoldenCorpus
// ---------------------------------------------------------------

/** Load every committed golden trace (salvaging the damaged one),
 *  as (name, trace) pairs. */
std::vector<std::pair<std::string, ExecutionTrace>>
goldenTraces()
{
    std::vector<std::pair<std::string, ExecutionTrace>> out;
    const fs::path dir = WMR_GOLDEN_DIR;
    EXPECT_TRUE(fs::is_directory(dir)) << dir;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() != ".trace")
            continue;
        const std::string name = entry.path().filename().string();
        const auto bytes = readFileBytes(entry.path().string());
        EXPECT_FALSE(bytes.empty()) << name;
        const bool damaged =
            name.find("damaged") != std::string::npos;
        auto res = tryDeserializeTrace(bytes, /*salvage=*/damaged);
        EXPECT_TRUE(res.ok()) << name << ": " << res.error;
        if (res.ok())
            out.emplace_back(name, std::move(res.trace));
    }
    std::sort(out.begin(), out.end(),
              [](const auto &x, const auto &y) {
                  return x.first < y.first;
              });
    return out;
}

TEST(DetectorDiff, GoldenCorpusChainClean)
{
    const auto traces = goldenTraces();
    EXPECT_GE(traces.size(), 10u);
    for (const auto &[name, trace] : traces)
        checkTrace(trace, name);
}

/** The paper's figure programs × all memory models × two seeds,
 *  as (label, trace) pairs. */
std::vector<std::pair<std::string, ExecutionTrace>>
figureTraces()
{
    const std::pair<const char *, Program> programs[] = {
        {"figure1a", figure1a()},
        {"figure1b", figure1b()},
        {"figure2Queue", figure2Queue()},
        {"messagePassingRacy", messagePassing(4, true)},
        {"dekkerDataFlags", dekkerDataFlags()},
    };
    std::vector<std::pair<std::string, ExecutionTrace>> out;
    for (const auto &[label, prog] : programs) {
        for (const ModelKind model : kAllModels) {
            for (const std::uint64_t seed : {1ull, 7ull}) {
                ExecOptions opts;
                opts.model = model;
                opts.seed = seed;
                out.emplace_back(
                    std::string(label) + "/" +
                        std::string(modelName(model)) + "/s" +
                        std::to_string(seed),
                    buildTrace(runProgram(prog, opts),
                               {.keepMemberOps = true}));
            }
        }
    }
    return out;
}

/** The family's hb1 verdict is what a direct analyzeTrace() of the
 *  same trace found: every race, the reported subset, the partition
 *  counts and the verdict. */
void
expectHb1VerdictIsAnalysis(const ExecutionTrace &trace,
                           const std::string &what)
{
    const engines::EngineFamilyResult fam = runChain(trace);
    const engines::EngineVerdict *hb1 = fam.verdict("hb1");
    ASSERT_NE(hb1, nullptr) << what;
    const DetectionResult det = analyzeTrace(trace);

    const auto &want = det.races();
    ASSERT_EQ(hb1->races.size(), want.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(hb1->races[i].a, want[i].a) << what;
        EXPECT_EQ(hb1->races[i].b, want[i].b) << what;
        EXPECT_EQ(hb1->races[i].addrs, want[i].addrs) << what;
        EXPECT_EQ(hb1->races[i].isDataRace, want[i].isDataRace)
            << what;
    }
    EXPECT_EQ(hb1->reported, det.reportedRaces()) << what;
    EXPECT_TRUE(hb1->hasPartitions) << what;
    EXPECT_EQ(hb1->partitions, det.partitions().partitions.size())
        << what;
    EXPECT_EQ(hb1->firstPartitions,
              det.partitions().firstPartitions.size())
        << what;
    EXPECT_EQ(hb1->numDataRaces, det.numDataRaces()) << what;
    EXPECT_EQ(hb1->anyDataRace, det.anyDataRace()) << what;
}

TEST(DetectorDiff, GoldenCorpusHb1ReportIsCanonical)
{
    // The family reports hb1 from analyzeTrace() itself; its verdict
    // must match a direct analysis race for race, on the golden
    // corpus and on the figure programs.
    for (const auto &[name, trace] : goldenTraces())
        expectHb1VerdictIsAnalysis(trace, name);
    for (const auto &[label, trace] : figureTraces())
        expectHb1VerdictIsAnalysis(trace, label);
}

// ---------------------------------------------------------------
// FigurePrograms
// ---------------------------------------------------------------

TEST(DetectorDiff, FigureProgramsAcrossModelsAndSeeds)
{
    for (const auto &[label, trace] : figureTraces())
        checkTrace(trace, label);
}

// ---------------------------------------------------------------
// WorkloadSynthetics
// ---------------------------------------------------------------

TEST(DetectorDiff, WorkloadSyntheticsAcrossJobs)
{
    SyntheticTraceOptions shapes[3];
    shapes[0].procs = 2; // sparse
    shapes[0].eventsPerProc = 80;
    shapes[0].hotFraction = 0.0;
    shapes[0].seed = 5;
    shapes[1].procs = 4; // dense-hot
    shapes[1].eventsPerProc = 120;
    shapes[1].hotFraction = 0.7;
    shapes[1].seed = 6;
    shapes[2].procs = 6; // sync-heavy
    shapes[2].eventsPerProc = 60;
    shapes[2].syncFraction = 0.5;
    shapes[2].seed = 7;

    for (const auto &opts : shapes) {
        const ExecutionTrace trace = makeSyntheticTrace(opts);
        const std::string what =
            "synthetic s" + std::to_string(opts.seed);
        checkTrace(trace, what);

        // Verdicts — and the rendered report, byte for byte — are
        // identical at every worker count (`--jobs` determinism).
        const engines::EngineFamilyResult base = runChain(trace, 1);
        const std::string baseReport =
            engines::formatFamilyReport(base);
        for (const unsigned threads : {2u, 8u}) {
            const engines::EngineFamilyResult fam =
                runChain(trace, threads);
            EXPECT_EQ(engines::formatFamilyReport(fam), baseReport)
                << what << " at threads=" << threads;
        }
    }
}

// ---------------------------------------------------------------
// SalvagedTruncated
// ---------------------------------------------------------------

TEST(DetectorDiff, SalvagedTruncatedTracesStayContained)
{
    SyntheticTraceOptions opts;
    opts.procs = 3;
    opts.eventsPerProc = 100;
    opts.syncFraction = 0.3;
    opts.hotFraction = 0.5;
    opts.seed = 42;
    const ExecutionTrace full = makeSyntheticTrace(opts);
    const std::vector<std::uint8_t> bytes =
        serializeSegmentedTrace(full, 16);

    // Salvage prefixes cut at several points across the file; every
    // recovered prefix must satisfy the chain like a born-complete
    // trace.
    std::size_t salvaged = 0;
    for (const double frac : {0.35, 0.6, 0.85}) {
        const std::size_t cut =
            static_cast<std::size_t>(bytes.size() * frac);
        const std::vector<std::uint8_t> cutBytes(
            bytes.begin(),
            bytes.begin() + static_cast<std::ptrdiff_t>(cut));
        auto res = trySalvageTrace(cutBytes);
        if (!res.ok() || res.trace.events().empty())
            continue;
        checkTrace(res.trace,
                   "salvaged@" + std::to_string(cut) + "B");
        ++salvaged;
    }
    EXPECT_GE(salvaged, 2u);
}

// ---------------------------------------------------------------
// CrossValidation
// ---------------------------------------------------------------

TEST(DetectorDiff, ShbMatchesReachabilityPipeline)
{
    // Independent-implementation cross-validation: the shb clock
    // engine's race set must equal findRaces() over the
    // reachability index — different algorithm, same answer.
    std::vector<SyntheticTraceOptions> shapes;
    for (std::uint64_t seed = 50; seed < 58; ++seed) {
        SyntheticTraceOptions opts;
        opts.procs = 3;
        opts.eventsPerProc = 50;
        opts.hotFraction = 0.6;
        opts.seed = seed;
        shapes.push_back(opts);
    }
    // Sync and data accesses share all 8 words, so data events meet
    // earlier sync accesses of their words and sync events earlier
    // data accesses (~15k races per seed).
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SyntheticTraceOptions opts;
        opts.procs = 4;
        opts.eventsPerProc = 400;
        opts.memWords = 8;
        opts.syncWords = 8;
        opts.syncFraction = 0.6;
        opts.hotFraction = 0.0;
        opts.seed = seed;
        shapes.push_back(opts);
    }
    for (const SyntheticTraceOptions &opts : shapes) {
        const std::string what = "words " +
                                 std::to_string(opts.memWords) +
                                 " seed " + std::to_string(opts.seed);
        const ExecutionTrace trace = makeSyntheticTrace(opts);
        const engines::EngineFamilyResult fam = runChain(trace);
        const engines::EngineVerdict *shb = fam.verdict("shb");
        ASSERT_NE(shb, nullptr);

        const DetectionResult det = analyzeTrace(trace);
        const auto &want = det.races();
        ASSERT_EQ(shb->races.size(), want.size()) << what;
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(shb->races[i].a, want[i].a) << what;
            EXPECT_EQ(shb->races[i].b, want[i].b) << what;
            EXPECT_EQ(shb->races[i].addrs, want[i].addrs) << what;
        }
    }
}

// ---------------------------------------------------------------
// OpLevelAdapters
// ---------------------------------------------------------------

/** Two unsynchronized writers of word 0 — the smallest W-W race. */
ExecutionTrace
tinyWwRaceTrace()
{
    ExecutionTrace trace;
    trace.setShape(2, 4);
    trace.setTotalOps(2);
    trace.setFirstStaleRead(kNoOp);
    for (ProcId p = 0; p < 2; ++p) {
        Event ev;
        ev.kind = EventKind::Computation;
        ev.proc = p;
        ev.firstOp = ev.lastOp = p;
        ev.opCount = 1;
        ev.writeSet = {0};
        trace.addEvent(ev);
    }
    return trace;
}

engines::EngineVerdict
runAdapter(const ExecutionTrace &trace, const char *name)
{
    const auto kinds = engines::parseEngineSelection(name);
    EXPECT_TRUE(kinds.has_value()) << name;
    engines::EngineFamilyOptions fopts;
    fopts.kinds = *kinds;
    const engines::EngineFamilyResult fam =
        engines::runEngineFamily(trace, fopts);
    EXPECT_EQ(fam.verdicts.size(), 1u) << name;
    return fam.verdicts.front();
}

TEST(DetectorDiff, OpLevelAdaptersRunAndStayDeterministic)
{
    ExecOptions opts;
    opts.model = ModelKind::WO;
    opts.seed = 7;
    const ExecutionTrace trace =
        buildTrace(runProgram(figure1a(), opts),
                   {.keepMemberOps = true});

    for (const char *name : {"vc", "epoch", "lockset"}) {
        const engines::EngineVerdict first =
            runAdapter(trace, name);
        EXPECT_TRUE(first.opLevel) << name;
        EXPECT_TRUE(first.races.empty())
            << name << ": op-level adapters report counts, "
                       "not event pairs";
        const engines::EngineVerdict again =
            runAdapter(trace, name);
        EXPECT_EQ(first.opRacesReported, again.opRacesReported)
            << name;
        EXPECT_EQ(first.opRacesDistinct, again.opRacesDistinct)
            << name;
        EXPECT_EQ(first.anyDataRace, again.anyDataRace) << name;
    }
}

TEST(DetectorDiff, VcAdapterFlagsPlainWwRace)
{
    const ExecutionTrace trace = tinyWwRaceTrace();
    const engines::EngineVerdict vc = runAdapter(trace, "vc");
    EXPECT_TRUE(vc.anyDataRace);
    EXPECT_GE(vc.opRacesDistinct, 1u);

    // ... and the chain engines agree on the same two events.
    const engines::EngineFamilyResult fam = runChain(trace);
    expectChainClean(fam, "tiny-ww");
    const engines::EngineVerdict *shb = fam.verdict("shb");
    ASSERT_NE(shb, nullptr);
    ASSERT_EQ(shb->races.size(), 1u);
    EXPECT_EQ(shb->races[0].a, 0u);
    EXPECT_EQ(shb->races[0].b, 1u);
    EXPECT_EQ(shb->races[0].addrs, std::vector<Addr>{0});
}

} // namespace
} // namespace wmr
