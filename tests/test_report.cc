/**
 * @file
 * The report renderer's contract: byte equality with a reference.
 *
 * The golden corpus pins only computation×computation races tagged
 * [SCP] in first partitions.  The reference below is the earlier
 * strformat renderer, kept verbatim in namespace ref: one summary
 * copy per race endpoint, one strformat per line piece.  The
 * production renderer (detect/report_model.cc) must produce the same
 * bytes for
 *  - random models that reach every branch (sync summaries, [SCP?]
 *    and [non-SCP] tags, the SCP-prefix line, non-first partitions,
 *    the ",..." cut, general races, named addresses, extreme ids);
 *  - real results: every golden trace whole-trace and streamed, and
 *    simulator scenarios with their Program, with and without the
 *    --events dump.
 * It also checks that a model summarizes each racy event once.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/string_util.hh"
#include "detect/analysis.hh"
#include "detect/report.hh"
#include "sim/executor.hh"
#include "stream/stream_analyzer.hh"
#include "trace/trace_io.hh"
#include "workload/patterns.hh"
#include "workload/scenarios.hh"

namespace fs = std::filesystem;

namespace wmr {
namespace ref {

// ---------------------------------------------------------------
// The reference renderer (verbatim but for the namespace: its
// calls that take a wmr type name ref:: so they do not resolve to
// the production functions).
// ---------------------------------------------------------------

struct ReportOptions
{
    bool showNonFirst = true;
    bool showEvents = false;
    std::size_t maxAddrsPerRace = 8;
};

struct ReportEventInfo
{
    EventId id = kNoEvent;
    ProcId proc = kNoProc;
    bool isSync = false;
    MemOp syncOp;
    std::uint32_t opCount = 0;
    std::vector<Addr> reads;
    std::vector<Addr> writes;
};

struct ReportRaceModel
{
    ReportEventInfo a;
    ReportEventInfo b;
    std::vector<Addr> addrs;
    bool isDataRace = true;
    bool inScp = false;
    bool maybeInScp = false;
};

struct ReportModel
{
    std::size_t numEvents = 0;
    std::uint32_t numSyncEvents = 0;
    std::uint64_t totalOps = 0;
    std::size_t numDataRaces = 0;
    bool anyDataRace = false;
    bool wholeExecutionSc = true;
    std::uint64_t scpEndOp = 0;
    std::vector<ReportRaceModel> races;
    std::vector<ReportPartitionModel> partitions;
    std::vector<std::uint32_t> firstPartitions;
};

std::string
addrText(Addr a, const Program *prog)
{
    if (prog)
        return prog->addrName(a);
    return strformat("[%u]", a);
}

std::string
joinAddrs(const std::vector<Addr> &addrs, const Program *prog)
{
    std::string out;
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        if (i)
            out += ",";
        out += addrText(addrs[i], prog);
    }
    return out;
}

ReportEventInfo
summarizeEvent(const Event &ev)
{
    ReportEventInfo info;
    info.id = ev.id;
    info.proc = ev.proc;
    info.isSync = ev.kind == EventKind::Sync;
    info.opCount = ev.opCount;
    if (info.isSync) {
        info.syncOp = ev.syncOp;
        return info;
    }
    const auto firstFour = [](const std::vector<Addr> &words) {
        return std::vector<Addr>(
            words.begin(),
            words.begin() + std::min<std::size_t>(words.size(), 4));
    };
    info.reads = firstFour(ev.readSet);
    info.writes = firstFour(ev.writeSet);
    return info;
}

std::string
describeEventInfo(const ReportEventInfo &info, const Program *prog)
{
    if (info.isSync) {
        const char *what = info.syncOp.kind == OpKind::Write
                               ? (info.syncOp.release ? "release-write"
                                                      : "sync-write")
                               : (info.syncOp.acquire ? "acquire-read"
                                                      : "sync-read");
        return strformat("E%u P%u %s %s @pc%u", info.id, info.proc,
                         what,
                         addrText(info.syncOp.addr, prog).c_str(),
                         info.syncOp.pc);
    }
    return strformat("E%u P%u computation(%u ops) R{%s} W{%s}",
                     info.id, info.proc, info.opCount,
                     joinAddrs(info.reads, prog).c_str(),
                     joinAddrs(info.writes, prog).c_str());
}

std::string
describeRaceModel(const ReportModel &m, RaceId r, const Program *prog,
                  const ReportOptions &opts)
{
    const ReportRaceModel &race = m.races[r];
    std::string addrs;
    for (std::size_t i = 0;
         i < race.addrs.size() && i < opts.maxAddrsPerRace; ++i) {
        if (i)
            addrs += ",";
        addrs += addrText(race.addrs[i], prog);
    }
    if (race.addrs.size() > opts.maxAddrsPerRace)
        addrs += ",...";
    const char *scp_tag =
        race.inScp ? "SCP" : (race.maybeInScp ? "SCP?" : "non-SCP");
    return strformat(
        "race #%u <%s | %s> on {%s} [%s]%s", r,
        describeEventInfo(race.a, prog).c_str(),
        describeEventInfo(race.b, prog).c_str(), addrs.c_str(),
        scp_tag,
        race.isDataRace ? "" : " (general race, not a data race)");
}

std::string
renderReport(const ReportModel &m, const Program *prog,
             const ReportOptions &opts)
{
    std::string out;

    out += "=== wmrace post-mortem data race report ===\n";
    out += strformat("events: %zu (%u sync), operations: %llu\n",
                     m.numEvents, m.numSyncEvents,
                     static_cast<unsigned long long>(m.totalOps));
    out += strformat("races: %zu (%zu data races) in %zu partitions\n",
                     m.races.size(), m.numDataRaces,
                     m.partitions.size());

    if (!m.anyDataRace) {
        out += "NO data races detected.\n";
        out += "By Theorem 4.1 / Condition 3.4(1): this execution was "
               "sequentially consistent;\nreason about it exactly as "
               "on a sequentially consistent machine.\n";
        return out;
    }

    if (m.wholeExecutionSc) {
        out += "execution remained SC end-to-end (no stale reads); "
               "all races are SCP races.\n";
    } else {
        out += strformat(
            "sequentially consistent prefix: operations [0, %llu)\n",
            static_cast<unsigned long long>(m.scpEndOp));
    }

    out += strformat("FIRST partitions to report: %zu\n",
                     m.firstPartitions.size());
    for (const auto pi : m.firstPartitions) {
        const auto &part = m.partitions[pi];
        out += strformat("-- first partition (G' component %u), "
                         "%zu race(s):\n",
                         part.label, part.races.size());
        out += "   at least one race below also occurs in a "
               "sequentially consistent execution (Theorem 4.2)\n";
        for (const auto r : part.races)
            out += "   " + describeRaceModel(m, r, prog, opts) + "\n";
    }

    if (opts.showNonFirst) {
        for (std::size_t i = 0; i < m.partitions.size(); ++i) {
            const auto &part = m.partitions[i];
            if (part.first)
                continue;
            out += strformat("-- non-first partition (G' component "
                             "%u), %zu race(s) — affected by earlier "
                             "races, may be artifacts:\n",
                             part.label, part.races.size());
            for (const auto r : part.races)
                out += "   " + describeRaceModel(m, r, prog, opts) +
                       "\n";
        }
    }
    return out;
}

std::string
membershipText(ScpMembership m)
{
    switch (m) {
      case ScpMembership::Full: return "in-SCP";
      case ScpMembership::Partial: return "SCP-boundary";
      case ScpMembership::Outside: return "post-SCP";
    }
    return "?";
}

ReportRaceModel
buildRaceModel(const DetectionResult &result, RaceId r)
{
    const DataRace &race = result.races()[r];
    ReportRaceModel out;
    out.a = ref::summarizeEvent(result.trace().event(race.a));
    out.b = ref::summarizeEvent(result.trace().event(race.b));
    out.addrs = race.addrs;
    out.isDataRace = race.isDataRace;
    out.inScp = result.scp().raceInScp[r];
    out.maybeInScp = result.scp().raceMaybeInScp[r];
    return out;
}

ReportModel
buildReportModel(const DetectionResult &result)
{
    ReportModel m;
    m.numEvents = result.trace().events().size();
    m.numSyncEvents = result.trace().numSyncEvents();
    m.totalOps = result.trace().totalOps();
    m.numDataRaces = result.numDataRaces();
    m.anyDataRace = result.anyDataRace();
    m.wholeExecutionSc = result.scp().wholeExecutionSc;
    m.scpEndOp = result.scp().scpEndOp;
    for (RaceId r = 0; r < result.races().size(); ++r)
        m.races.push_back(buildRaceModel(result, r));
    const auto &parts = result.partitions();
    for (const auto &part : parts.partitions) {
        ReportPartitionModel pm;
        pm.label = part.label;
        pm.races = part.races;
        pm.first = part.first;
        m.partitions.push_back(std::move(pm));
    }
    m.firstPartitions = parts.firstPartitions;
    return m;
}

std::string
describeEvent(const Event &ev, const Program *prog)
{
    return describeEventInfo(ref::summarizeEvent(ev), prog);
}

std::string
formatReport(const DetectionResult &result, const Program *prog,
             const ReportOptions &opts)
{
    const ReportModel m = ref::buildReportModel(result);
    std::string out = renderReport(m, prog, opts);

    if (m.anyDataRace && opts.showEvents) {
        out += "-- events --\n";
        for (const auto &ev : result.trace().events()) {
            out += strformat(
                "   %s [%s]\n", describeEvent(ev, prog).c_str(),
                membershipText(
                    result.scp().membership(ev.id)).c_str());
        }
    }
    return out;
}

} // namespace ref

namespace {

// ---------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------

/** The reference form of a production model: every race carries
 *  copies of both endpoint summaries again. */
ref::ReportModel
toReference(const ReportModel &m)
{
    const auto expand = [](const ReportEventInfo &info) {
        ref::ReportEventInfo out;
        out.id = info.id;
        out.proc = info.proc;
        out.isSync = info.isSync;
        out.syncOp = info.syncOp;
        out.opCount = info.opCount;
        out.reads.assign(info.reads.begin(), info.reads.end());
        out.writes.assign(info.writes.begin(), info.writes.end());
        return out;
    };
    ref::ReportModel out;
    out.numEvents = m.numEvents;
    out.numSyncEvents = m.numSyncEvents;
    out.totalOps = m.totalOps;
    out.numDataRaces = m.numDataRaces;
    out.anyDataRace = m.anyDataRace;
    out.wholeExecutionSc = m.wholeExecutionSc;
    out.scpEndOp = m.scpEndOp;
    for (const ReportRaceModel &r : m.races) {
        ref::ReportRaceModel rr;
        rr.a = expand(m.events.at(r.a));
        rr.b = expand(m.events.at(r.b));
        rr.addrs = r.addrs;
        rr.isDataRace = r.isDataRace;
        rr.inScp = r.inScp;
        rr.maybeInScp = r.maybeInScp;
        out.races.push_back(std::move(rr));
    }
    out.partitions = m.partitions;
    out.firstPartitions = m.firstPartitions;
    return out;
}

/** Each racy event is summarized exactly once, and every summary is
 *  an endpoint of some race. */
void
expectOneSummaryPerRacyEvent(const ReportModel &m,
                             const std::string &what)
{
    std::set<EventId> summarized;
    for (const ReportEventInfo &info : m.events)
        EXPECT_TRUE(summarized.insert(info.id).second)
            << what << ": E" << info.id << " summarized twice";
    std::set<EventId> endpoints;
    for (const ReportRaceModel &r : m.races) {
        ASSERT_LT(r.a, m.events.size()) << what;
        ASSERT_LT(r.b, m.events.size()) << what;
        endpoints.insert(m.events[r.a].id);
        endpoints.insert(m.events[r.b].id);
    }
    EXPECT_EQ(summarized, endpoints) << what;
}

/** The whole-trace report of @p det against the reference, with and
 *  without the --events dump. */
void
expectFormatMatches(const DetectionResult &det, const Program *prog,
                    const std::string &what)
{
    for (const bool showEvents : {false, true}) {
        ReportOptions opts;
        opts.showEvents = showEvents;
        ref::ReportOptions refOpts;
        refOpts.showEvents = showEvents;
        EXPECT_EQ(formatReport(det, prog, opts),
                  ref::formatReport(det, prog, refOpts))
            << what << (showEvents ? " (--events)" : "");
    }
    expectOneSummaryPerRacyEvent(buildReportModel(det), what);
}

/** A program naming a few words, some with long names. */
Program
namingProgram()
{
    Program prog = figure1a();
    prog.nameAddr("a_rather_long_shared_variable_name", 7);
    prog.nameAddr("z", std::numeric_limits<Addr>::max());
    return prog;
}

/** A word from a small hot range, or an extreme. */
Addr
randomWord(Rng &rng)
{
    switch (rng.below(8)) {
      case 0: return 0;
      case 1: return std::numeric_limits<Addr>::max();
      case 2: return static_cast<Addr>(rng.next());
      default: return static_cast<Addr>(rng.below(12));
    }
}

/** @p n distinct ascending words. */
std::vector<Addr>
randomWords(Rng &rng, std::size_t n)
{
    std::set<Addr> words;
    while (words.size() < n)
        words.insert(randomWord(rng));
    return {words.begin(), words.end()};
}

template <typename T>
T
randomExtreme(Rng &rng, T small)
{
    switch (rng.below(4)) {
      case 0: return 0;
      case 1: return std::numeric_limits<T>::max();
      default: return static_cast<T>(rng.below(small));
    }
}

ReportEventInfo
randomEvent(Rng &rng)
{
    ReportEventInfo e;
    e.id = randomExtreme<EventId>(rng, 1000);
    e.proc = randomExtreme<ProcId>(rng, 8);
    e.opCount = randomExtreme<std::uint32_t>(rng, 50);
    e.isSync = rng.chance(0.4);
    e.syncOp.kind = rng.chance(0.5) ? OpKind::Write : OpKind::Read;
    e.syncOp.release = rng.chance(0.5);
    e.syncOp.acquire = rng.chance(0.5);
    e.syncOp.addr = randomWord(rng);
    e.syncOp.pc = randomExtreme<std::uint32_t>(rng, 64);
    // A sync summary keeps no words; a computation summary keeps up
    // to four of each set (possibly none).
    if (!e.isSync) {
        e.reads = WordPrefix(randomWords(rng, rng.below(7)));
        e.writes = WordPrefix(randomWords(rng, rng.below(7)));
    }
    return e;
}

ReportModel
randomModel(Rng &rng)
{
    ReportModel m;
    m.numEvents = rng.chance(0.1) ? std::numeric_limits<std::size_t>::max()
                                  : rng.below(100000);
    m.numSyncEvents = randomExtreme<std::uint32_t>(rng, 5000);
    m.totalOps = randomExtreme<std::uint64_t>(rng, 1u << 20);
    m.anyDataRace = rng.chance(0.9);
    m.wholeExecutionSc = rng.chance(0.5);
    m.scpEndOp = randomExtreme<std::uint64_t>(rng, 1u << 20);

    const std::size_t numEvents = 1 + rng.below(12);
    for (std::size_t i = 0; i < numEvents; ++i)
        m.events.push_back(randomEvent(rng));
    const std::size_t numRaces = rng.below(30);
    for (std::size_t r = 0; r < numRaces; ++r) {
        ReportRaceModel race;
        race.a = static_cast<std::uint32_t>(rng.below(numEvents));
        race.b = static_cast<std::uint32_t>(rng.below(numEvents));
        const std::size_t words =
            rng.chance(0.3) ? 9 + rng.below(5) : rng.below(9);
        race.addrs = randomWords(rng, words);
        race.isDataRace = rng.chance(0.8);
        race.inScp = rng.chance(0.4);
        race.maybeInScp = race.inScp || rng.chance(0.5);
        m.numDataRaces += race.isDataRace;
        m.races.push_back(std::move(race));
    }

    // Deal the races into partitions, then mark some first.
    const std::size_t numParts = rng.below(5);
    m.partitions.resize(numParts);
    for (std::size_t i = 0; i < numParts; ++i)
        m.partitions[i].label =
            randomExtreme<std::uint32_t>(rng, 1000);
    for (RaceId r = 0; r < numRaces && numParts; ++r)
        m.partitions[rng.below(numParts)].races.push_back(r);
    for (std::uint32_t i = 0; i < numParts; ++i) {
        m.partitions[i].first = rng.chance(0.5);
        if (m.partitions[i].first)
            m.firstPartitions.push_back(i);
    }
    return m;
}

// ---------------------------------------------------------------
// Random models
// ---------------------------------------------------------------

TEST(ReportReference, RandomModelsRenderIdentically)
{
    const Program prog = namingProgram();
    Rng rng(2024);
    std::size_t cut = 0, syncs = 0, nonFirst = 0, general = 0,
                tags[3] = {0, 0, 0};
    for (int iter = 0; iter < 3000; ++iter) {
        const ReportModel m = randomModel(rng);
        const ref::ReportModel rm = toReference(m);
        for (const Program *p : {static_cast<const Program *>(nullptr),
                                 &prog}) {
            ASSERT_EQ(renderReport(m, p, {}),
                      ref::renderReport(rm, p, {}))
                << "model " << iter << (p ? " (named)" : "");
        }
        if (!m.anyDataRace)
            continue;
        for (const ReportRaceModel &r : m.races) {
            cut += r.addrs.size() > 8;
            syncs += m.events[r.a].isSync || m.events[r.b].isSync;
            general += !r.isDataRace;
            ++tags[r.inScp ? 0 : (r.maybeInScp ? 1 : 2)];
        }
        for (const ReportPartitionModel &part : m.partitions)
            nonFirst += !part.first;
    }
    // The generator reached every branch the golden corpus cannot.
    EXPECT_GT(cut, 0u);
    EXPECT_GT(syncs, 0u);
    EXPECT_GT(nonFirst, 0u);
    EXPECT_GT(general, 0u);
    for (const std::size_t n : tags)
        EXPECT_GT(n, 0u);
}

// ---------------------------------------------------------------
// Real results
// ---------------------------------------------------------------

TEST(ReportReference, GoldenTracesRenderIdentically)
{
    const fs::path dir = WMR_GOLDEN_DIR;
    ASSERT_TRUE(fs::is_directory(dir)) << dir;
    std::size_t checked = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() != ".trace")
            continue;
        const std::string path = entry.path().string();
        const std::string name = entry.path().filename().string();
        const bool damaged = name.find("damaged") != std::string::npos;
        TraceReadResult loaded = tryReadTraceFile(path, damaged);
        ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.error;
        const bool segmented = loaded.segmented;
        const DetectionResult det = analyzeTrace(std::move(loaded.trace));
        expectFormatMatches(det, nullptr, name);

        if (segmented) {
            StreamOptions opts;
            opts.strict = !damaged;
            const StreamResult sr = streamAnalyzeFile(path, opts);
            ASSERT_TRUE(sr.ok) << name << ": " << sr.error;
            EXPECT_EQ(renderReport(sr.report, nullptr, {}),
                      ref::renderReport(toReference(sr.report), nullptr,
                                        {}))
                << name << " (streamed)";
            expectOneSummaryPerRacyEvent(sr.report, name + " (streamed)");
        }
        ++checked;
    }
    EXPECT_GE(checked, 10u);
}

TEST(ReportReference, SimulatorScenariosRenderIdentically)
{
    std::vector<Scenario> scenarios;
    scenarios.push_back(stageFigure1aViolation(ModelKind::WO));
    scenarios.push_back(stageInvalidateFigure1a(ModelKind::WO));
    scenarios.push_back(stageFigure2bExecution()); // Figures 2(b), 3
    const Program programs[] = {
        figure1a(), figure1b(), figure2Queue({.regionSize = 8}),
        dekkerDataFlags(), ticketLock(3, 2), doubleCheckedInit(2, false),
    };
    for (const ModelKind model :
         {ModelKind::WO, ModelKind::TSO, ModelKind::PSO}) {
        for (const Program &prog : programs) {
            for (std::uint64_t seed = 0; seed < 6; ++seed) {
                ExecOptions opts;
                opts.model = model;
                opts.seed = seed;
                opts.drainLaziness = 0.9;
                scenarios.push_back({prog, runProgram(prog, opts)});
            }
        }
    }

    std::size_t stale = 0, nonFirst = 0, syncRaces = 0;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const Scenario &sc = scenarios[i];
        stale += sc.result.firstStaleRead != kNoOp;
        // Sync×sync pairs too: general races with sync summaries.
        for (const bool syncSync : {false, true}) {
            AnalysisOptions aopts;
            aopts.finder.includeSyncSyncRaces = syncSync;
            const DetectionResult det =
                analyzeExecution(sc.result, aopts);
            const std::string what =
                strformat("scenario %zu%s", i,
                          syncSync ? " (sync-sync)" : "");
            expectFormatMatches(det, &sc.program, what);
            expectFormatMatches(det, nullptr, what + " (unnamed)");
            for (const auto &part : det.partitions().partitions)
                nonFirst += !part.first;
            for (const DataRace &r : det.races())
                syncRaces += !r.isDataRace;
        }
    }
    // The scenarios reach the branches the golden corpus does not.
    EXPECT_GT(stale, 0u);
    EXPECT_GT(nonFirst, 0u);
    EXPECT_GT(syncRaces, 0u);
}

} // namespace
} // namespace wmr
