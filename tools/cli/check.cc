/**
 * @file
 * The trace commands: check (post-mortem analysis of one trace file,
 * whole-trace or streaming) and gen-trace (deterministic synthetic
 * traces).
 */

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

#include <unistd.h>

#include "commands.hh"
#include "common/logging.hh"
#include "common/string_util.hh"
#include "detect/analysis.hh"
#include "detect/dot_export.hh"
#include "detect/report.hh"
#include "engines/family.hh"
#include "engines/shb_engine.hh"
#include "obs/obs.hh"
#include "stream/stream_analyzer.hh"
#include "trace/segmented_io.hh"
#include "trace/trace_io.hh"
#include "workload/synthetic_trace.hh"

namespace wmr::cli {

/**
 * The SHB verdict block of a finished streaming analysis.  SHB's race
 * set equals the full hb1-unordered set — the exact set the
 * streaming engine enumerates — so `check --stream --engine shb`
 * prints byte-identically to the whole-trace `check --engine shb` on
 * the same file.  wcp (lock-region history) and hb1 (partition
 * structure) need whole-trace state the bounded-memory window
 * retires, so they stay whole-trace-only.
 */
static engines::EngineFamilyResult
shbFamilyFromStream(const StreamResult &sr)
{
    engines::EngineFamilyResult fam;
    fam.info.numEvents = sr.events;
    fam.info.numSyncEvents =
        static_cast<std::uint32_t>(sr.syncEvents);
    fam.info.totalOps = sr.ops;

    const std::vector<ReportEventInfo> &events = sr.report.events;
    std::vector<engines::EngineRace> races;
    races.reserve(sr.report.races.size());
    for (const ReportRaceModel &r : sr.report.races)
        races.push_back({events[r.a].id, events[r.b].id, r.addrs,
                         r.isDataRace});
    fam.verdicts.push_back(engines::shbVerdict(std::move(races)));
    fam.anyDataRace = fam.verdicts.back().anyDataRace;
    return fam;
}

/** Write a finished report to stdout: the `report.write` layer. */
static void
writeReport(const std::string &report)
{
    obs::Span span("report.write");
    std::fwrite(report.data(), 1, report.size(), stdout);
    std::fflush(stdout);
}

/**
 * `wmrace check --stream`: the bounded-memory engine (src/stream/).
 * Stdout — provenance, report, exit code — is byte-identical to the
 * whole-trace path on the same file; only the memory profile
 * differs.
 */
static int
cmdCheckStream(const CommandLine &cl)
{
    if (cl.has("engine") && cl.choice("engine") != "shb")
        cl.fail("--stream supports --engine shb only (the other "
                "engines need whole-trace state the bounded-memory "
                "window retires; run without --stream)");
    const std::string &path = cl.operands()[0];
    if (!fileLooksSegmented(path))
        fatal("check: --stream requires a segmented trace "
              "(WMRSEG01); run a legacy WMRTRC01 trace without "
              "--stream");
    StreamOptions sopts;
    sopts.strict = !cl.has("salvage");
    sopts.windowSegments = cl.number("window", sopts.windowSegments);
    const StreamResult sr = streamAnalyzeFile(path, sopts);
    if (!sr.ok)
        fatal("%s%s", sr.error.c_str(),
              !cl.has("salvage")
                  ? "  (re-run with --salvage to recover the valid "
                    "prefix)"
                  : "");
    std::printf("%s",
                formatTraceProvenance(true, sr.salvage).c_str());
    // With --engine: the same data-race set, so the exit code below
    // still applies.
    writeReport(cl.has("engine")
                    ? engines::formatFamilyReport(shbFamilyFromStream(sr))
                    : renderReport(sr.report, nullptr, ReportOptions{}));
    if (cl.has("stats"))
        std::fprintf(
            stderr,
            "stream: %llu segments, peak resident %llu events, "
            "%llu windows retired\n",
            static_cast<unsigned long long>(sr.segments),
            static_cast<unsigned long long>(sr.peakResident),
            static_cast<unsigned long long>(sr.windowsRetired));
    return sr.anyDataRace ? 1 : 0;
}

static int
cmdCheck(const CommandLine &cl)
{
    const TraceOut traceOut(cl);
    if (cl.has("stream"))
        return cmdCheckStream(cl);
    TraceReadResult lt =
        tryReadTraceFile(cl.operands()[0], cl.has("salvage"));
    if (!lt.ok())
        fatal("%s%s", lt.error.c_str(),
              lt.segmented && !cl.has("salvage")
                  ? "  (re-run with --salvage to recover the valid "
                    "prefix)"
                  : "");
    std::printf("%s",
                formatTraceProvenance(lt.segmented, lt.salvage).c_str());
    AnalysisOptions aopts;
    aopts.threads = cl.number("jobs", aopts.threads);
    if (cl.has("engine")) {
        engines::EngineFamilyOptions fopts;
        fopts.kinds =
            engines::parseEngineSelection(cl.choice("engine")).value();
        fopts.threads = aopts.threads;
        const engines::EngineFamilyResult fam =
            engines::runEngineFamily(lt.trace, fopts);
        writeReport(engines::formatFamilyReport(fam));
        return fam.anyDataRace ? 1 : 0;
    }
    const DetectionResult det =
        analyzeTrace(std::move(lt.trace), aopts);
    ReportOptions ropts;
    ropts.showEvents = cl.has("events");
    writeReport(formatReport(det, nullptr, ropts));
    if (cl.has("dot")) {
        writeDotFile(det, cl.text("dot"));
        std::printf("wrote DOT graph to %s\n", cl.text("dot").c_str());
    }
    // Timing is nondeterministic by nature: --stats goes to stderr
    // so stdout stays byte-identical at every --jobs value.
    if (cl.has("stats"))
        std::fprintf(stderr, "%s",
                     formatAnalysisStats(det.stats()).c_str());
    return det.anyDataRace() ? 1 : 0;
}

const Command kCheck{
    .name = "check",
    .operands = "<trace>",
    .summary = "post-mortem analysis of a trace file",
    .minOperands = 1,
    .maxOperands = 1,
    .options = {
        text("dot", "FILE", "write the G' graph as DOT"),
        flag("events", "include per-event detail in the report"),
        flag("salvage", "recover the longest valid prefix of a damaged "
                        "segmented trace"),
        number("jobs", 1, 4096, "analysis threads; the report is "
                                "byte-identical at every N"),
        flag("stats", "per-stage timing to stderr"),
        flag("stream", "bounded-memory streaming engine: the same "
                       "report in O(window) memory"),
        number("window", 1, 1000000,
               "segments per streaming GC window"),
        choice("engine", split(engines::engineSelectionHelp(), '|'),
               "print the detector family report (with --stream: shb "
               "only)"),
        traceOutOption(),
    },
    .conflicts = {{"stream", "events"},
                  {"stream", "dot"},
                  {"stream", "jobs"},
                  {"engine", "events"},
                  {"engine", "dot"}},
    .needs = {{"window", "stream"}},
    .run = cmdCheck,
};

/**
 * `wmrace gen-trace <out> [opts]`: write a deterministic synthetic
 * WMRSEG01 trace file — the reproducible source of the golden-report
 * corpus (tests/data/golden/regen.sh).  Equal options give
 * byte-identical files.  --truncate N keeps only the first N bytes,
 * crafting a damaged file for salvage fixtures.
 */
static int
cmdGenTrace(const CommandLine &cl)
{
    const std::string &path = cl.operands()[0];
    SyntheticTraceOptions opts;
    opts.procs = cl.number("procs", opts.procs);
    opts.eventsPerProc = cl.number("events", opts.eventsPerProc);
    opts.memWords = cl.number("words", opts.memWords);
    opts.syncWords = cl.number("sync-words", opts.syncWords);
    opts.seed = cl.number("seed", opts.seed);
    opts.syncFraction = cl.fraction("sync-fraction", opts.syncFraction);
    opts.hotFraction = cl.fraction("hot-fraction", opts.hotFraction);

    // Output streams through the segment spill writer, so writer
    // memory stays O(segment) and --events can exceed RAM.  The file
    // is byte-identical to serializing makeSyntheticTrace().
    const std::size_t bytes =
        writeSyntheticSegmentedTraceFile(opts, path);
    if (bytes == 0)
        fatal("gen-trace: cannot write '%s'", path.c_str());
    const std::size_t numEvents =
        static_cast<std::size_t>(opts.procs) * opts.eventsPerProc;

    std::size_t kept = bytes;
    if (cl.has("truncate")) {
        kept = cl.number("truncate", kept);
        if (kept >= bytes)
            fatal("gen-trace: --truncate must be in (0, %zu)", bytes);
        if (::truncate(path.c_str(), static_cast<off_t>(kept)) != 0)
            fatal("gen-trace: truncate '%s' failed: %s",
                  path.c_str(), std::strerror(errno));
    }
    std::printf("wrote %zu events (%zu bytes%s) to %s\n",
                numEvents, kept,
                kept != bytes ? ", truncated" : "", path.c_str());
    return 0;
}

const Command kGenTrace{
    .name = "gen-trace",
    .operands = "<out>",
    .summary = "write a deterministic synthetic trace file",
    .minOperands = 1,
    .maxOperands = 1,
    .options = {
        number("procs", 1, std::numeric_limits<ProcId>::max(),
               "processors"),
        number("events", 1, std::numeric_limits<std::uint32_t>::max(),
               "events per processor"),
        number("words", 1, std::numeric_limits<Addr>::max(),
               "memory words"),
        number("sync-words", 0, std::numeric_limits<Addr>::max(),
               "words used for synchronization"),
        number("seed", 0, std::numeric_limits<std::uint64_t>::max(),
               "generator seed"),
        fraction("sync-fraction", "share of sync events"),
        fraction("hot-fraction",
                 "share of accesses to the hot words"),
        number("truncate", 1, std::numeric_limits<std::uint64_t>::max(),
               "keep only the first N bytes: a damaged-file fixture"),
        flag("segmented", "no effect: the output is always WMRSEG01"),
    },
    .run = cmdGenTrace,
};

} // namespace wmr::cli
