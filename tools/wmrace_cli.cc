/**
 * @file
 * wmrace — the command-line driver.
 *
 *   wmrace run <prog.wm> [options]     simulate + detect + report
 *   wmrace check <trace.bin> [options] post-mortem analysis of a trace
 *   wmrace batch <dir|manifest> [opts] analyze a whole trace corpus
 *   wmrace record [opts] <bin> [args]  run an annotated program,
 *                                      record + analyze its trace
 *   wmrace gen-trace <out> [options]   write a deterministic
 *                                      synthetic WMRSEG01 trace
 *   wmrace explore <prog.wm> [options] exhaustive SC model checking
 *   wmrace disasm <prog.wm>            print the assembled program
 *   wmrace static <prog.wm>            compile-time lockset analysis
 *   wmrace models                      list memory models/realizations
 *   wmrace serve [options]             long-lived analysis daemon
 *   wmrace submit <trace> --server A   analyze via a running server
 *
 * Options of `run`:
 *   --model SC|WO|RCsc|DRF0|DRF1|TSO|PSO  memory model (default WO)
 *   --realization buffer|invalidate hardware flavor  (default buffer)
 *   --seed N                       scheduler/drain seed (default 1)
 *   --laziness X                   drain laziness 0..1  (default 0.5)
 *   --robustness                   SC-equivalence verdict first
 *   --trace FILE                   write the WMRSEG01 trace file
 *   --dot FILE                     write the G' graph as DOT
 *   --events                       include per-event detail in report
 *   --stats                        print execution statistics
 *   --timeline                     print the per-processor timeline
 *   --onthefly                     also run the on-the-fly detector
 *
 * Options of `check`: --dot FILE, --events, --salvage, --jobs N,
 *   --stats, --stream [--window N] (see below), and
 *   --engine hb1|shb|wcp|vc|epoch|lockset|all: run the selected
 *   detector engine(s) over one pass of the event stream and print
 *   the detector family report with per-engine verdict blocks and
 *   the machine-readable containment/agreement summary
 *   (docs/DETECTORS.md).  Under --stream only `--engine shb` is
 *   supported (its race set is exactly what the streaming engine
 *   enumerates); the others need whole-trace state.
 * Options of `explore`: --max-execs N (default 100000).
 *
 * Options of `batch` (see docs/BATCH.md):
 *   --jobs N       total thread budget, N >= 1 (default: hardware
 *                  concurrency); anything else is rejected (exit 2).
 *                  When the corpus has fewer traces than N, the
 *                  leftover budget parallelizes INSIDE each analysis
 *   --json FILE    write the aggregated JSON report
 *   --metrics FILE write run metrics as JSON (timing, queue depth)
 *   --fail-fast    stop dispatching after the first failed trace
 *   --summary      omit the per-trace lines of the text report
 *   --salvage      analyze the recovered prefix of damaged
 *                  segmented traces instead of failing them
 *   --checkpoint FILE  append-only resume journal: a killed batch
 *                  re-run with the same file skips completed traces
 *   --quarantine FILE  write failed trace paths as a corpus
 *                  manifest (re-feedable to `wmrace batch`)
 *   --stream [--window N]  analyze segmented traces with the
 *                  bounded-memory streaming engine (docs/STREAMING.md);
 *                  identical results, O(window) memory per trace;
 *                  incompatible with --server
 *   --server ADDR  submit every trace to a running `wmrace serve`
 *                  daemon instead of analyzing locally (--jobs then
 *                  bounds concurrent submissions); incompatible with
 *                  --checkpoint and --fail-fast
 *   --engine hb1|shb|wcp|all  analyze every trace with the detector
 *                  family instead of the canonical hb1 pipeline
 *                  (docs/DETECTORS.md); per-trace counts then come
 *                  from the weakest (superset) engine that ran;
 *                  forwarded to the server under --server;
 *                  incompatible with --stream
 *
 * Options of `serve` (see docs/SERVE.md): --socket PATH or
 *   --tcp PORT (0 = kernel-assigned; the bound address is printed
 *   on stdout), --jobs N (global analysis budget), --workers W,
 *   --max-queue N, --max-inflight-mb MB, --max-request-mb MB,
 *   --cache-mb MB, --cache-dir DIR (disk result-cache tier),
 *   --spool-dir DIR (crash-safe request spool + journal),
 *   --retry-after-ms MS, --io-timeout-sec S.  SIGTERM/SIGINT drain
 *   gracefully.
 *
 * Options of `submit`: --server ADDR (unix socket path or
 *   tcp:HOST:PORT), --salvage, --no-cache, --meta (print the
 *   machine-readable response meta line), --attempts N (retries on
 *   overload), --engine hb1|shb|wcp|all (server-side detector
 *   family analysis; the printed report is byte-identical to local
 *   `wmrace check --engine`), --status, --shutdown.  Exit codes
 *   mirror `check`: 1 = data race, 2 = bad request, 3 = rejected.
 *
 * Options of `record` (see docs/RUNTIME.md; they must precede the
 * child binary — everything after it belongs to the child):
 *   --out FILE     trace file (default: <binary-basename>.trace)
 *   --no-check     just record; skip the post-mortem analysis
 *   --timeout SEC  kill the child after SEC seconds (classified as
 *                  timed-out; the partial trace is salvaged)
 *   --retries N    re-run an abnormally terminated child up to N
 *                  extra times with backoff before salvaging
 *   --live         analyze the trace WHILE the child runs: a
 *                  follower thread streams sealed segments into the
 *                  bounded-memory engine (docs/STREAMING.md), so the
 *                  report lands moments after exit and the trace
 *                  never has to fit in memory; incompatible with
 *                  --retries and --no-check
 * The child is launched with WMR_RT_TRACE set, so a program
 * annotated with rt/annotate.hh records itself; crash-resilient
 * segmented spilling is on by default (WMR_RT_SPILL to tune), so a
 * crashed or killed child still leaves a salvageable trace, which
 * `record` analyzes instead of fataling.
 *
 * Options of `check`: --dot FILE, --events, --salvage (recover the
 * longest valid prefix of a damaged segmented trace), --jobs N
 * (analysis threads; the report is byte-identical at every N),
 * --stats (per-stage timing to stderr), and --stream [--window N]:
 * analyze a segmented trace with the bounded-memory streaming
 * engine (src/stream/, docs/STREAMING.md) — the report is
 * byte-identical to the whole-trace path, memory is O(window)
 * instead of O(trace), so traces larger than RAM check fine.
 * --stream composes with --salvage and --stats but not with the
 * whole-trace-only --events/--dot/--jobs.
 *
 * Options of `gen-trace` (see SyntheticTraceOptions): --procs N,
 *   --events N (per processor), --words N, --sync-words N, --seed N,
 *   --sync-fraction X, --hot-fraction X, --truncate N (keep only the
 *   first N bytes — a damaged-file fixture for --salvage testing).
 *   The output is always WMRSEG01, generated straight through the
 *   segment spill writer so writer memory stays bounded at any
 *   --events; --segmented is still accepted but selects nothing.
 *
 * Every command that reads a trace (`check`, `record`, `batch`,
 * `submit` via the daemon) goes through the one loader
 * (trace/trace_io.hh): WMRSEG01, the format every writer emits, and
 * the read-only legacy WMRTRC01 container of older recordings.
 *
 * `check`, `batch` and `record` also take `--trace-out FILE`: write
 * a Chrome trace_event JSON timeline of the run (spans + counters;
 * see docs/OBSERVABILITY.md) — purely additive, reports stay
 * byte-identical.  The WMR_OBS environment variable provides the
 * same without CLI support (WMR_OBS=1 | chrome:FILE | jsonl:FILE).
 */

#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/worker_pool.hh"
#include "detect/analysis.hh"
#include "detect/dot_export.hh"
#include "detect/report.hh"
#include "detect/robustness.hh"
#include "engines/family.hh"
#include "engines/shb_engine.hh"
#include "obs/export.hh"
#include "obs/obs.hh"
#include "sim/exec_stats.hh"
#include "mc/explorer.hh"
#include "onthefly/first_race_filter.hh"
#include "pipeline/aggregate_report.hh"
#include "pipeline/batch_runner.hh"
#include "pipeline/checkpoint.hh"
#include "prog/assembler.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "staticdet/static_analyzer.hh"
#include "stream/stream_analyzer.hh"
#include "trace/segmented_io.hh"
#include "trace/timeline.hh"
#include "trace/trace_io.hh"
#include "workload/synthetic_trace.hh"

namespace {

using namespace wmr;

/** Minimal flag parser: --key value / --key. */
class Args
{
  public:
    Args(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            std::string a = argv[i];
            if (a.rfind("--", 0) == 0) {
                const std::string key = a.substr(2);
                if (i + 1 < argc && !looksLikeFlag(argv[i + 1])) {
                    kv_[key] = argv[++i];
                } else {
                    kv_[key] = "";
                }
            } else {
                positional_.push_back(std::move(a));
            }
        }
    }

    bool has(const std::string &key) const { return kv_.count(key); }

    std::string
    get(const std::string &key, const std::string &dflt = "") const
    {
        const auto it = kv_.find(key);
        return it == kv_.end() ? dflt : it->second;
    }

    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

  private:
    /**
     * @return whether @p s is a flag rather than a value.  Values
     * beginning with '-' are legal when they look numeric ("-5",
     * "-0.5", "-.5"), so `--seed -5` parses as seed = -5 instead of
     * eating "-5" as an (unknown) flag.  A bare "-" is a value too
     * (conventional stdin placeholder).
     */
    static bool
    looksLikeFlag(const char *s)
    {
        if (s[0] != '-' || s[1] == '\0')
            return false;
        if (std::isdigit(static_cast<unsigned char>(s[1])) ||
            s[1] == '.') {
            return false; // negative number
        }
        return true;
    }

    std::map<std::string, std::string> kv_;
    std::vector<std::string> positional_;
};

/**
 * Parse a strict `--jobs` value into @p jobs (untouched when the
 * flag is absent).  A mistyped --jobs must not silently become
 * "hardware concurrency" (0) or a huge unsigned, so anything but an
 * integer in [1, 4096] prints an error and returns false.
 */
bool
parseJobs(const Args &args, const char *cmd, unsigned &jobs)
{
    if (!args.has("jobs"))
        return true;
    const std::string v = args.get("jobs");
    char *end = nullptr;
    errno = 0;
    const long long n =
        v.empty() ? -1 : std::strtoll(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || errno == ERANGE || n < 1 ||
        n > 4096) {
        std::fprintf(stderr,
                     "%s: invalid --jobs '%s': expected an integer "
                     "between 1 and 4096\n",
                     cmd, v.c_str());
        return false;
    }
    jobs = static_cast<unsigned>(n);
    return true;
}

/**
 * Parse a strict `--window` value (segments per streaming GC window)
 * into @p window.  Same philosophy as parseJobs: a typo must not
 * silently become some other window size.
 */
bool
parseWindow(const Args &args, const char *cmd, std::size_t &window)
{
    if (!args.has("window"))
        return true;
    const std::string v = args.get("window");
    char *end = nullptr;
    errno = 0;
    const long long n =
        v.empty() ? -1 : std::strtoll(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || errno == ERANGE || n < 1 ||
        n > 1000000) {
        std::fprintf(stderr,
                     "%s: invalid --window '%s': expected an integer "
                     "between 1 and 1000000\n",
                     cmd, v.c_str());
        return false;
    }
    window = static_cast<std::size_t>(n);
    return true;
}

/**
 * Parse a strict `--engine` value into @p kinds (left empty when the
 * flag is absent).  Same philosophy as parseJobs: an unknown engine
 * name is a typed error (the caller exits 2), never a crash or a
 * silent fallback to hb1.
 */
bool
parseEngine(const Args &args, const char *cmd,
            std::optional<std::vector<engines::EngineKind>> &kinds)
{
    if (!args.has("engine"))
        return true;
    const std::string v = args.get("engine");
    auto parsed = engines::parseEngineSelection(v);
    if (!parsed.has_value()) {
        std::fprintf(stderr,
                     "%s: unknown --engine '%s': expected %s\n", cmd,
                     v.c_str(), engines::engineSelectionHelp());
        return false;
    }
    kinds = std::move(parsed);
    return true;
}

/**
 * `--trace-out FILE`: turn span/counter collection on for the whole
 * command and write a Chrome trace_event JSON file (loadable in
 * perfetto / chrome://tracing) when the command finishes.  Purely
 * additive: stdout and every report stay byte-identical.
 */
class TraceOut
{
  public:
    explicit TraceOut(const Args &args) : path_(args.get("trace-out"))
    {
        if (args.has("trace-out") && path_.empty())
            fatal("--trace-out needs a file path");
        if (!path_.empty())
            obs::setEnabled(true);
    }

    explicit TraceOut(std::string path) : path_(std::move(path))
    {
        if (!path_.empty())
            obs::setEnabled(true);
    }

    ~TraceOut()
    {
        if (path_.empty())
            return;
        if (!obs::writeChromeTrace(path_)) {
            std::fprintf(stderr,
                         "cannot write Chrome trace to '%s'\n",
                         path_.c_str());
        } else {
            std::fprintf(stderr, "wrote Chrome trace to %s  (open "
                                 "in ui.perfetto.dev)\n",
                         path_.c_str());
        }
    }

  private:
    std::string path_;
};

/**
 * Parse a strict `--model` value into @p model (untouched when the
 * flag is absent; the caller's default stands).  Same philosophy as
 * parseJobs/parseEngine: an unknown model name is a typed error
 * listing every valid model (the caller exits 2), never a silent
 * fallback.  Matching is case-insensitive ("tso" == "TSO").
 */
bool
parseModel(const Args &args, const char *cmd, ModelKind &model)
{
    if (!args.has("model"))
        return true;
    const std::string v = args.get("model");
    const auto matches = [&](std::string_view name) {
        if (v.size() != name.size())
            return false;
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (std::tolower(static_cast<unsigned char>(v[i])) !=
                std::tolower(static_cast<unsigned char>(name[i])))
                return false;
        }
        return true;
    };
    for (const auto kind : kAllModels) {
        if (matches(modelName(kind))) {
            model = kind;
            return true;
        }
    }
    std::string valid;
    for (const auto kind : kAllModels) {
        if (!valid.empty())
            valid += ", ";
        valid += modelName(kind);
    }
    std::fprintf(stderr,
                 "%s: unknown --model '%s': expected one of %s\n",
                 cmd, v.c_str(), valid.c_str());
    return false;
}

Realization
parseRealization(const std::string &name)
{
    if (name == "buffer" || name == "store-buffer")
        return Realization::StoreBuffer;
    if (name == "invalidate")
        return Realization::Invalidate;
    fatal("unknown realization '%s' (try buffer, invalidate)",
          name.c_str());
}

int
cmdRun(const Args &args)
{
    if (args.positional().empty())
        fatal("run: missing program file");
    const Program prog = assembleFile(args.positional()[0]);

    ExecOptions opts;
    if (!parseModel(args, "run", opts.model))
        return 2;
    opts.realization =
        parseRealization(args.get("realization", "buffer"));
    opts.seed = std::strtoull(args.get("seed", "1").c_str(), nullptr,
                              10);
    opts.drainLaziness =
        std::strtod(args.get("laziness", "0.5").c_str(), nullptr);

    FirstRaceFilter otf(prog.numProcs(), prog.memWords());
    if (args.has("onthefly"))
        opts.sink = &otf;

    const ExecutionResult res = runProgram(prog, opts);
    std::printf("model %s (%s), seed %llu: %llu instructions, %zu "
                "memory ops, %llu cycles%s\n",
                std::string(modelName(opts.model)).c_str(),
                std::string(realizationName(opts.realization))
                    .c_str(),
                static_cast<unsigned long long>(opts.seed),
                static_cast<unsigned long long>(res.steps),
                res.ops.size(),
                static_cast<unsigned long long>(res.totalCycles),
                res.completed ? "" : "  [TRUNCATED]");

    if (args.has("trace")) {
        const auto trace = buildTrace(res);
        const auto bytes =
            writeSegmentedTraceFile(trace, args.get("trace"));
        if (bytes == 0)
            fatal("run: cannot write '%s'", args.get("trace").c_str());
        std::printf("wrote %zu events (%zu bytes) to %s\n",
                    trace.events().size(), bytes,
                    args.get("trace").c_str());
    }

    if (args.has("stats")) {
        std::printf("%s",
                    formatStats(summarizeExecution(res), &prog)
                        .c_str());
    }

    if (args.has("timeline")) {
        const auto trace = buildTrace(res, {.keepMemberOps = true});
        std::printf("%s",
                    renderTimeline(trace, &prog, &res).c_str());
    }

    if (args.has("robustness")) {
        const RobustnessResult rob = checkRobustness(res);
        std::printf("%s",
                    formatRobustnessReport(rob, res.ops).c_str());
    }

    const DetectionResult det = analyzeExecution(res);
    ReportOptions ropts;
    ropts.showEvents = args.has("events");
    std::printf("%s", formatReport(det, &prog, ropts).c_str());

    if (args.has("onthefly")) {
        std::printf("\non-the-fly: %zu race report(s), %zu distinct, "
                    "%zu classified first\n",
                    otf.detector().races().size(),
                    otf.detector().distinctRaces().size(),
                    otf.firstRaces().size());
    }

    if (args.has("dot")) {
        writeDotFile(det, args.get("dot"), &prog);
        std::printf("wrote DOT graph to %s  (render: dot -Tsvg %s)\n",
                    args.get("dot").c_str(), args.get("dot").c_str());
    }
    return det.anyDataRace() ? 1 : 0;
}

/**
 * `wmrace check --stream`: the bounded-memory engine (src/stream/).
 * Stdout — provenance, report, exit code — is byte-identical to the
 * whole-trace path on the same file; only the memory profile
 * differs.  The whole-trace-only extras (--events, --dot, --jobs)
 * need the materialized event list / hb graph and are rejected.
 */
/**
 * Synthesize the SHB verdict block from a finished streaming
 * analysis.  SHB's race set equals the full hb1-unordered set — the
 * exact set the streaming engine enumerates — so `check --stream
 * --engine shb` prints byte-identically to the whole-trace
 * `check --engine shb` on the same file.  wcp (lock-region history)
 * and hb1 (partition structure) need whole-trace state the
 * bounded-memory window retires, so they stay whole-trace-only.
 */
engines::EngineFamilyResult
shbFamilyFromStream(const StreamResult &sr)
{
    engines::EngineFamilyResult fam;
    fam.info.numEvents = sr.events;
    fam.info.numSyncEvents =
        static_cast<std::uint32_t>(sr.syncEvents);
    fam.info.totalOps = sr.ops;

    engines::EngineVerdict v;
    v.engine = "shb";
    v.semantics = engines::ShbEngine::semanticsLine();
    v.races.reserve(sr.report.races.size());
    for (const ReportRaceModel &r : sr.report.races) {
        engines::EngineRace er;
        er.a = r.a.id;
        er.b = r.b.id;
        er.addrs = r.addrs;
        er.isDataRace = r.isDataRace;
        v.races.push_back(std::move(er));
    }
    for (std::uint32_t i = 0; i < v.races.size(); ++i) {
        if (v.races[i].isDataRace)
            ++v.numDataRaces;
        v.reported.push_back(i);
    }
    v.anyDataRace = v.numDataRaces != 0;
    v.firstRacePerVar = engines::firstRacePerVariable(v.races);

    fam.anyDataRace = v.anyDataRace;
    fam.verdicts.push_back(std::move(v));
    return fam;
}

int
cmdCheckStream(const Args &args)
{
    if (args.has("events") || args.has("dot") || args.has("jobs"))
        fatal("check: --stream keeps no whole-trace state; --events, "
              "--dot and --jobs do not apply");
    std::optional<std::vector<engines::EngineKind>> engineKinds;
    if (!parseEngine(args, "check", engineKinds))
        return 2;
    if (engineKinds.has_value() &&
        (engineKinds->size() != 1 ||
         engineKinds->front() != engines::EngineKind::Shb))
        fatal("check: --stream supports --engine shb only (the "
              "other engines need whole-trace state the "
              "bounded-memory window retires; run without --stream)");
    const std::string &path = args.positional()[0];
    if (!fileLooksSegmented(path))
        fatal("check: --stream requires a segmented trace "
              "(WMRSEG01); run a legacy WMRTRC01 trace without "
              "--stream");
    StreamOptions sopts;
    sopts.strict = !args.has("salvage");
    if (!parseWindow(args, "check", sopts.windowSegments))
        return 2;
    const StreamResult sr = streamAnalyzeFile(path, sopts);
    if (!sr.ok)
        fatal("%s%s", sr.error.c_str(),
              !args.has("salvage")
                  ? "  (re-run with --salvage to recover the valid "
                    "prefix)"
                  : "");
    std::printf("%s",
                formatTraceProvenance(true, sr.salvage).c_str());
    if (engineKinds.has_value()) {
        // Same data-race set, so the exit code below still applies.
        std::printf("%s", engines::formatFamilyReport(
                              shbFamilyFromStream(sr))
                              .c_str());
    } else {
        std::printf("%s",
                    renderReport(sr.report, nullptr, ReportOptions{})
                        .c_str());
    }
    if (args.has("stats"))
        std::fprintf(
            stderr,
            "stream: %llu segments, peak resident %llu events, "
            "%llu windows retired\n",
            static_cast<unsigned long long>(sr.segments),
            static_cast<unsigned long long>(sr.peakResident),
            static_cast<unsigned long long>(sr.windowsRetired));
    return sr.anyDataRace ? 1 : 0;
}

int
cmdCheck(const Args &args)
{
    if (args.positional().empty())
        fatal("check: missing trace file");
    const TraceOut traceOut(args);
    if (args.has("stream"))
        return cmdCheckStream(args);
    const TraceReadResult lt =
        tryReadTraceFile(args.positional()[0], args.has("salvage"));
    if (!lt.ok())
        fatal("%s%s", lt.error.c_str(),
              lt.segmented && !args.has("salvage")
                  ? "  (re-run with --salvage to recover the valid "
                    "prefix)"
                  : "");
    std::printf("%s",
                formatTraceProvenance(lt.segmented, lt.salvage).c_str());
    AnalysisOptions aopts;
    if (!parseJobs(args, "check", aopts.threads))
        return 2;
    std::optional<std::vector<engines::EngineKind>> engineKinds;
    if (!parseEngine(args, "check", engineKinds))
        return 2;
    if (engineKinds.has_value()) {
        if (args.has("events") || args.has("dot"))
            fatal("check: --engine prints the detector family "
                  "report; --events and --dot apply only to the "
                  "default hb1 path");
        engines::EngineFamilyOptions fopts;
        fopts.kinds = *engineKinds;
        fopts.threads = aopts.threads;
        const engines::EngineFamilyResult fam =
            engines::runEngineFamily(lt.trace, fopts);
        std::printf("%s",
                    engines::formatFamilyReport(fam).c_str());
        return fam.anyDataRace ? 1 : 0;
    }
    const DetectionResult det = analyzeTrace(lt.trace, aopts);
    ReportOptions ropts;
    ropts.showEvents = args.has("events");
    std::printf("%s", formatReport(det, nullptr, ropts).c_str());
    if (args.has("dot")) {
        writeDotFile(det, args.get("dot"));
        std::printf("wrote DOT graph to %s\n",
                    args.get("dot").c_str());
    }
    // Timing is nondeterministic by nature: --stats goes to stderr
    // so stdout stays byte-identical at every --jobs value.
    if (args.has("stats"))
        std::fprintf(stderr, "%s",
                     formatAnalysisStats(det.stats()).c_str());
    return det.anyDataRace() ? 1 : 0;
}

/**
 * `wmrace batch --server ADDR`: ship every corpus trace to a running
 * `wmrace serve` daemon instead of analyzing locally, and rebuild
 * the per-trace results from the returned meta blocks — the
 * aggregate report comes out byte-identical to a local batch because
 * the meta carries every field the report renders.  --jobs bounds
 * the CONCURRENT SUBMISSIONS here (the server owns the analysis
 * thread budget); an Overloaded answer is retried with the server's
 * backoff hint, so a flooded server throttles the client instead of
 * failing the batch.
 */
BatchResult
runBatchOverServer(const CorpusScan &corpus,
                   const serve::ServerAddress &addr, unsigned jobs,
                   bool salvage, const std::string &engine)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();

    BatchResult batch;
    batch.corpus = corpus;
    batch.traces.resize(corpus.files.size());

    serve::SubmitOptions sopts;
    sopts.salvage = salvage;
    sopts.engine = engine;
    sopts.maxAttempts = 16;

    const unsigned lanes = resolveThreads(jobs);
    parallelFor(lanes, corpus.files.size(), [&](std::size_t i) {
        const std::string &path = corpus.files[i];
        TraceRunResult &rr = batch.traces[i];
        rr.path = path;
        const serve::SubmitResult sub =
            serve::submitTraceFile(addr, path, sopts);
        if (!sub.ok) {
            rr.status = TraceRunStatus::IoError;
            rr.error = sub.error;
            return;
        }
        const serve::Response &resp = sub.response;
        const serve::ResponseMeta &m = resp.meta;
        if (!resp.ok()) {
            rr.status =
                resp.status == serve::RespStatus::BadRequest
                    ? TraceRunStatus::FormatError
                    : TraceRunStatus::IoError;
            rr.error = m.error.empty()
                           ? std::string("server answered ") +
                                 serve::respStatusName(resp.status)
                           : m.error;
            return;
        }
        rr.status = TraceRunStatus::Ok;
        rr.fileBytes = m.fileBytes;
        rr.events = m.events;
        rr.syncEvents = m.syncEvents;
        rr.ops = m.ops;
        rr.races = m.races;
        rr.dataRaces = m.dataRaces;
        rr.partitions = m.partitions;
        rr.firstPartitions = m.firstPartitions;
        rr.reportedRaces = m.reportedRaces;
        rr.anyDataRace = m.anyDataRace;
        rr.wholeExecutionSc = m.wholeExecutionSc;
        rr.salvaged = m.salvaged;
        rr.unresolvedPairings = m.unresolvedPairings;
        rr.droppedDataRecords = m.droppedDataRecords;
    });

    BatchMetrics &met = batch.metrics;
    met.jobs = lanes;
    met.corpusTraces = corpus.files.size();
    for (const TraceRunResult &rr : batch.traces) {
        if (rr.ok()) {
            met.analyzed += 1;
            met.bytesRead += rr.fileBytes;
            if (rr.salvaged)
                met.salvaged += 1;
        } else {
            met.failed += 1;
        }
    }
    met.wallSeconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    return batch;
}

int
cmdBatch(const Args &args)
{
    if (args.positional().empty())
        fatal("batch: missing corpus directory or manifest file");
    const TraceOut traceOut(args);
    const CorpusScan corpus = scanCorpus(args.positional()[0]);
    if (!corpus.ok())
        fatal("%s", corpus.error.c_str());

    BatchOptions opts;
    if (!parseJobs(args, "batch", opts.jobs))
        return 2;
    opts.failFast = args.has("fail-fast");
    opts.salvage = args.has("salvage");
    opts.stream = args.has("stream");
    if (!parseWindow(args, "batch", opts.streamWindow))
        return 2;
    if (args.has("stream") && args.has("server"))
        fatal("batch: --stream does not combine with --server (the "
              "server analyzes with its own engine)");
    std::optional<std::vector<engines::EngineKind>> engineKinds;
    if (!parseEngine(args, "batch", engineKinds))
        return 2;
    if (engineKinds.has_value()) {
        if (args.has("stream"))
            fatal("batch: --engine does not combine with --stream "
                  "(only shb is stream-derivable; use `wmrace check "
                  "--stream --engine shb` per trace)");
        for (const engines::EngineKind k : *engineKinds) {
            if (k != engines::EngineKind::Hb1 &&
                k != engines::EngineKind::Shb &&
                k != engines::EngineKind::Wcp)
                fatal("batch: --engine supports the containment "
                      "chain only (hb1|shb|wcp|all); the op-level "
                      "adapters are `check`-only");
        }
        opts.engineKinds = *engineKinds;
    }
    if (args.has("checkpoint")) {
        opts.checkpointPath = args.get("checkpoint");
        if (opts.checkpointPath.empty())
            fatal("batch: --checkpoint needs a file path");
    }

    BatchResult remoteBatch;
    if (args.has("server")) {
        if (args.has("checkpoint"))
            fatal("batch: --checkpoint does not combine with "
                  "--server (the server's --spool-dir is the "
                  "crash-safety mechanism there)");
        if (args.has("fail-fast"))
            fatal("batch: --fail-fast does not combine with "
                  "--server (submissions run concurrently)");
        serve::ServerAddress addr;
        std::string err;
        if (!serve::parseServerAddress(args.get("server"), addr,
                                       err))
            fatal("batch: %s", err.c_str());
        remoteBatch = runBatchOverServer(corpus, addr, opts.jobs,
                                         opts.salvage,
                                         args.get("engine"));
    }
    const BatchResult batch = args.has("server")
                                  ? std::move(remoteBatch)
                                  : runBatch(corpus, opts);

    BatchReportOptions ropts;
    ropts.showPerTrace = !args.has("summary");
    std::printf("%s", formatBatchReport(batch, ropts).c_str());

    if (args.has("json")) {
        const std::string path = args.get("json");
        std::ofstream out(path, std::ios::trunc);
        if (!out)
            fatal("cannot open JSON report file '%s'", path.c_str());
        out << batchReportJson(batch);
        if (!out)
            fatal("short write to JSON report file '%s'",
                  path.c_str());
    }

    if (args.has("quarantine")) {
        const std::string path = args.get("quarantine");
        if (path.empty())
            fatal("batch: --quarantine needs a file path");
        const std::string manifest = quarantineManifest(batch);
        if (manifest.empty()) {
            // Nothing failed: do not leave a stale quarantine
            // around from an earlier, worse run.
            std::remove(path.c_str());
        } else {
            std::ofstream out(path, std::ios::trunc);
            if (!out)
                fatal("cannot open quarantine file '%s'",
                      path.c_str());
            out << manifest;
            if (!out)
                fatal("short write to quarantine file '%s'",
                      path.c_str());
            std::fprintf(stderr,
                         "batch: %zu failed trace(s) listed in "
                         "quarantine manifest %s\n",
                         batch.numFailed(), path.c_str());
        }
    }

    // Metrics are nondeterministic (timing); they go to stderr and
    // the optional --metrics file so stdout and --json stay
    // byte-identical across --jobs values.
    std::fprintf(stderr, "%s",
                 formatMetrics(batch.metrics).c_str());
    if (args.has("metrics")) {
        const std::string path = args.get("metrics");
        std::ofstream out(path, std::ios::trunc);
        if (!out)
            fatal("cannot open metrics file '%s'", path.c_str());
        out << metricsJson(batch.metrics);
    }

    if (opts.failFast && batch.numFailed() > 0)
        return 2;
    return batch.anyDataRace() ? 1 : 0;
}

/** How a supervised recording child ended. */
struct ChildOutcome
{
    enum class Kind : std::uint8_t {
        Clean,    ///< exit 0
        Nonzero,  ///< nonzero exit status
        Signaled, ///< killed by a signal (its own crash)
        TimedOut, ///< exceeded --timeout; we SIGKILLed it
    };
    Kind kind = Kind::Clean;
    int code = 0; ///< exit status or signal number

    bool abnormal() const { return kind != Kind::Clean; }

    std::string
    describe(const std::string &child) const
    {
        char buf[256];
        switch (kind) {
          case Kind::Clean:
            std::snprintf(buf, sizeof(buf),
                          "child '%s' exited cleanly",
                          child.c_str());
            break;
          case Kind::Nonzero:
            std::snprintf(buf, sizeof(buf),
                          "child '%s' exited with status %d",
                          child.c_str(), code);
            break;
          case Kind::Signaled:
            std::snprintf(buf, sizeof(buf),
                          "child '%s' died on signal %d (%s)",
                          child.c_str(), code,
                          ::strsignal(code));
            break;
          case Kind::TimedOut:
            std::snprintf(buf, sizeof(buf),
                          "child '%s' timed out after %ds; killed",
                          child.c_str(), code);
            break;
        }
        return buf;
    }
};

/**
 * Run the recording child once: fork, point its tracer at @p out,
 * exec, and supervise.  With @p timeoutSec > 0 a child still running
 * after the deadline is SIGKILLed and classified TimedOut (its
 * incrementally spilled trace survives for salvage).
 */
ChildOutcome
runRecordChild(const std::string &child, char **childArgv,
               const std::string &out, int timeoutSec)
{
    const pid_t pid = ::fork();
    if (pid < 0)
        fatal("record: fork failed: %s", std::strerror(errno));
    if (pid == 0) {
        ::setenv("WMR_RT_TRACE", out.c_str(), 1);
        ::execvp(child.c_str(), childArgv);
        std::fprintf(stderr, "record: cannot exec '%s': %s\n",
                     child.c_str(), std::strerror(errno));
        std::_Exit(127);
    }

    int status = 0;
    bool timedOut = false;
    if (timeoutSec > 0) {
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::seconds(timeoutSec);
        while (true) {
            const pid_t r = ::waitpid(pid, &status, WNOHANG);
            if (r == pid)
                break;
            if (r < 0 && errno != EINTR)
                fatal("record: waitpid failed: %s",
                      std::strerror(errno));
            if (std::chrono::steady_clock::now() >= deadline) {
                ::kill(pid, SIGKILL);
                if (::waitpid(pid, &status, 0) < 0)
                    fatal("record: waitpid failed: %s",
                          std::strerror(errno));
                timedOut = true;
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
    } else if (::waitpid(pid, &status, 0) < 0) {
        fatal("record: waitpid failed: %s", std::strerror(errno));
    }

    ChildOutcome oc;
    if (timedOut) {
        oc.kind = ChildOutcome::Kind::TimedOut;
        oc.code = timeoutSec;
    } else if (WIFSIGNALED(status)) {
        oc.kind = ChildOutcome::Kind::Signaled;
        oc.code = WTERMSIG(status);
    } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
        oc.kind = ChildOutcome::Kind::Nonzero;
        oc.code = WEXITSTATUS(status);
    }
    return oc;
}

/**
 * `wmrace record [opts] <binary> [args...]`: launch an annotated
 * program with WMR_RT_TRACE set so its runtime tracer (src/rt)
 * records an EVENT trace, then analyze the trace with the regular
 * post-mortem pipeline.  An abnormally terminated child is retried
 * (--retries) and its partial trace salvaged — never a fatal().
 */
int
cmdRecord(int argc, char **argv)
{
    std::string out;
    std::string traceOutPath;
    bool check = true;
    bool live = false;
    int timeoutSec = 0;
    int retries = 0;
    int i = 2;
    for (; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--out" && i + 1 < argc) {
            out = argv[++i];
        } else if (a == "--trace-out" && i + 1 < argc) {
            traceOutPath = argv[++i];
        } else if (a == "--no-check") {
            check = false;
        } else if (a == "--live") {
            live = true;
        } else if (a == "--timeout" && i + 1 < argc) {
            timeoutSec =
                static_cast<int>(std::strtol(argv[++i], nullptr, 10));
            if (timeoutSec < 1)
                fatal("record: invalid --timeout '%s' (want a "
                      "positive number of seconds)", argv[i]);
        } else if (a == "--retries" && i + 1 < argc) {
            retries =
                static_cast<int>(std::strtol(argv[++i], nullptr, 10));
            if (retries < 0 || retries > 100)
                fatal("record: invalid --retries '%s' (want 0..100)",
                      argv[i]);
        } else if (a.rfind("--", 0) == 0) {
            fatal("record: unknown option '%s' (options go before "
                  "the child binary)", a.c_str());
        } else {
            break; // the child binary
        }
    }
    if (i >= argc)
        fatal("record: missing child binary to run");
    if (live && retries > 0)
        fatal("record: --live cannot retry — the live analyzer has "
              "already consumed the first attempt's trace; drop "
              "--retries");
    if (live && !check)
        fatal("record: --live IS the check; drop --no-check or "
              "--live");
    const TraceOut traceOut(traceOutPath);
    const std::string child = argv[i];
    if (out.empty()) {
        const auto slash = child.find_last_of('/');
        out = (slash == std::string::npos
                   ? child
                   : child.substr(slash + 1)) +
              ".trace";
    }

    // --live: a feeder thread tails the spill file and streams
    // segments into the analyzer while the child runs.  It only
    // FEEDS — finalize()/finish() wait for the child outcome, which
    // decides the strictness of the read (clean exit = strict,
    // abnormal = salvage tolerance), exactly like the non-live read
    // below.
    std::unique_ptr<SegmentTailReader> tail;
    std::unique_ptr<StreamAnalyzer> liveAn;
    std::atomic<bool> childAlive{true};
    std::thread feeder;
    if (live) {
        // Never follow a stale file from a previous recording: the
        // child recreates it, but possibly after the first poll.
        ::unlink(out.c_str());
        tail = std::make_unique<SegmentTailReader>();
        liveAn = std::make_unique<StreamAnalyzer>(StreamOptions{});
        feeder = std::thread([&] {
            const auto nap = [] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
            };
            while (!tail->open(out)) {
                if (!childAlive.load()) {
                    if (!tail->open(out))
                        return;
                    break;
                }
                nap();
            }
            std::vector<SegTailSegment> segs;
            for (;;) {
                // Sample liveness BEFORE polling: anything written
                // before the child died reaches this or a later
                // poll.
                const bool wasAlive = childAlive.load();
                segs.clear();
                const TailPollStatus st = tail->poll(segs);
                for (const SegTailSegment &seg : segs)
                    liveAn->addSegment(seg);
                if (st == TailPollStatus::Fin ||
                    st == TailPollStatus::Damaged)
                    return;
                if (st == TailPollStatus::Waiting) {
                    if (!wasAlive && tail->atEof())
                        return;
                    nap();
                }
            }
        });
    }

    ChildOutcome oc;
    for (int attempt = 0; attempt <= retries; ++attempt) {
        if (attempt > 0) {
            // Exponential backoff for flaky children: 200ms, 400ms,
            // 800ms, ... capped at 5s.
            const auto backoff = std::min<std::int64_t>(
                200ll << (attempt - 1), 5000);
            std::fprintf(stderr,
                         "record: retrying (%d/%d) after %lldms\n",
                         attempt, retries,
                         static_cast<long long>(backoff));
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoff));
        }
        oc = runRecordChild(child, argv + i, out, timeoutSec);
        std::printf("record: %s\n", oc.describe(child).c_str());
        if (!oc.abnormal())
            break;
    }

    std::printf("recorded '%s' -> %s\n", child.c_str(), out.c_str());

    if (live) {
        childAlive.store(false);
        feeder.join();
        const bool strict = !oc.abnormal();
        if (!tail->isOpen()) {
            std::fprintf(stderr,
                         "record: no analyzable trace: %s\n",
                         tail->error().empty()
                             ? "the child never created the trace "
                               "file"
                             : tail->error().c_str());
            return 3;
        }
        if (!tail->finalize(strict)) {
            std::fprintf(stderr,
                         "record: no analyzable trace: %s\n",
                         tail->error().c_str());
            return 3;
        }
        liveAn->setStrict(strict);
        const StreamResult sr = liveAn->finish(
            tail->finSeen(), tail->fin(), tail->salvage());
        if (!sr.ok) {
            std::fprintf(stderr,
                         "record: no analyzable trace: %s\n",
                         sr.error.c_str());
            return 3;
        }
        std::printf("%s",
                    formatTraceProvenance(true, sr.salvage).c_str());
        std::printf("%s",
                    renderReport(sr.report, nullptr, ReportOptions{})
                        .c_str());
        return sr.anyDataRace ? 1 : 0;
    }

    if (!check) {
        // --no-check keeps whatever trace the child left, even after
        // an abnormal exit; 0 only when the recording is complete.
        std::ifstream probe(out, std::ios::binary);
        return !probe ? 3 : (oc.abnormal() ? 3 : 0);
    }

    // Strict read after a clean exit; salvage after an abnormal one
    // (the spill file has no FIN segment — that is expected, not an
    // error).
    const TraceReadResult lt = tryReadTraceFile(out, oc.abnormal());
    if (!lt.ok()) {
        std::fprintf(stderr,
                     "record: no analyzable trace: %s\n",
                     lt.error.c_str());
        return 3;
    }
    std::printf("%s",
                formatTraceProvenance(lt.segmented, lt.salvage).c_str());
    const DetectionResult det = analyzeTrace(lt.trace);
    std::printf("%s", formatReport(det, nullptr, {}).c_str());
    return det.anyDataRace() ? 1 : 0;
}

/**
 * `wmrace gen-trace <out> [opts]`: write a deterministic synthetic
 * WMRSEG01 trace file — the reproducible source of the golden-report
 * corpus (tests/data/golden/regen.sh).  Equal options give
 * byte-identical files.  --truncate N keeps only the first N bytes,
 * crafting a damaged file for salvage fixtures.
 */
int
cmdGenTrace(const Args &args)
{
    if (args.positional().empty())
        fatal("gen-trace: missing output file");
    const std::string path = args.positional()[0];

    SyntheticTraceOptions opts;
    opts.procs = static_cast<ProcId>(
        std::strtoul(args.get("procs", "4").c_str(), nullptr, 10));
    opts.eventsPerProc = static_cast<std::uint32_t>(std::strtoul(
        args.get("events", "1000").c_str(), nullptr, 10));
    opts.memWords = static_cast<Addr>(
        std::strtoul(args.get("words", "256").c_str(), nullptr, 10));
    opts.syncWords = static_cast<Addr>(std::strtoul(
        args.get("sync-words", "16").c_str(), nullptr, 10));
    opts.seed = std::strtoull(args.get("seed", "1").c_str(), nullptr,
                              10);
    if (args.has("sync-fraction"))
        opts.syncFraction =
            std::strtod(args.get("sync-fraction").c_str(), nullptr);
    if (args.has("hot-fraction"))
        opts.hotFraction =
            std::strtod(args.get("hot-fraction").c_str(), nullptr);
    if (opts.procs == 0 || opts.eventsPerProc == 0 ||
        opts.memWords == 0)
        fatal("gen-trace: --procs, --events and --words must be "
              "positive");

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
    if (args.has("truncate")) {
        const auto want = std::strtoull(
            args.get("truncate").c_str(), nullptr, 10);
        if (want == 0 || want >= bytes)
            fatal("gen-trace: --truncate must be in (0, %zu)",
                  bytes);
        if (::truncate(path.c_str(),
                       static_cast<off_t>(want)) != 0)
            fatal("gen-trace: truncate '%s' failed: %s",
                  path.c_str(), std::strerror(errno));
        kept = static_cast<std::size_t>(want);
    }
    std::printf("wrote %zu events (%zu bytes%s) to %s\n",
                numEvents, kept,
                kept != bytes ? ", truncated" : "", path.c_str());
    return 0;
}

int
cmdExplore(const Args &args)
{
    if (args.positional().empty())
        fatal("explore: missing program file");
    const Program prog = assembleFile(args.positional()[0]);
    McLimits limits;
    limits.maxExecutions = std::strtoull(
        args.get("max-execs", "100000").c_str(), nullptr, 10);
    const auto truth = exploreScExecutions(prog, limits);
    std::printf("explored %llu sequentially consistent execution(s)%s"
                "%s\n",
                static_cast<unsigned long long>(truth.executions),
                truth.exhaustive ? " (exhaustive)" : " (bounded)",
                truth.truncated
                    ? (" [" + std::to_string(truth.truncated) +
                       " truncated paths]")
                          .c_str()
                    : "");
    if (truth.anyDataRace) {
        std::printf("program HAS data races on SC; %zu static race "
                    "pair(s):\n",
                    truth.races.size());
        for (const auto &r : truth.races) {
            std::printf("  P%u:pc%u  <->  P%u:pc%u\n", r.x.proc,
                        r.x.pc, r.y.proc, r.y.pc);
        }
        return 1;
    }
    std::printf("no data races in any explored SC execution%s\n",
                truth.exhaustive
                    ? ": the program is data-race-free; all weak "
                      "models guarantee it sequential consistency"
                    : " (bounded exploration: not a proof)");
    return 0;
}

int
cmdStatic(const Args &args)
{
    if (args.positional().empty())
        fatal("static: missing program file");
    const Program prog = assembleFile(args.positional()[0]);
    StaticOptions opts;
    if (args.has("first-data-addr")) {
        opts.firstDataAddr = static_cast<Addr>(std::strtoul(
            args.get("first-data-addr").c_str(), nullptr, 10));
    }
    const auto analysis = analyzeStatically(prog, opts);
    std::printf("%s", formatStaticReport(analysis, &prog).c_str());
    return analysis.clean() ? 0 : 1;
}

int
cmdDisasm(const Args &args)
{
    if (args.positional().empty())
        fatal("disasm: missing program file");
    const Program prog = assembleFile(args.positional()[0]);
    std::printf("%s", prog.disassembleAll().c_str());
    return 0;
}

int
cmdModels()
{
    std::printf("memory models:\n");
    std::printf("  SC    sequential consistency (every op stalls to "
                "completion)\n");
    std::printf("  WO    weak ordering [Dubois/Scheurich/Briggs 86]\n");
    std::printf("  RCsc  release consistency w/ SC sync ops "
                "[Gharachorloo+ 90]\n");
    std::printf("  DRF0  data-race-free-0 [Adve/Hill 90] (pipelined "
                "drains)\n");
    std::printf("  DRF1  data-race-free-1 [Adve/Hill 91] (release/"
                "acquire + pipelined)\n");
    std::printf("  TSO   total store order (x86-style FIFO buffer; "
                "only W->R reordering)\n");
    std::printf("  PSO   partial store order (SPARC-style "
                "per-location FIFO; W->W too)\n");
    std::printf("fences:\n");
    std::printf("  fence   full fence (mfence): drain everything "
                "and stall\n");
    std::printf("  sfence  store-store fence: order stores across "
                "it without stalling\n");
    std::printf("realizations:\n");
    std::printf("  buffer       per-processor unordered store "
                "buffers (delayed visibility)\n");
    std::printf("  invalidate   invalidation queues (delayed death "
                "of stale copies)\n");
    return 0;
}

/**
 * Parse a strict nonnegative integer option into @p out (untouched
 * when absent).  @return false after printing an error, mirroring
 * parseJobs(): a mistyped size must never silently become 0.
 */
bool
parseUintOpt(const Args &args, const char *cmd, const char *key,
             unsigned long long maxValue, unsigned long long &out)
{
    if (!args.has(key))
        return true;
    const std::string v = args.get(key);
    char *end = nullptr;
    errno = 0;
    const unsigned long long n =
        v.empty() ? 0 : std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || errno == ERANGE ||
        n > maxValue) {
        std::fprintf(stderr,
                     "%s: invalid --%s '%s': expected an integer "
                     "between 0 and %llu\n",
                     cmd, key, v.c_str(), maxValue);
        return false;
    }
    out = n;
    return true;
}

/** The serving daemon a SIGTERM/SIGINT handler must reach.  One
 *  server per process; beginShutdown() is async-signal-safe. */
serve::Server *gServeInstance = nullptr;

void
serveSignalHandler(int)
{
    if (gServeInstance != nullptr)
        gServeInstance->beginShutdown();
}

/**
 * `wmrace serve`: run the long-lived analysis service
 * (docs/SERVE.md).  Listens on --socket PATH (unix domain) or
 * --tcp PORT (loopback; 0 = kernel-assigned), prints the bound
 * address on stdout once ready, and serves until SIGTERM/SIGINT or
 * a client Shutdown request — then drains queued analyses and
 * exits 0.
 */
int
cmdServe(const Args &args)
{
    const TraceOut traceOut(args);
    serve::ServeOptions sopts;
    sopts.socketPath = args.get("socket");
    if (args.has("tcp")) {
        unsigned long long port = 0;
        if (!parseUintOpt(args, "serve", "tcp", 65535, port))
            return 2;
        sopts.tcpPort = static_cast<int>(port);
    }
    if (sopts.socketPath.empty() && sopts.tcpPort < 0)
        fatal("serve: listen address required: --socket PATH or "
              "--tcp PORT (0 = kernel-assigned)");
    if (!parseJobs(args, "serve", sopts.jobs))
        return 2;

    unsigned long long v = 0;
    if (!parseUintOpt(args, "serve", "workers", 4096, v))
        return 2;
    sopts.workers = static_cast<unsigned>(v);
    v = sopts.maxQueue;
    if (!parseUintOpt(args, "serve", "max-queue", 1u << 20, v))
        return 2;
    if (v == 0) {
        std::fprintf(stderr, "serve: --max-queue must be >= 1 (the "
                             "queue bound is the admission "
                             "control)\n");
        return 2;
    }
    sopts.maxQueue = static_cast<std::size_t>(v);
    v = sopts.maxInflightBytes >> 20;
    if (!parseUintOpt(args, "serve", "max-inflight-mb", 1u << 20,
                      v))
        return 2;
    sopts.maxInflightBytes = v << 20;
    v = sopts.maxRequestBytes >> 20;
    if (!parseUintOpt(args, "serve", "max-request-mb", 1u << 20, v))
        return 2;
    sopts.maxRequestBytes = v << 20;
    v = sopts.cacheBytes >> 20;
    if (!parseUintOpt(args, "serve", "cache-mb", 1u << 20, v))
        return 2;
    sopts.cacheBytes = v << 20;
    v = sopts.retryAfterMs;
    if (!parseUintOpt(args, "serve", "retry-after-ms", 3600000, v))
        return 2;
    sopts.retryAfterMs = static_cast<std::uint32_t>(v);
    v = sopts.ioTimeoutSec;
    if (!parseUintOpt(args, "serve", "io-timeout-sec", 86400, v))
        return 2;
    sopts.ioTimeoutSec = static_cast<unsigned>(v);
    sopts.cacheDir = args.get("cache-dir");
    sopts.spoolDir = args.get("spool-dir");

    serve::Server server(sopts);
    gServeInstance = &server;
    std::signal(SIGTERM, serveSignalHandler);
    std::signal(SIGINT, serveSignalHandler);

    if (!server.start())
        fatal("serve: %s", server.lastError().c_str());

    // The bound address goes to STDOUT (scripts read it — with
    // --tcp 0 the port is kernel-assigned); status chatter goes to
    // stderr like every other command.
    std::printf("%s\n", server.boundAddress().c_str());
    std::fflush(stdout);
    const serve::ServeStats boot = server.stats();
    std::fprintf(stderr,
                 "wmrace serve: listening on %s  (%llu spooled "
                 "request(s) recovered)\n",
                 server.boundAddress().c_str(),
                 static_cast<unsigned long long>(boot.recovered));

    server.waitDrained();
    gServeInstance = nullptr;
    const serve::ServeStats s = server.stats();
    std::fprintf(
        stderr,
        "wmrace serve: drained  (%llu request(s), %llu "
        "analysis(es), %llu overload rejection(s))\n",
        static_cast<unsigned long long>(s.requests),
        static_cast<unsigned long long>(s.analyses),
        static_cast<unsigned long long>(s.overloaded));
    return 0;
}

/**
 * `wmrace submit`: one client round trip against a running
 * `wmrace serve` daemon.
 *
 *   wmrace submit <trace> --server ADDR [--salvage] [--no-cache]
 *                 [--meta] [--attempts N]
 *   wmrace submit --server ADDR --status | --shutdown
 *
 * The printed report is byte-identical to local `wmrace check`
 * output, and the exit code matches too (1 = data race found).
 * --meta prints the one-line machine-readable summary instead.
 */
int
cmdSubmit(const Args &args)
{
    const std::string addrText = args.get("server");
    if (addrText.empty())
        fatal("submit: --server ADDR required (a unix socket path "
              "or tcp:HOST:PORT)");
    serve::ServerAddress addr;
    std::string err;
    if (!serve::parseServerAddress(addrText, addr, err))
        fatal("submit: %s", err.c_str());

    if (args.has("status")) {
        const serve::SubmitResult r = serve::queryStatus(addr);
        if (!r.ok)
            fatal("submit: %s", r.error.c_str());
        std::printf("%s\n", r.response.report.c_str());
        return 0;
    }
    if (args.has("shutdown")) {
        const serve::SubmitResult r = serve::requestShutdown(addr);
        if (!r.ok)
            fatal("submit: %s", r.error.c_str());
        std::fprintf(stderr, "submit: server is draining\n");
        return 0;
    }

    if (args.positional().empty())
        fatal("submit: missing trace file");
    serve::SubmitOptions sopts;
    sopts.salvage = args.has("salvage");
    sopts.noCache = args.has("no-cache");
    if (args.has("engine")) {
        sopts.engine = args.get("engine");
        if (serve::engineWireId(sopts.engine) == 0) {
            std::fprintf(stderr,
                         "submit: unknown --engine '%s': expected "
                         "hb1|shb|wcp|all\n",
                         sopts.engine.c_str());
            return 2;
        }
    }
    unsigned long long attempts = sopts.maxAttempts;
    if (!parseUintOpt(args, "submit", "attempts", 1000, attempts))
        return 2;
    if (attempts == 0) {
        std::fprintf(stderr,
                     "submit: --attempts must be >= 1\n");
        return 2;
    }
    sopts.maxAttempts = static_cast<unsigned>(attempts);

    const serve::SubmitResult r = serve::submitTraceFile(
        addr, args.positional()[0], sopts);
    if (!r.ok)
        fatal("submit: %s", r.error.c_str());
    const serve::Response &resp = r.response;
    if (!resp.ok()) {
        std::fprintf(stderr, "submit: server answered %s: %s\n",
                     serve::respStatusName(resp.status),
                     resp.meta.error.c_str());
        // Capacity rejections exit 3 (retryable), bad uploads 2.
        return resp.status == serve::RespStatus::Overloaded ||
                       resp.status == serve::RespStatus::Draining
                   ? 3
                   : 2;
    }
    if (args.has("meta"))
        std::printf("%s\n", serve::metaJson(resp).c_str());
    else
        std::printf("%s", resp.report.c_str());
    return resp.meta.anyDataRace ? 1 : 0;
}

void
usage()
{
    std::printf(
        "usage: wmrace <command> [args]\n"
        "  run <prog.wm>      simulate on a weak model and detect "
        "races\n"
        "                     (--model SC|WO|RCsc|DRF0|DRF1|TSO|PSO;"
        "\n"
        "                     --robustness: check the execution has "
        "an SC-equivalent)\n"
        "  check <trace.bin>  post-mortem analysis of a trace file\n"
        "                     (--stream: bounded-memory streaming "
        "engine;\n"
        "                     --engine hb1|shb|wcp|all: detector "
        "family report)\n"
        "  batch <dir|manifest>  analyze a whole trace corpus "
        "(multi-threaded,\n"
        "                     or remotely via --server ADDR)\n"
        "  serve              run the long-lived analysis service "
        "(unix socket or TCP)\n"
        "  submit <trace>     analyze one trace on a running "
        "server\n"
        "  record <bin> [args]  run an annotated program, record + "
        "analyze its trace\n"
        "  gen-trace <out>    write a deterministic synthetic trace "
        "file\n"
        "  explore <prog.wm>  exhaustive SC model checking\n"
        "  static <prog.wm>   compile-time lockset analysis\n"
        "  disasm <prog.wm>   print the assembled program\n"
        "  models             describe the memory models\n"
        "see the header of tools/wmrace_cli.cc for all options\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string cmd = argv[1];
    const Args args(argc, argv, 2);
    if (cmd == "run")
        return cmdRun(args);
    if (cmd == "check")
        return cmdCheck(args);
    if (cmd == "batch")
        return cmdBatch(args);
    if (cmd == "serve")
        return cmdServe(args);
    if (cmd == "submit")
        return cmdSubmit(args);
    if (cmd == "record")
        return cmdRecord(argc, argv);
    if (cmd == "gen-trace")
        return cmdGenTrace(args);
    if (cmd == "explore")
        return cmdExplore(args);
    if (cmd == "static")
        return cmdStatic(args);
    if (cmd == "disasm")
        return cmdDisasm(args);
    if (cmd == "models")
        return cmdModels();
    usage();
    return 2;
}
