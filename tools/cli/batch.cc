/**
 * @file
 * The batch command: analyze a whole trace corpus, locally on a
 * worker pool or remotely through a running `wmrace serve` daemon
 * (docs/BATCH.md).
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "commands.hh"
#include "common/logging.hh"
#include "common/worker_pool.hh"
#include "engines/engine.hh"
#include "pipeline/aggregate_report.hh"
#include "pipeline/batch_runner.hh"
#include "pipeline/checkpoint.hh"
#include "serve/client.hh"

namespace wmr::cli {

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
static BatchResult
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

static int
cmdBatch(const CommandLine &cl)
{
    const TraceOut traceOut(cl);
    const CorpusScan corpus = scanCorpus(cl.operands()[0]);
    if (!corpus.ok())
        fatal("%s", corpus.error.c_str());

    BatchOptions opts;
    opts.jobs = cl.number("jobs", opts.jobs);
    opts.failFast = cl.has("fail-fast");
    opts.salvage = cl.has("salvage");
    opts.stream = cl.has("stream");
    opts.streamWindow = cl.number("window", opts.streamWindow);
    if (cl.has("engine"))
        opts.engineKinds =
            engines::parseEngineSelection(cl.choice("engine")).value();
    opts.checkpointPath = cl.text("checkpoint");

    BatchResult batch;
    if (cl.has("server")) {
        serve::ServerAddress addr;
        std::string err;
        if (!serve::parseServerAddress(cl.text("server"), addr, err))
            fatal("batch: %s", err.c_str());
        batch = runBatchOverServer(corpus, addr, opts.jobs,
                                   opts.salvage, cl.choice("engine"));
    } else {
        batch = runBatch(corpus, opts);
    }

    BatchReportOptions ropts;
    ropts.showPerTrace = !cl.has("summary");
    std::printf("%s", formatBatchReport(batch, ropts).c_str());

    if (cl.has("json")) {
        const std::string &path = cl.text("json");
        std::ofstream out(path, std::ios::trunc);
        if (!out)
            fatal("cannot open JSON report file '%s'", path.c_str());
        out << batchReportJson(batch);
        if (!out)
            fatal("short write to JSON report file '%s'",
                  path.c_str());
    }

    if (cl.has("quarantine")) {
        const std::string &path = cl.text("quarantine");
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
    if (cl.has("metrics")) {
        const std::string &path = cl.text("metrics");
        std::ofstream out(path, std::ios::trunc);
        if (!out)
            fatal("cannot open metrics file '%s'", path.c_str());
        out << metricsJson(batch.metrics);
    }

    if (opts.failFast && batch.numFailed() > 0)
        return 2;
    return batch.anyDataRace() ? 1 : 0;
}

const Command kBatch{
    .name = "batch",
    .operands = "<dir|manifest>",
    .summary = "analyze a whole trace corpus",
    .minOperands = 1,
    .maxOperands = 1,
    .options = {
        number("jobs", 1, 4096,
               "total thread budget (default: hardware concurrency); "
               "with --server, concurrent submissions"),
        text("json", "FILE", "write the aggregated JSON report"),
        text("metrics", "FILE",
             "write run metrics as JSON (timing, queue depth)"),
        flag("fail-fast", "stop dispatching after the first failed "
                          "trace, and exit 2"),
        flag("summary", "omit the per-trace lines of the text report"),
        flag("salvage", "analyze the recovered prefix of damaged "
                        "segmented traces instead of failing them"),
        text("checkpoint", "FILE", "append-only resume journal: a "
                                   "re-run skips completed traces"),
        text("quarantine", "FILE", "write the failed trace paths as a "
                                   "corpus manifest"),
        flag("stream", "analyze with the bounded-memory streaming "
                       "engine (identical results)"),
        number("window", 1, 1000000,
               "segments per streaming GC window"),
        text("server", "ADDR", "submit every trace to a running "
                               "`wmrace serve` daemon"),
        choice("engine", wireEngineNames(),
               "analyze every trace with the detector family"),
        traceOutOption(),
    },
    .conflicts = {{"stream", "server"},
                  {"stream", "engine"},
                  {"server", "checkpoint"},
                  {"server", "fail-fast"}},
    .needs = {{"window", "stream"}},
    .run = cmdBatch,
};

} // namespace wmr::cli
