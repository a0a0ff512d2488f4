#include "pipeline/batch_runner.hh"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/logging.hh"
#include "common/worker_pool.hh"
#include "obs/obs.hh"
#include "pipeline/checkpoint.hh"
#include "pipeline/work_queue.hh"
#include "stream/stream_analyzer.hh"
#include "trace/trace_io.hh"

namespace wmr {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

/** One worker's private metric accumulators (merged at exit). */
struct WorkerTotals
{
    StageSeconds stages;
    AnalysisStageSeconds analysis;
    std::uint64_t candidatePairs = 0;
    std::uint64_t reachQueries = 0;
};

/** Copy a failed load into @p out. */
void
failLoad(TraceIoStatus status, const std::string &error,
         TraceRunResult &out)
{
    out.status = status == TraceIoStatus::IoError
                     ? TraceRunStatus::IoError
                     : TraceRunStatus::FormatError;
    out.error = error;
}

/** Copy the WMRSEG01 provenance of a run into @p out. */
void
noteProvenance(const SalvageInfo &salvage, TraceRunResult &out)
{
    out.salvaged = salvage.salvaged;
    out.unresolvedPairings = salvage.unresolvedPairings;
    out.droppedDataRecords = salvage.droppedDataRecords;
}

/**
 * Stream-analyze one segmented trace (BatchOptions::stream): same
 * TraceRunResult fields as the whole-trace path, O(window) memory.
 */
void
streamOneTrace(const std::string &path, const BatchOptions &opts,
               TraceRunResult &out, StageSeconds &stages)
{
    obs::StagedSpan analyzeSpan("batch.analyze", stages.analyze);
    StreamOptions sopts;
    sopts.strict = !opts.salvage;
    sopts.windowSegments = opts.streamWindow;
    const StreamResult sr = streamAnalyzeFile(path, sopts);
    if (!sr.ok) {
        failLoad(TraceIoStatus::FormatError, sr.error, out);
        return;
    }
    std::error_code ec;
    out.fileBytes = std::filesystem::file_size(path, ec);
    noteProvenance(sr.salvage, out);
    out.status = TraceRunStatus::Ok;
    out.events = sr.events;
    out.syncEvents = sr.syncEvents;
    out.ops = sr.ops;
    out.races = sr.races;
    out.dataRaces = sr.dataRaces;
    out.partitions = sr.partitions;
    out.firstPartitions = sr.firstPartitions;
    out.reportedRaces = sr.reportedRaces;
    out.anyDataRace = sr.anyDataRace;
    out.wholeExecutionSc = sr.wholeExecutionSc;
}

/** Load + parse + analyze one trace file into @p out. */
void
analyzeOneTrace(const std::string &path, const BatchOptions &opts,
                TraceRunResult &out, WorkerTotals &totals)
{
    StageSeconds &stages = totals.stages;
    out.path = path;

    obs::Span traceSpan("batch.trace");
    traceSpan.annotate(path);

    // Bounded-memory path: only the magic is read before streaming.
    if (opts.stream && fileLooksSegmented(path)) {
        streamOneTrace(path, opts, out, stages);
        return;
    }

    ExecutionTrace trace;
    {
        std::vector<std::uint8_t> bytes;
        {
            obs::StagedSpan s("batch.read", stages.read);
            std::string error;
            const TraceIoStatus st = readTraceBytes(path, bytes, error);
            if (st != TraceIoStatus::Ok) {
                failLoad(st, error, out);
                return;
            }
            out.fileBytes = bytes.size();
        }

        obs::StagedSpan s("batch.parse", stages.parse);
        TraceReadResult res = tryDeserializeTrace(bytes, opts.salvage);
        if (!res.ok()) {
            failLoad(res.status, res.error, out);
            return;
        }
        noteProvenance(res.salvage, out);
        trace = std::move(res.trace);
    }

    obs::StagedSpan analyzeSpan("batch.analyze", stages.analyze);
    if (!opts.engineKinds.empty()) {
        // `batch --engine`: the detector family replaces the
        // canonical pipeline; counts per fillFromEngineFamily().
        engines::EngineFamilyOptions fopts;
        fopts.kinds = opts.engineKinds;
        fopts.threads = opts.analysis.threads;
        const engines::EngineFamilyResult fam =
            engines::runEngineFamily(trace, fopts);
        out.status = TraceRunStatus::Ok;
        fillFromEngineFamily(fam, out);
        return;
    }
    const DetectionResult det =
        analyzeTrace(std::move(trace), opts.analysis);
    const AnalysisStats &as = det.stats();
    totals.analysis.graphBuild += as.graphBuildSeconds;
    totals.analysis.reachability += as.reachabilitySeconds;
    totals.analysis.raceFind += as.raceFindSeconds;
    totals.analysis.augment += as.augmentSeconds;
    totals.analysis.partition += as.partitionSeconds;
    totals.analysis.scp += as.scpSeconds;
    totals.candidatePairs += as.finder.candidatePairs;
    totals.reachQueries += as.finder.reachQueries;

    out.status = TraceRunStatus::Ok;
    fillFromDetection(det, out);
}

} // namespace

const char *
traceRunStatusName(TraceRunStatus status)
{
    switch (status) {
      case TraceRunStatus::Ok:
        return "ok";
      case TraceRunStatus::IoError:
        return "io_error";
      case TraceRunStatus::FormatError:
        return "format_error";
      case TraceRunStatus::Skipped:
        return "skipped";
    }
    return "unknown";
}

void
fillFromDetection(const DetectionResult &det, TraceRunResult &out)
{
    out.events = det.trace().events().size();
    out.syncEvents = det.trace().numSyncEvents();
    out.ops = det.trace().totalOps();
    out.races = det.races().size();
    out.dataRaces = det.numDataRaces();
    out.partitions = det.partitions().partitions.size();
    out.firstPartitions = det.partitions().firstPartitions.size();
    out.reportedRaces = det.reportedRaces().size();
    out.anyDataRace = det.anyDataRace();
    out.wholeExecutionSc = det.scp().wholeExecutionSc;
}

void
fillFromEngineFamily(const engines::EngineFamilyResult &fam,
                     TraceRunResult &out)
{
    out.events = fam.info.numEvents;
    out.syncEvents = fam.info.numSyncEvents;
    out.ops = fam.info.totalOps;

    // The weakest chain engine that ran holds the superset race set
    // (containment chain), so its counts are "everything predicted".
    const engines::EngineVerdict *primary = nullptr;
    for (const engines::EngineVerdict &v : fam.verdicts) {
        if (!v.opLevel)
            primary = &v;
    }
    if (primary != nullptr) {
        out.races = primary->races.size();
        out.dataRaces = primary->numDataRaces;
    }
    if (const engines::EngineVerdict *hb1 = fam.verdict("hb1")) {
        out.partitions = hb1->partitions;
        out.firstPartitions = hb1->firstPartitions;
        out.reportedRaces = hb1->reported.size();
    }
    out.anyDataRace = fam.anyDataRace;
    // Same rule the SCP stage applies (scp.cc): the whole execution
    // is sequentially consistent iff no read ever returned a stale
    // value.
    out.wholeExecutionSc = fam.info.firstStaleRead == kNoOp;
}

bool
BatchResult::anyDataRace() const
{
    for (const auto &t : traces) {
        if (t.ok() && t.anyDataRace)
            return true;
    }
    return false;
}

std::size_t
BatchResult::numFailed() const
{
    std::size_t n = 0;
    for (const auto &t : traces) {
        if (t.failed())
            ++n;
    }
    return n;
}

BatchResult
runBatch(const CorpusScan &corpus, const BatchOptions &opts)
{
    BatchResult result;
    result.corpus = corpus;

    const std::size_t n = corpus.files.size();
    const unsigned budget = resolveThreads(opts.jobs);

    // Split the thread budget: one worker per trace up to the corpus
    // size, and when the corpus is smaller than the budget, spend the
    // leftover INSIDE each analysis (intra-trace parallelism) instead
    // of idling.  An explicit AnalysisOptions::threads wins.
    unsigned jobs = budget;
    if (jobs > n && n > 0)
        jobs = static_cast<unsigned>(n);
    BatchOptions effective = opts;
    if (effective.analysis.threads == 1 && jobs > 0)
        effective.analysis.threads = std::max(1u, budget / jobs);
    effective.analysis.threads =
        resolveThreads(effective.analysis.threads);

    result.traces.resize(n);
    result.metrics.jobs = jobs;
    result.metrics.analysisThreads = effective.analysis.threads;
    result.metrics.corpusTraces = n;
    if (n == 0)
        return result;

    // Resume: prefill result slots journaled by a previous run over
    // this corpus, then keep journaling the rest as they complete.
    // The journal is an optimization — any problem with it degrades
    // to re-analyzing traces, never to wrong results.
    std::vector<char> done(n, 0);
    bool priorFailure = false;
    CheckpointWriter journal;
    bool journaling = false;
    if (!opts.checkpointPath.empty()) {
        std::unordered_map<std::string, std::size_t> slotByPath;
        slotByPath.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            slotByPath.emplace(corpus.files[i], i);
        const CheckpointLoad prior =
            loadCheckpoint(opts.checkpointPath);
        if (prior.tornLines > 0)
            warn("batch: checkpoint '%s': ignoring %zu torn or "
                 "foreign line(s)",
                 opts.checkpointPath.c_str(), prior.tornLines);
        for (const auto &entry : prior.entries) {
            const auto it = slotByPath.find(entry.path);
            if (it == slotByPath.end() || done[it->second])
                continue; // journaled under a different corpus
            result.traces[it->second] = entry;
            done[it->second] = 1;
            priorFailure |= entry.failed();
            ++result.metrics.resumed;
        }
        if (journal.open(opts.checkpointPath))
            journaling = true;
        else
            warn("batch: checkpoint journaling disabled: %s",
                 journal.lastError().c_str());
    }

    const auto wallStart = Clock::now();

    // Producer -> workers hand-off.  The bound keeps the backlog (and
    // so the peak-depth metric) meaningful without ever stalling the
    // workers: a few slots of slack per worker.
    WorkQueue<std::size_t> queue(static_cast<std::size_t>(jobs) * 4);
    std::atomic<bool> abortDispatch{priorFailure};
    std::atomic<bool> journalWarned{false};

    std::mutex metricsMutex;
    WorkerTotals grandTotal;

    const auto workerBody = [&](unsigned worker) {
        obs::setThreadName("batch.worker." + std::to_string(worker));
        obs::Span workerSpan("batch.worker");
        WorkerTotals local;
        std::size_t index = 0;
        while (queue.pop(index)) {
            TraceRunResult &slot = result.traces[index];
            if (opts.failFast &&
                abortDispatch.load(std::memory_order_relaxed)) {
                slot.path = corpus.files[index];
                slot.status = TraceRunStatus::Skipped;
                slot.error = "--fail-fast after an earlier failure";
                continue;
            }
            analyzeOneTrace(corpus.files[index], effective, slot,
                            local);
            if (slot.failed())
                abortDispatch.store(true,
                                    std::memory_order_relaxed);
            if (journaling && !journal.append(slot) &&
                !journalWarned.exchange(true))
                warn("batch: checkpoint journaling failed: %s",
                     journal.lastError().c_str());
        }
        std::lock_guard<std::mutex> lock(metricsMutex);
        grandTotal.stages.read += local.stages.read;
        grandTotal.stages.parse += local.stages.parse;
        grandTotal.stages.analyze += local.stages.analyze;
        grandTotal.analysis.graphBuild += local.analysis.graphBuild;
        grandTotal.analysis.reachability +=
            local.analysis.reachability;
        grandTotal.analysis.raceFind += local.analysis.raceFind;
        grandTotal.analysis.augment += local.analysis.augment;
        grandTotal.analysis.partition += local.analysis.partition;
        grandTotal.analysis.scp += local.analysis.scp;
        grandTotal.candidatePairs += local.candidatePairs;
        grandTotal.reachQueries += local.reachQueries;
    };

    {
        WorkerPool pool(jobs, workerBody);
        for (std::size_t i = 0; i < n; ++i) {
            if (done[i])
                continue; // resumed from the checkpoint journal
            if (opts.failFast &&
                abortDispatch.load(std::memory_order_relaxed)) {
                // Mark everything not yet dispatched as skipped; the
                // producer owns these slots until they are pushed.
                TraceRunResult &slot = result.traces[i];
                slot.path = corpus.files[i];
                slot.status = TraceRunStatus::Skipped;
                slot.error = "--fail-fast after an earlier failure";
                continue;
            }
            queue.push(i);
        }
        queue.close();
        pool.join();
    }

    result.metrics.wallSeconds = secondsSince(wallStart);
    result.metrics.stageTotal = grandTotal.stages;
    result.metrics.analysisStages = grandTotal.analysis;
    result.metrics.candidatePairs = grandTotal.candidatePairs;
    result.metrics.reachQueries = grandTotal.reachQueries;
    result.metrics.peakQueueDepth = queue.peakDepth();
    for (const auto &t : result.traces) {
        result.metrics.bytesRead += t.fileBytes;
        if (t.ok()) {
            ++result.metrics.analyzed;
            if (t.salvaged)
                ++result.metrics.salvaged;
        } else if (t.failed()) {
            ++result.metrics.failed;
        } else {
            ++result.metrics.skipped;
        }
    }

    // Publish the batch into the shared registry alongside the
    // analysis.* and rt.* series; the JSON report keeps its own
    // schema-stable copy of these numbers.
    obs::counter("batch.traces").add(result.metrics.corpusTraces);
    obs::counter("batch.analyzed").add(result.metrics.analyzed);
    obs::counter("batch.failed").add(result.metrics.failed);
    obs::counter("batch.salvaged").add(result.metrics.salvaged);
    obs::counter("batch.bytes_read").add(result.metrics.bytesRead);
    obs::gauge("batch.jobs").set(result.metrics.jobs);
    obs::gauge("batch.peak_queue_depth")
        .set(result.metrics.peakQueueDepth);
    return result;
}

} // namespace wmr
