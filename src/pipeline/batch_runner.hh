/**
 * @file
 * The batch analysis engine: run the full Section-4 post-mortem
 * method (hb1 graph -> G' -> partitions -> first partitions) over a
 * whole corpus of trace files on a pool of worker threads.
 *
 * Guarantees:
 *  - GRACEFUL DEGRADATION: a corrupt, truncated or unreadable trace
 *    becomes a per-trace failure with its reason; the batch keeps
 *    going (unless --fail-fast was requested).
 *  - DETERMINISM: per-trace results land in corpus order regardless
 *    of worker count or scheduling, so the aggregated report is
 *    byte-identical for --jobs 1 and --jobs N.  (Timing lives in
 *    BatchMetrics, which is nondeterministic by nature and kept out
 *    of the report.)
 *  - RESUMABILITY: with a checkpoint journal (BatchOptions::
 *    checkpointPath) a run killed halfway resumes without
 *    re-analyzing completed traces, and the resumed report is
 *    byte-identical to an uninterrupted run's.
 *
 * The analysis entry point analyzeTrace() is reentrant — it keeps all
 * state inside the DetectionResult being built and touches no global
 * mutable data — so workers need no locking around it; the pipeline's
 * only shared state is the work queue and the result slots (disjoint
 * per trace).
 */

#ifndef WMR_PIPELINE_BATCH_RUNNER_HH
#define WMR_PIPELINE_BATCH_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "detect/analysis.hh"
#include "engines/family.hh"
#include "pipeline/metrics.hh"
#include "pipeline/trace_corpus.hh"

namespace wmr {

/** Outcome class of one corpus trace. */
enum class TraceRunStatus : std::uint8_t {
    Ok,          ///< analyzed successfully
    IoError,     ///< file missing/unreadable
    FormatError, ///< file bytes are not a well-formed trace
    Skipped,     ///< not analyzed (--fail-fast after a failure)
};

/** @return a stable lowercase name for @p status. */
const char *traceRunStatusName(TraceRunStatus status);

/** Per-trace result: either a failure reason or summary counts. */
struct TraceRunResult
{
    std::string path;
    TraceRunStatus status = TraceRunStatus::Ok;

    /** Failure reason (status != Ok). */
    std::string error;

    // --- Summary of the analysis (status == Ok) -----------------
    std::uint64_t fileBytes = 0;
    std::uint64_t events = 0;
    std::uint64_t syncEvents = 0;
    std::uint64_t ops = 0;
    std::uint64_t races = 0;
    std::uint64_t dataRaces = 0;
    std::uint64_t partitions = 0;
    std::uint64_t firstPartitions = 0;
    std::uint64_t reportedRaces = 0;
    bool anyDataRace = false;
    bool wholeExecutionSc = false;

    // --- Provenance (segmented "WMRSEG01" traces only) ----------
    /** The trace was a damaged/truncated segmented file and only
     *  the valid checksummed prefix was analyzed. */
    bool salvaged = false;

    /** Acquire events whose paired release was lost with the
     *  dropped tail (so1 edges missing => races may be missed). */
    std::uint64_t unresolvedPairings = 0;

    /** Data records the recorder's Drop overflow policy lost. */
    std::uint64_t droppedDataRecords = 0;

    bool ok() const { return status == TraceRunStatus::Ok; }
    bool
    failed() const
    {
        return status == TraceRunStatus::IoError ||
               status == TraceRunStatus::FormatError;
    }
};

/** Knobs of one batch run. */
struct BatchOptions
{
    /**
     * Total worker-thread budget; 0 = hardware concurrency.  One
     * worker analyzes each trace; when the corpus has fewer traces
     * than the budget, the leftover becomes intra-trace analysis
     * threads (AnalysisOptions::threads, unless set explicitly).
     */
    unsigned jobs = 0;

    /** Stop dispatching new traces after the first failure. */
    bool failFast = false;

    /**
     * Recover the valid prefix of damaged segmented traces instead
     * of failing them (the per-trace analogue of
     * `wmrace check --salvage`).  A salvage that recovers nothing is
     * still a failure, so poison files land in the quarantine.
     */
    bool salvage = false;

    /**
     * Analyze WMRSEG01 traces with the bounded-memory streaming
     * engine (src/stream/) instead of materializing them; only the
     * magic is read before the path is chosen.  Results are
     * identical; per-trace memory is O(window) instead of O(trace),
     * so corpora of huge traces fit.  Legacy WMRTRC01 traces cannot
     * stream and keep the whole-trace path.
     */
    bool stream = false;

    /** Streaming GC window, in segments (see StreamOptions). */
    std::size_t streamWindow = 4;

    /**
     * Append-only resume journal ("" = disabled): completed traces
     * found in it are prefilled, not re-analyzed, and every newly
     * completed trace is journaled as it finishes — so a batch run
     * killed halfway resumes where it stopped.  See checkpoint.hh.
     */
    std::string checkpointPath;

    /** Detector options applied to every trace. */
    AnalysisOptions analysis;

    /**
     * Detector-engine selection (`batch --engine`): empty keeps the
     * canonical hb1 path; otherwise every trace runs the engine
     * family (engines/family.hh) and the per-trace counts come from
     * fillFromEngineFamily().  Chain engines only (hb1/shb/wcp);
     * incompatible with stream (wcp needs whole-trace state).
     */
    std::vector<engines::EngineKind> engineKinds;
};

/** Everything one batch run produced. */
struct BatchResult
{
    /** The corpus that was analyzed (order = report order). */
    CorpusScan corpus;

    /** Per-trace outcomes, in corpus order. */
    std::vector<TraceRunResult> traces;

    /** Timing/shape metrics (nondeterministic; not in the report). */
    BatchMetrics metrics;

    /** @return whether any analyzed trace had a data race. */
    bool anyDataRace() const;

    /** @return number of traces that failed to load/parse. */
    std::size_t numFailed() const;
};

/**
 * Analyze every trace of @p corpus per @p opts.  The corpus must be
 * ok(); pass the result of scanCorpus() or a hand-built file list.
 */
BatchResult runBatch(const CorpusScan &corpus,
                     const BatchOptions &opts = {});

/**
 * Fill @p out's summary counts (events through wholeExecutionSc) from
 * a whole-trace analysis.  Shared with the serve subsystem so a
 * served meta block equals a local batch's field for field.
 */
void fillFromDetection(const DetectionResult &det, TraceRunResult &out);

/**
 * Fill @p out's summary counts from a detector-family run — the
 * `--engine` twin of fillFromDetection().  races/dataRaces come
 * from the weakest chain engine that ran (the superset under the
 * containment chain, so "races" reads as "everything any selected
 * engine predicts"); the partition fields come from hb1 when it ran
 * and stay 0 otherwise; anyDataRace is the family OR.  Shared with
 * the serve subsystem so a served `--engine` meta block equals a
 * local batch's field for field.
 */
void fillFromEngineFamily(const engines::EngineFamilyResult &fam,
                          TraceRunResult &out);

} // namespace wmr

#endif // WMR_PIPELINE_BATCH_RUNNER_HH
