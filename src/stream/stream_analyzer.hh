/**
 * @file
 * Streaming bounded-memory Section-4 analysis for unbounded traces.
 *
 * The whole-trace pipeline (detect/analysis.hh) materializes every
 * event and the full hb1 graph before the first race is reported, so
 * memory grows linearly with trace length.  StreamAnalyzer consumes
 * WMRSEG01 segments as they are sealed — from a finished file or a
 * live recording — and keeps only a *window* of events resident:
 *
 *  - Vector clocks per processor maintain hb1 incrementally: po
 *    advances a processor's own component, and a sync event with a
 *    release→acquire pairing joins the paired release's clock
 *    snapshot (the so1 edge of Def. 2.2).  Because every hb1 edge
 *    points forward in file order, a new event can never precede an
 *    already-seen one, so the race test is one-directional: history
 *    entry (p, i) races a new event e iff C_e[p] < i.  The history
 *    and the test are the ones the shb and wcp engines run
 *    (hb/access_history.hh).
 *
 *  - A watermark GC retires fully-hb1-ordered prefixes: W[p] = the
 *    minimum of every live processor's clock component for p.  Once
 *    an event's epoch falls at or under the watermark, every future
 *    event is provably ordered after it — it can never race again
 *    and leaves the per-address history (AccessHistory::retire); its
 *    clock snapshot and word sets are freed.  Resident state is
 *    O(window), not O(trace).
 *
 *  - Event ids (the stable_sort-by-firstOp numbering of the
 *    whole-trace reader) are assigned by a frontier min-heap keyed
 *    (firstOp, file ordinal): an event's rank is final as soon as no
 *    processor can still produce a smaller key.
 *
 *  - Racy events are pinned (report-scale, not trace-scale).  At end
 *    of stream a *summary graph* over just the racy events — hb1
 *    edges answered by the retained clock snapshots, race edges in
 *    both directions — has exactly the SCCs and reachability of G'
 *    restricted to racy nodes, which is all partitioning (Sec. 4.2)
 *    ever looks at.  Partition labels, first flags, SCP
 *    classification and the rendered report are byte-identical to
 *    analyzeTrace() + formatReport() on the same file; the
 *    differential suite (tests/test_stream.cc) proves it across the
 *    golden corpus and large synthetics.
 *
 * See docs/STREAMING.md for the invariants and their proofs.
 */

#ifndef WMR_STREAM_STREAM_ANALYZER_HH
#define WMR_STREAM_STREAM_ANALYZER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "detect/report_model.hh"
#include "hb/access_history.hh"
#include "hb/vector_clock.hh"
#include "trace/segmented_io.hh"

namespace wmr {

/** Periodic progress snapshot (one per closed window). */
struct StreamProgress
{
    std::uint64_t segments = 0;
    std::uint64_t events = 0;
    std::uint64_t racesSoFar = 0;
    std::uint64_t eventsResident = 0;

    /** Max epochs any processor is ahead of the watermark. */
    std::uint64_t watermarkLag = 0;
    std::uint64_t windowsRetired = 0;
};

/** Options of a streaming analysis. */
struct StreamOptions
{
    /**
     * Strict wire semantics: fail (with the same messages the strict
     * whole-trace reader raises) on damage, missing FIN, shape
     * violations or unresolvable pairings.  Off = tolerant/salvage
     * semantics: recover what verified and account for the rest.
     */
    bool strict = true;

    /** Run the watermark GC every N ingested segments. */
    std::size_t windowSegments = 4;

    /** Invoked after every closed window (progress reporting). */
    std::function<void(const StreamProgress &)> onWindow;
};

/** Everything a finished streaming analysis produced. */
struct StreamResult
{
    bool ok = false;
    std::string error;

    /** Render with renderReport() — byte-identical to formatReport()
     *  of the whole-trace analysis of the same file. */
    ReportModel report;

    /** Scan + rebuild accounting, identical fields to the salvage
     *  reader's (formatTraceProvenance() renders the same bytes). */
    SalvageInfo salvage;

    /**
     * Whether the streaming result is guaranteed equal to the
     * whole-trace result.  False only on inputs no wmrace writer
     * produces (forward pairing ordinals, processors born after
     * unrelated state retired, out-of-order op ranges); the
     * stream.unsafe_proc_birth / stream.order_violations counters
     * say why.
     */
    bool exact = true;

    // Aggregate counts (what batch reporting consumes).
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

    // Stream-side metrics.
    std::uint64_t segments = 0;
    std::uint64_t peakResident = 0;
    std::uint64_t windowsRetired = 0;
};

/**
 * The incremental engine.  Feed decoded segments in file order via
 * addSegment() (e.g. from a SegmentTailReader), then finish() once
 * with the scan outcome.
 */
class StreamAnalyzer
{
  public:
    explicit StreamAnalyzer(StreamOptions opts = {});
    ~StreamAnalyzer();

    StreamAnalyzer(const StreamAnalyzer &) = delete;
    StreamAnalyzer &operator=(const StreamAnalyzer &) = delete;

    /**
     * Ingest one decoded DATA segment.  @return false when the
     * stream just failed under strict semantics (error() explains;
     * further calls are no-ops).
     */
    bool addSegment(const SegTailSegment &seg);

    /**
     * Close the stream and compute the final result.  @p finSeen /
     * @p fin carry the FIN outcome, @p scanSalvage the frame-scan
     * accounting (both straight from SegmentTailReader after
     * finalize()).
     */
    StreamResult finish(bool finSeen, const SegShape &fin,
                        const SalvageInfo &scanSalvage);

    bool failed() const { return failed_; }
    const std::string &error() const { return error_; }

    /**
     * Flip strictness mid-stream.  A live recording (`record
     * --live`) cannot know until the child exits whether the trace
     * deserves the strict reader (clean exit) or salvage tolerance
     * (abnormal exit); strict violations are remembered either way
     * and judged at finish().
     */
    void setStrict(bool strict) { opts_.strict = strict; }

    /** Events currently resident (live window + pinned racy). */
    std::uint64_t eventsResident() const { return live_.size(); }

    std::uint64_t racesSoFar() const { return races_.size(); }

  private:
    struct LiveEvent
    {
        std::uint64_t ordinal = 0;
        EventId finalId = kNoEvent;
        ProcId proc = 0;
        std::uint32_t epoch = 0; // 1-based index in its processor
        EventKind kind = EventKind::Computation;
        OpId firstOp = kNoOp;
        OpId lastOp = kNoOp;
        std::uint32_t opCount = 0;
        MemOp syncOp;

        /** First four words of each set (all a report line shows). */
        WordPrefix reads4;
        WordPrefix writes4;

        /** Addresses this event occupies in hist_, so retirement
         *  compacts exactly those instead of sweeping the whole
         *  history (freed at retirement). */
        std::vector<Addr> histAddrs;

        VectorClock clock;

        /** Index among the racy events, which finish() numbers in
         *  file order: the summary graph's node and the report
         *  model's event. */
        std::uint32_t node = 0;
        bool racy = false;
        bool popped = false;  // finalId assigned
        bool retired = false; // left the race history
    };

    struct ProcState
    {
        VectorClock clock;
        std::uint32_t epochs = 0;
        OpId maxLastOp = 0;
        std::uint64_t retiredEpochs = 0; // retire fence

        /** Unretired events, epoch order. */
        std::deque<LiveEvent *> window;
    };

    /** One discovered race, by file ordinals (ids come later). */
    struct StreamRace
    {
        std::uint64_t ordA = 0; // the earlier (history) event
        std::uint64_t ordB = 0;
        std::vector<Addr> addrs; // ascending
    };

    void ingest(const SegFileEvent &fe);
    void popIdFrontier(bool flushAll);
    void gcWindow(bool final);
    void updateGauges();
    bool streamFail(const std::string &message);

    ProcState &procAt(ProcId p);

    StreamOptions opts_;
    bool failed_ = false;
    bool finished_ = false;
    std::string error_;

    /** First strict pairing violation, deferred to finish() so the
     *  error precedence (scan < shape < pairing) matches the
     *  whole-trace reader. */
    std::string pairingError_;
    bool exact_ = true;

    std::uint64_t nextOrdinal_ = 0;
    std::uint64_t segments_ = 0;
    std::uint64_t eventsTotal_ = 0;
    std::uint64_t syncEvents_ = 0;
    std::uint64_t opsSeen_ = 0;
    std::uint64_t droppedSoFar_ = 0;
    ProcId needProcs_ = 0; // max proc+1 over events
    Addr needWords_ = 0;   // max word+1 over events
    std::uint64_t unresolvedPairings_ = 0;
    std::uint64_t windowsRetired_ = 0;
    std::uint64_t peakResident_ = 0;
    std::uint64_t watermarkLag_ = 0;
    OpId maxPoppedFirstOp_ = 0;

    /** kind-by-file-ordinal (1 bit/event): pairing targets must be
     *  sync events even after the target retired.  The only
     *  trace-length structure the engine keeps — ~0.1% of the file
     *  size, vs. the whole-trace reader's full event materialization. */
    std::vector<bool> syncByOrdinal_;

    std::unordered_map<std::uint64_t, std::unique_ptr<LiveEvent>>
        live_;
    std::vector<ProcState> procs_;

    /** Accesses of the unretired events, keyed by file ordinal. */
    AccessHistory hist_;
    AccessSplit acc_; // scratch

    /** Id frontier: min-heap of (firstOp, ordinal). */
    std::priority_queue<std::pair<OpId, std::uint64_t>,
                        std::vector<std::pair<OpId, std::uint64_t>>,
                        std::greater<>>
        idHeap_;
    EventId nextId_ = 0;

    std::vector<StreamRace> races_;
};

/**
 * Stream-analyze @p path, polling for appended data while
 * @p producerAlive returns true (pass nullptr for a file that is
 * complete on disk).  StreamOptions::strict selects between the
 * strict reader's semantics and `--salvage`-style tolerance.
 */
StreamResult
streamAnalyzeFollow(const std::string &path, const StreamOptions &opts,
                    const std::function<bool()> &producerAlive,
                    unsigned pollMs = 20);

/** Stream-analyze a file that is complete on disk. */
StreamResult streamAnalyzeFile(const std::string &path,
                               const StreamOptions &opts);

} // namespace wmr

#endif // WMR_STREAM_STREAM_ANALYZER_HH
