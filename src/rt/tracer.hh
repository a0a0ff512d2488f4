/**
 * @file
 * The in-process runtime tracer: records real threaded programs into
 * the Section 4.1 EVENT abstraction.
 *
 * Architecture (one Tracer per process, normally the global one
 * behind the C annotation API in annotate.hh):
 *
 *   annotated threads ──► per-thread SPSC rings ──► drain thread
 *                                                      │
 *                     record mode: coalesce into events, write the
 *                        EVENT trace file `wmrace check/batch` read
 *                     inline mode: pump MemOps into an on-the-fly
 *                        detector (vc/epoch) for immediate reports
 *
 * Producers never lock: data annotations push one fixed-size record
 * into their own ring; sync annotations additionally touch two
 * atomics in the lock-free SyncRegistry, which is how the observed
 * release→acquire pairing (so1, Def. 2.2) and the per-object sync
 * order are captured at annotation time.
 *
 * The drain thread is the single consumer of every ring.  It pops
 * data records freely but gates each *sync* record on the per-object
 * sequence number the producer recorded: a sync record is consumed
 * only when all earlier sync operations on the same object have been
 * consumed.  Because those sequence numbers are assigned by one
 * atomic fetch_add, every wait is for a record earlier in real time,
 * so the gating cannot deadlock — and it guarantees an acquire is
 * drained after the release it observed, which keeps both inline
 * detection (clock joins) and record-mode pairing exact.
 */

#ifndef WMR_RT_TRACER_HH
#define WMR_RT_TRACER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "onthefly/onthefly.hh"
#include "rt/ring_buffer.hh"
#include "rt/sync_registry.hh"
#include "trace/execution_trace.hh"
#include "trace/segmented_io.hh"

namespace wmr::rt {

/** What the tracer does with the drained stream. */
enum class RtMode : std::uint8_t {
    Record, ///< build an ExecutionTrace / EVENT trace file
    Inline, ///< pump an on-the-fly detector, no file
};

/** Which detector inline mode runs. */
enum class RtDetector : std::uint8_t { VectorClock, Epoch };

/** What a producer does when its ring is full. */
enum class RtOverflowPolicy : std::uint8_t {
    Block, ///< spin until the drain frees a slot (lossless)
    Drop,  ///< drop DATA records, counting them; sync always blocks
};

/** Configuration of one Tracer. */
struct TracerConfig
{
    RtMode mode = RtMode::Record;

    /** Record mode: trace file written at stop() ("" = keep the
     *  trace in memory only; fetch it with takeTrace()). */
    std::string tracePath;

    RtOverflowPolicy overflow = RtOverflowPolicy::Block;

    /** Per-thread ring capacity in records (power of two). */
    std::size_t ringCapacity = 1 << 14;

    /** Sync-object table capacity (power of two). */
    std::size_t syncCapacity = 1 << 10;

    /** Max records drained from one ring before moving on. */
    std::size_t drainBatch = 256;

    /** Cap on data ops merged into one computation event
     *  (0 = unlimited: events span sync to sync, as in the paper). */
    std::uint32_t maxCompRun = 0;

    /** Inline mode: detector flavor and thread ceiling (the
     *  detectors size their vector clocks up front). */
    RtDetector detector = RtDetector::VectorClock;
    ProcId maxThreads = 64;

    /**
     * Run the drain on a background thread (production).  When
     * false, records accumulate until drainAll()/stop() — used by
     * tests and benchmarks for determinism; combine with Drop
     * overflow or a large ring, or producers will spin forever.
     */
    bool backgroundDrain = true;

    /**
     * Record mode: spill sealed events to cfg.tracePath incrementally
     * as segmented, checksummed frames (trace/segmented_io.hh), a
     * data segment every time this many pending payload bytes
     * accumulate (and at every drain quiescence point).  0 = one
     * whole-trace write at stop() (same container), which loses the
     * whole trace if the process dies first.  `wmrace
     * record` children default to 64 KiB via WMR_RT_SPILL.
     */
    std::size_t spillSegmentBytes = 0;

    /**
     * Install SIGSEGV/SIGABRT/SIGBUS/SIGFPE handlers that best-effort
     * seal + fsync the current spill segment before re-raising, so a
     * crashing traced program still leaves a salvageable trace.
     * Only meaningful with spillSegmentBytes > 0.
     */
    bool crashHandlers = false;

    /**
     * Fault-injection point for robustness tests ("" = none):
     *   crash-in-drain[@N]    raise SIGSEGV on the drain thread
     *                         after N drained records (default 50)
     *   crash-mid-segment[@N] write a torn frame instead of sealing
     *                         segment N+1, then _exit(86) (default 1)
     *   slow-child[@SEC]      sleep SEC seconds at the top of stop()
     *                         (default 30) — a wedged shutdown
     * Set via WMR_RT_FAULT for env-driven tracers.
     */
    std::string faultSpec;
};

/** Flush/drain metrics and loss counters of one tracing run. */
struct RtStats
{
    std::uint64_t recordsCaptured = 0; ///< pushed into a ring
    std::uint64_t recordsDropped = 0;  ///< lost to Drop overflow
    std::uint64_t blockedPushes = 0;   ///< Block-policy wait episodes

    std::uint64_t drainPasses = 0;
    std::uint64_t drainedRecords = 0;
    std::uint64_t syncStalls = 0;    ///< sync record left for later
    std::uint64_t forcedSync = 0;    ///< gate bypassed at shutdown
    std::uint64_t unresolvedPairings = 0; ///< acquire w/o release op
    std::uint64_t registryFull = 0;  ///< sync ops with no table slot

    std::uint64_t opsEmitted = 0;    ///< MemOps assigned ids
    std::uint64_t eventsEmitted = 0; ///< record mode events
    std::uint64_t syncEvents = 0;

    std::uint64_t threadsTraced = 0;
    std::uint64_t wordsMapped = 0;   ///< distinct shared words seen
    std::uint64_t inlineRaces = 0;   ///< inline mode race reports

    std::uint64_t segmentsSpilled = 0; ///< spill segments on disk
    std::uint64_t spillBytes = 0;      ///< spill file size so far
    std::uint64_t spillFailures = 0;   ///< spill writer I/O errors
};

/** See the file comment. */
class Tracer
{
  public:
    explicit Tracer(TracerConfig cfg);

    /** Stops (flushes, joins, writes) if stop() was not called. */
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    // --- annotation entry points (hot path) ---------------------

    /** Register the calling thread; assigns it a dense ProcId. */
    ProcId threadBegin();

    /** Mark the calling thread finished (its ring still drains). */
    void threadEnd();

    /** Record a data access of @p size bytes at @p addr. */
    void onData(const void *addr, std::size_t size, bool isWrite);

    /** Record an acquire (e.g. mutex lock) on sync object @p obj. */
    void onAcquire(const void *obj);

    /** Record a release (e.g. mutex unlock) on sync object @p obj. */
    void onRelease(const void *obj);

    // --- lifecycle ----------------------------------------------

    /**
     * Drain everything, stop the drain thread, finalize.  Call after
     * joining the annotated threads.  Record mode writes
     * cfg.tracePath here (if set).  Idempotent.
     */
    void stop();

    /** Foreground drain (backgroundDrain=false runs). */
    void drainAll();

    /**
     * Async-signal-safe best-effort flush: frame + fsync whatever
     * spill payload is pending.  Called by the fatal-signal handlers
     * (cfg.crashHandlers); safe to call from test code too.
     * @return whether anything was durably written.
     */
    bool crashFlush();

    /**
     * @return aggregated metrics.  Producer-side counters are safe
     * to sample any time; drain-side counters are exact (and only
     * data-race-free) once stop() has returned.
     */
    RtStats stats() const;

    /** Record mode, after stop(): move the built trace out. */
    ExecutionTrace takeTrace();

    /** Inline mode: the detector (stable after stop()). */
    const OnTheFlyDetector *detector() const { return detector_.get(); }

    /** Inline mode, after stop(): races with native addresses
     *  re-attached (RtRaceReport below). */
    struct RaceReport
    {
        OtfRace race;
        const void *nativeAddr = nullptr;
    };
    std::vector<RaceReport> inlineRaces() const;

    /** @return the native granule address behind dense word @p a. */
    const void *nativeAddrOf(Addr a) const;

    /** @return dense word id of @p addr, or kNoAddr if never seen
     *  (test/diagnostic helper; valid after stop()). */
    static constexpr Addr kNoAddr =
        std::numeric_limits<Addr>::max();
    Addr denseAddrOf(const void *addr) const;

    const TracerConfig &config() const { return cfg_; }

  private:
    /** One fixed-size annotation record. */
    enum class RecKind : std::uint8_t {
        Read,
        Write,
        Acquire,
        Release,
    };

    static constexpr std::uint64_t kNoSeq = ~0ull;

    struct RtRecord
    {
        RecKind kind = RecKind::Read;
        std::uint32_t size = 0;     ///< data: access size in bytes
        const void *addr = nullptr; ///< data address / sync object
        std::uint64_t token = 0;    ///< sync: release token observed
                                    ///  (acquire) or published (release)
        std::uint64_t seq = kNoSeq; ///< sync: per-object sequence
    };

    /** Event being assembled before the word universe is known. */
    struct StagedEvent
    {
        EventKind kind = EventKind::Computation;
        ProcId proc = kNoProc;
        OpId firstOp = kNoOp;
        OpId lastOp = kNoOp;
        std::uint32_t opCount = 0;
        std::vector<Addr> readWords;  ///< dense ids, may repeat
        std::vector<Addr> writeWords;
        MemOp syncOp;                 ///< sync events only
        std::uint64_t pairedToken = 0;
    };

    /** Per-annotated-thread state (producer + drain sides). */
    struct Channel
    {
        explicit Channel(ProcId p, std::size_t cap)
            : proc(p), ring(cap)
        {
        }

        const ProcId proc;
        SpscRing<RtRecord> ring;
        std::atomic<bool> finished{false};

        // Producer-side counters (atomic: stats() may race them).
        std::atomic<std::uint64_t> captured{0};
        std::atomic<std::uint64_t> dropped{0};
        std::atomic<std::uint64_t> blocked{0};

        // Drain-side state (single consumer, unsynchronized).
        std::uint32_t poIndex = 0;
        StagedEvent open;             ///< accumulating computation
        bool openValid = false;
        std::vector<StagedEvent> staged; ///< record mode output
    };

    Channel *channelOfCallingThread();
    void push(Channel &ch, const RtRecord &rec);

    bool drainPass(bool force);
    void drainToQuiescence();
    void processRecord(Channel &ch, const RtRecord &rec);
    void flushOpenEvent(Channel &ch);
    void emitSync(Channel &ch, const RtRecord &rec);
    void feedInline(const MemOp &op);
    Addr mapGranule(const void *granule);
    void finalize();
    void drainLoop();

    // Spill path (drain thread only).
    void spillStaged(const StagedEvent &ev);
    void maybeSealSpill(bool force);
    std::uint64_t currentDropped() const;

    /** Parsed cfg.faultSpec. */
    enum class Fault : std::uint8_t {
        None,
        CrashInDrain,
        CrashMidSegment,
        SlowChild,
    };
    void parseFault();
    void maybeFaultInDrain();

    TracerConfig cfg_;
    SyncRegistry syncs_;

    mutable std::mutex channelsMu_;
    std::vector<std::unique_ptr<Channel>> channels_;

    std::atomic<std::uint64_t> releaseTokens_{0};
    std::atomic<std::uint64_t> registryFull_{0};

    // Drain-side state (drain thread only until stop()).
    std::unordered_map<const void *, std::uint64_t> nextSeq_;
    std::unordered_map<std::uint64_t, OpId> releaseOpByToken_;
    std::unordered_map<const void *, Addr> addrMap_;
    std::vector<const void *> nativeOfDense_;
    OpId nextOp_ = 0;
    RtStats drainStats_;

    std::unique_ptr<OnTheFlyDetector> detector_;
    ExecutionTrace built_;
    bool finalized_ = false;

    /** Incremental spill writer (record mode, spillSegmentBytes>0);
     *  null when spilling is off or the file failed to open. */
    std::unique_ptr<SegmentSpillWriter> spill_;
    std::uint64_t spillFailures_ = 0;
    bool crashHandlersInstalled_ = false;

    Fault fault_ = Fault::None;
    std::uint64_t faultParam_ = 0;

    std::thread drainThread_;
    std::atomic<bool> stopping_{false};
    std::atomic<bool> stopped_{false};

    /** Process-unique incarnation id (thread-local ABA guard). */
    const std::uint64_t epoch_;
};

} // namespace wmr::rt

#endif // WMR_RT_TRACER_HH
