/**
 * @file
 * The segmented, checksummed trace container ("WMRSEG01") — the one
 * trace format wmrace writes.
 *
 * The container is APPEND-ONLY: the recorder spills sealed events
 * incrementally as framed segments, each protected by a length
 * header and a CRC-32 footer, so whatever prefix reached the disk
 * before a crash is recoverable:
 *
 *   file     := "WMRSEG01" segment*
 *   segment  := len:u32le payload crc:u32le      crc = CRC32(payload)
 *   payload  := 'D' opsSoFar droppedSoFar nevents event*
 *             | 'F' procs memWords firstStaleRead totalOps
 *                   droppedRecords
 *   event    := kind proc firstOp lastOp opCount
 *               sync(kind=1): memop pairing     (pairing = 1 + file
 *                 ordinal of the paired release event, 0 = unpaired)
 *               comp(kind=0): nread wordDelta* nwrite wordDelta*
 *                 (strictly increasing word ids, delta-coded)
 *
 * A final 'F' (FIN) segment marks a clean shutdown and carries the
 * authoritative shape plus the Drop-policy loss count.
 *
 * One frame walker, SegmentScanner, reads every WMRSEG01 byte: the
 * whole-buffer readers below walk the caller's bytes in place, and
 * SegmentTailReader feeds it a file in bounded chunks.  Consumers
 * normally go through the loader in trace_io.hh, which picks the
 * strict or salvage reader by the magic and the caller's mode.
 */

#ifndef WMR_TRACE_SEGMENTED_IO_HH
#define WMR_TRACE_SEGMENTED_IO_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/trace_io.hh"

namespace wmr {

/** @return whether @p n bytes at @p data start with the segmented
 *  container magic. */
bool looksSegmented(const std::uint8_t *data, std::size_t n);

/** A WMRSEG01 read has the loader's result type. */
using SegTraceReadResult = TraceReadResult;

/**
 * STRICT read of a complete segmented trace: all frames verify, FIN
 * present.  Damage or a missing FIN yields FormatError whose message
 * points at the salvage reader.
 */
SegTraceReadResult
tryReadSegmentedTrace(const std::vector<std::uint8_t> &bytes);

/** The strict read of a file (the loader's I/O step first); any
 *  other container is a FormatError. */
SegTraceReadResult tryReadSegmentedTraceFile(const std::string &path);

/**
 * TOLERANT read: recover the longest valid checksummed segment
 * prefix.  An unrecognizable header (not even the magic survives)
 * and a damaged file from which no event survives both fail;
 * salvage.note says why recovery stopped.
 */
SegTraceReadResult
trySalvageTrace(const std::vector<std::uint8_t> &bytes);

/**
 * One decoded event in FILE order, exactly as framed on the wire:
 * the pairing field is the ordinal reference (1 + file ordinal of the
 * paired release, 0 = unpaired) — consumers that process segments
 * incrementally (the streaming analyzer) resolve it themselves.
 */
struct SegFileEvent
{
    EventKind kind = EventKind::Computation;
    ProcId proc = 0;
    OpId firstOp = kNoOp;
    OpId lastOp = kNoOp;
    std::uint32_t opCount = 0;
    MemOp syncOp;
    std::uint64_t pairing = 0; // 1 + file ordinal, 0 = unpaired
    std::vector<Addr> readWords;
    std::vector<Addr> writeWords;
};

/** Shape written into the FIN segment. */
struct SegShape
{
    ProcId procs = 0;
    Addr memWords = 0;
    OpId firstStaleRead = kNoOp;
    std::uint64_t totalOps = 0;

    /** Drop-policy data-record losses of the whole recording. */
    std::uint64_t droppedRecords = 0;
};

/** One decoded DATA segment, in file order. */
struct SegTailSegment
{
    /** Running counters the writer embeds in every data segment. */
    std::uint64_t opsSoFar = 0;
    std::uint64_t droppedSoFar = 0;

    std::vector<SegFileEvent> events;
};

/** Outcome of one frame step or one SegmentTailReader::poll(). */
enum class TailPollStatus : std::uint8_t
{
    /** Decoded at least one new segment. */
    Progress,

    /** No complete new frame yet — the tail is mid-frame or empty.
     *  On a LIVE file this means "more may come", NOT damage: keep
     *  polling (or finalize() once the writer is known dead). */
    Waiting,

    /** The FIN segment was decoded: the recording is complete. */
    Fin,

    /** Unrecoverable damage (bad magic, zero/oversized length,
     *  checksum mismatch on a complete frame, payload that fails to
     *  decode, data after FIN).  No amount of further appending can
     *  heal it; recovery stops at the last good frame. */
    Damaged,
};

/**
 * The one WMRSEG01 frame walker.  Fed the file's bytes in order, it
 * checks every frame the same way — length, then CRC, then payload
 * (a frame after the FIN is payload damage) — and keeps the damage
 * note, the salvage accounting and the strict error text, so every
 * reader of the container reaches the same verdict on the same
 * bytes.
 */
class SegmentScanner
{
  public:
    /**
     * Decode the frame at the head of [@p data, @p data + @p n),
     * the bytes at file offset offset() (the magic first).
     * Progress: a DATA frame, decoded into @p seg.  Fin: the FIN.
     * Both advance offset() past the frame.  Waiting: the frame is
     * incomplete.  Damaged: the frame can never verify.
     */
    TailPollStatus next(const std::uint8_t *data, std::size_t n,
                        SegTailSegment &seg);

    /**
     * Close the scan of a @p fileBytes-long file.  Strict mode fails
     * on any damage, an incomplete tail or a missing FIN; salvage
     * mode fails only when no magic or no event survived.  @return
     * whether the stream is acceptable; error() says why not.
     */
    bool finish(bool strict, std::uint64_t fileBytes);

    /** File offset after the last verified frame (resume point). */
    std::uint64_t offset() const { return offset_; }

    bool finSeen() const { return finSeen_; }

    /** FIN shape (valid when finSeen()). */
    const SegShape &fin() const { return fin_; }

    /** Recovery accounting (valid after finish(); unresolvedPairings
     *  is left 0 — the event consumer owns it). */
    const SalvageInfo &salvage() const { return salvage_; }

    const std::string &error() const { return error_; }

    /** Record damage found outside the frame checks (a failed
     *  read) at file offset @p at.  @return Damaged. */
    TailPollStatus damage(std::uint64_t at, std::string why);

  private:
    std::uint64_t offset_ = 0;
    bool magicOk_ = false;
    bool finSeen_ = false;
    SegShape fin_;
    std::uint64_t segments_ = 0;
    std::uint64_t events_ = 0;
    std::uint64_t ops_ = 0;
    std::uint64_t droppedSoFar_ = 0;
    bool damaged_ = false;
    std::uint64_t damageAt_ = 0;
    std::string note_;
    SalvageInfo salvage_;
    std::string error_;
};

/**
 * Tail-follow segment reader: the SegmentScanner fed from a file
 * descriptor AS THE FILE IS BEING APPENDED, resuming after the last
 * verified frame.
 *
 * A snapshot reader must treat an incomplete tail as a torn write;
 * the tail reader instead distinguishes the two by liveness: a
 * mid-frame tail is Waiting while the writer may still append, and
 * becomes damage only when finalize() declares the stream over.
 * Damage that appending can never heal — a checksum mismatch on a
 * fully present frame, an impossible length — is reported as Damaged
 * immediately, even live.
 *
 * Memory is bounded on a finished file too: a poll reads at most
 * kChunkBytes and returns once it has decoded a frame, so the
 * caller holds one chunk plus one frame at a time.  A frame larger
 * than a chunk is read to its end within the same poll.
 *
 * Usage:
 *   SegmentTailReader tail;
 *   tail.open(path);                 // retry while the file appears
 *   while (...) {
 *       switch (tail.poll(segs)) { ... consume segs ... }
 *   }
 *   tail.finalize(strict);           // writer exited / EOF is final
 *
 * After finalize(), salvage() and error() are exactly what the
 * whole-buffer reader of the final file reports (except
 * unresolvedPairings, which only the event consumer can count).
 */
class SegmentTailReader
{
  public:
    /** Most bytes one poll() reads before it decodes. */
    static constexpr std::size_t kChunkBytes = 1u << 20;

    SegmentTailReader() = default;
    ~SegmentTailReader();

    SegmentTailReader(const SegmentTailReader &) = delete;
    SegmentTailReader &operator=(const SegmentTailReader &) = delete;

    /** Open @p path for following. Fails if it cannot be opened. */
    bool open(const std::string &path);

    bool isOpen() const { return fd_ >= 0; }

    /**
     * Read newly appended bytes, at most a chunk unless one frame
     * needs more, and decode every complete frame, appending DATA
     * segments to @p segs.  @return Progress when a frame was
     * consumed, Fin once the FIN was decoded and the file ends
     * there, otherwise Waiting or Damaged.
     */
    TailPollStatus poll(std::vector<SegTailSegment> &segs);

    /**
     * Declare that no more data will arrive (writer exited, or the
     * file was complete on disk to begin with) and judge the stream
     * as SegmentScanner::finish() does.
     */
    bool finalize(bool strict);

    const SalvageInfo &salvage() const { return scan_.salvage(); }

    bool finSeen() const { return scan_.finSeen(); }

    /** FIN shape (valid when finSeen()). */
    const SegShape &fin() const { return scan_.fin(); }

    /** File offset after the last verified frame (resume point). */
    std::uint64_t offset() const { return scan_.offset(); }

    /** Total file bytes read so far. */
    std::uint64_t bytesSeen() const { return seen_; }

    /** The last poll() read up to the current end of the file.  A
     *  stalled poll reads nothing and leaves this false, so a
     *  consumer whose writer is gone keeps polling until it holds. */
    bool atEof() const { return eof_; }

    const std::string &
    error() const
    {
        return error_.empty() ? scan_.error() : error_;
    }

  private:
    /** Decode every complete buffered frame; @return Damaged, or
     *  whether any frame was consumed (Progress) or not (Waiting). */
    TailPollStatus decodeBuffered(std::vector<SegTailSegment> &segs);

    int fd_ = -1;
    SegmentScanner scan_;
    std::uint64_t seen_ = 0;
    bool eof_ = false;

    /** Unconsumed bytes [scan_.offset(), seen_). */
    std::vector<std::uint8_t> buf_;

    std::string error_;
};

/**
 * One event as the segmented container carries it — READ/WRITE word
 * lists, which need no address universe, so events can be encoded
 * before the universe is known (the whole point of spilling).
 */
struct SegEvent
{
    EventKind kind = EventKind::Computation;
    ProcId proc = 0;
    OpId firstOp = kNoOp;
    OpId lastOp = kNoOp;
    std::uint32_t opCount = 0;

    /** Computation payload: touched word ids (need not be sorted or
     *  unique; the encoder canonicalizes). */
    std::vector<Addr> readWords;
    std::vector<Addr> writeWords;

    /** Sync payload. */
    MemOp syncOp;

    /** Sync release: producer-chosen nonzero token later acquires
     *  reference; sync acquire: token of the observed release (0 =
     *  unpaired).  Tokens never reach the wire — the writer resolves
     *  them to file ordinals.  Reusing a token rebinds it to the
     *  newest release carrying it, so a bounded-memory producer can
     *  use one token per sync location instead of one per release. */
    std::uint64_t releaseToken = 0;
    std::uint64_t pairedToken = 0;
};

/**
 * Incremental segment writer over a raw file descriptor.
 *
 * Usage (the recorder's drain thread): open(), then addEvent() as
 * events seal; sealSegment() when pendingBytes() crosses the spill
 * threshold or the drain goes idle; finish() at clean shutdown.
 *
 * crashSeal() is the fatal-signal path: it frames and writes the
 * pending payload and fsyncs using only async-signal-safe syscalls
 * plus arithmetic on memory that is already allocated.  If the drain
 * thread was mid-append when the signal hit, the frame may be torn —
 * the CRC then fails and salvage drops exactly that final segment,
 * which is the contract: best effort, never a lie.
 */
class SegmentSpillWriter
{
  public:
    SegmentSpillWriter() = default;
    ~SegmentSpillWriter();

    SegmentSpillWriter(const SegmentSpillWriter &) = delete;
    SegmentSpillWriter &operator=(const SegmentSpillWriter &) = delete;

    /** Create/truncate @p path and write the magic. */
    bool open(const std::string &path);

    bool isOpen() const { return fd_ >= 0; }
    const std::string &lastError() const { return error_; }

    /** Running counters embedded in every data segment, so salvage
     *  can report losses up to the recovered prefix. */
    void
    setCounters(std::uint64_t opsEmitted, std::uint64_t dropped)
    {
        ops_ = opsEmitted;
        dropped_ = dropped;
    }

    /** Append one sealed event to the pending segment payload. */
    void addEvent(const SegEvent &ev);

    std::size_t pendingBytes() const;
    std::uint64_t pendingEvents() const { return pendingEvents_; }

    /** Frame and write the pending payload (no-op when empty). */
    bool sealSegment();

    /** Seal the remainder, write the FIN segment, fsync, close. */
    bool finish(const SegShape &shape);

    /** Fatal-signal flush: seal pending + fsync, nothing else. */
    bool crashSeal();

    /**
     * Fault-injection hook (WMR_RT_FAULT=crash-mid-segment): append
     * a deliberately truncated frame — a length header promising more
     * payload than follows — so tests can prove salvage drops exactly
     * the damaged tail.
     */
    void writeTornFrame();

    std::uint64_t segmentsWritten() const { return segments_; }
    std::uint64_t bytesWritten() const { return bytes_; }

  private:
    /** @p faults=false is the crash-handler path: fault::at() takes
     *  locks and must never run in async-signal context. */
    bool writeFrame(const std::uint8_t *hdr, std::size_t hdrLen,
                    const std::uint8_t *body, std::size_t bodyLen,
                    bool fsyncAfter, bool faults = true);
    bool fail(const std::string &why);

    int fd_ = -1;
    std::string error_;

    // Pending DATA payload: the event bytes accumulate here; the
    // 'D'+counters+count header is prepended at seal time.
    std::vector<std::uint8_t> pending_;
    std::uint64_t pendingEvents_ = 0;

    std::uint64_t ops_ = 0;
    std::uint64_t dropped_ = 0;

    // Token -> file ordinal of the newest release carrying it
    // (pairing resolution, latest wins).
    std::unordered_map<std::uint64_t, std::uint64_t> tokenMap_;
    std::uint64_t nextOrdinal_ = 0;

    std::uint64_t segments_ = 0;
    std::uint64_t bytes_ = 0;
};

/**
 * Serialize a whole ExecutionTrace into the segmented container,
 * @p eventsPerSegment events per frame — the test/tooling producer
 * (the recorder spills through SegmentSpillWriter instead).
 */
std::vector<std::uint8_t>
serializeSegmentedTrace(const ExecutionTrace &trace,
                        std::size_t eventsPerSegment = 64);

/** Write @p trace to @p path segmented. @return bytes written. */
std::size_t
writeSegmentedTraceFile(const ExecutionTrace &trace,
                        const std::string &path,
                        std::size_t eventsPerSegment = 64);

} // namespace wmr

#endif // WMR_TRACE_SEGMENTED_IO_HH
