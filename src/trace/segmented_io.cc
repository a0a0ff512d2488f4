#include "trace/segmented_io.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <numeric>
#include <unordered_map>

#include "common/crc32.hh"
#include "common/string_util.hh"
#include "fault/fault.hh"
#include "obs/obs.hh"
#include "trace/wire_codec.hh"

namespace wmr {

namespace {

const char kSegMagic[8] = {'W', 'M', 'R', 'S', 'E', 'G', '0', '1'};

constexpr std::uint8_t kSegData = 'D';
constexpr std::uint8_t kSegFin = 'F';

/** Largest single segment we accept (a frame claiming more is
 *  treated as damage, not as a 2 GiB allocation request). */
constexpr std::uint32_t kMaxSegmentBytes = 1u << 30;

constexpr std::uint64_t kMaxWords = 1ull << 28;

std::uint32_t
readLe32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

void
putLe32(std::uint8_t *p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
    p[2] = static_cast<std::uint8_t>(v >> 16);
    p[3] = static_cast<std::uint8_t>(v >> 24);
}

/** Signal-safe varint: encode @p v into @p out, return bytes used. */
std::size_t
putVarint(std::uint8_t *out, std::uint64_t v)
{
    std::size_t n = 0;
    while (v >= 0x80) {
        out[n++] = static_cast<std::uint8_t>(v) | 0x80;
        v >>= 7;
    }
    out[n++] = static_cast<std::uint8_t>(v);
    return n;
}

/** One event in FILE order, pairing still an ordinal reference
 *  (the public SegFileEvent — declared in the header so incremental
 *  consumers share the exact wire semantics). */
using FileEvent = SegFileEvent;

void
encodeWordList(wire::Encoder &enc, std::vector<Addr> words)
{
    std::sort(words.begin(), words.end());
    words.erase(std::unique(words.begin(), words.end()), words.end());
    enc.u64(words.size());
    Addr prev = 0;
    for (const Addr w : words) {
        enc.u64(w - prev);
        prev = w;
    }
}

std::vector<Addr>
decodeWordList(wire::Decoder &dec, const char *what)
{
    const std::uint64_t count = dec.u64();
    dec.checkCount(count, what);
    std::vector<Addr> words;
    words.reserve(count);
    std::uint64_t idx = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t delta = dec.u64();
        if (i > 0 && delta == 0)
            wire::parseFail("%s word ids not strictly increasing",
                            what);
        idx += delta;
        if (idx >= kMaxWords)
            wire::parseFail("%s word id %llu out of range", what,
                            static_cast<unsigned long long>(idx));
        words.push_back(static_cast<Addr>(idx));
    }
    return words;
}

void
encodeFileEvent(wire::Encoder &enc, const FileEvent &ev)
{
    enc.u64(ev.kind == EventKind::Sync ? 1 : 0);
    enc.u64(ev.proc);
    enc.u64(ev.firstOp);
    enc.u64(ev.lastOp);
    enc.u64(ev.opCount);
    if (ev.kind == EventKind::Sync) {
        wire::encodeMemOp(enc, ev.syncOp);
        enc.u64(ev.pairing);
    } else {
        encodeWordList(enc, ev.readWords);
        encodeWordList(enc, ev.writeWords);
    }
}

FileEvent
decodeFileEvent(wire::Decoder &dec)
{
    FileEvent ev;
    const std::uint64_t kind = dec.u64();
    if (kind > 1)
        wire::parseFail("bad event kind %llu",
                        static_cast<unsigned long long>(kind));
    ev.kind = kind ? EventKind::Sync : EventKind::Computation;
    const std::uint64_t rawProc = dec.u64();
    if (rawProc >= kNoProc)
        wire::parseFail("event processor %llu too large",
                        static_cast<unsigned long long>(rawProc));
    ev.proc = static_cast<ProcId>(rawProc);
    ev.firstOp = dec.u64();
    ev.lastOp = dec.u64();
    const std::uint64_t rawCount = dec.u64();
    if (rawCount > 0xffffffffull)
        wire::parseFail("event op count %llu too large",
                        static_cast<unsigned long long>(rawCount));
    ev.opCount = static_cast<std::uint32_t>(rawCount);
    if (ev.kind == EventKind::Sync) {
        ev.syncOp = wire::decodeMemOp(dec);
        ev.pairing = dec.u64();
    } else {
        ev.readWords = decodeWordList(dec, "read set");
        ev.writeWords = decodeWordList(dec, "write set");
    }
    return ev;
}

/**
 * Parse one CRC-verified segment payload.  DATA events/counters land
 * in @p seg; a FIN fills @p fin.  Throws wire::ParseFailure on any
 * problem (including a segment appearing after the FIN).  @return
 * whether the payload was the FIN.
 */
bool
parseSegmentPayload(const std::uint8_t *payload, std::uint32_t len,
                    bool finAlready, SegTailSegment &seg,
                    SegShape &fin)
{
    wire::Decoder dec(payload, len);
    std::uint8_t tag = 0;
    dec.raw(&tag, 1);
    if (finAlready)
        wire::parseFail("segment after FIN");
    bool isFin = false;
    if (tag == kSegData) {
        seg.opsSoFar = dec.u64();
        seg.droppedSoFar = dec.u64();
        const std::uint64_t nevents = dec.u64();
        dec.checkCount(nevents, "segment event");
        for (std::uint64_t i = 0; i < nevents; ++i)
            seg.events.push_back(decodeFileEvent(dec));
    } else if (tag == kSegFin) {
        const std::uint64_t procs = dec.u64();
        if (procs >= kNoProc)
            wire::parseFail("FIN processor count %llu too large",
                            static_cast<unsigned long long>(procs));
        const std::uint64_t words = dec.u64();
        if (words > kMaxWords)
            wire::parseFail("FIN universe %llu too large",
                            static_cast<unsigned long long>(words));
        fin.procs = static_cast<ProcId>(procs);
        fin.memWords = static_cast<Addr>(words);
        fin.firstStaleRead = dec.u64();
        fin.totalOps = dec.u64();
        fin.droppedRecords = dec.u64();
        isFin = true;
    } else {
        wire::parseFail("unknown segment tag 0x%02x", tag);
    }
    if (!dec.done())
        wire::parseFail("trailing bytes in segment");
    return isFin;
}

/**
 * Rebuild an ExecutionTrace from the recovered file-order events.
 * Throws wire::ParseFailure when strict and an event exceeds the FIN
 * shape or a pairing is unresolvable; otherwise counts lost pairings
 * into @p sv.
 */
ExecutionTrace
rebuildTrace(std::vector<FileEvent> &events, const SegmentScanner &scan,
             bool strict, SalvageInfo &sv)
{
    // Shape: the FIN is authoritative; without one (or when a
    // damaged file disagrees with it) widen to cover every event.
    const bool finSeen = scan.finSeen();
    const SegShape &fin = scan.fin();
    ProcId procs = finSeen ? fin.procs : 0;
    Addr words = finSeen ? fin.memWords : 0;
    for (const FileEvent &ev : events) {
        ProcId needProcs = static_cast<ProcId>(ev.proc + 1);
        Addr needWords = 0;
        if (ev.kind == EventKind::Sync) {
            needWords = ev.syncOp.addr + 1;
        } else {
            if (!ev.readWords.empty())
                needWords = ev.readWords.back() + 1;
            if (!ev.writeWords.empty())
                needWords = std::max(needWords,
                                     ev.writeWords.back() + 1);
        }
        if (strict && finSeen &&
            (needProcs > procs || needWords > words)) {
            wire::parseFail("segmented trace: event exceeds the FIN "
                            "shape (%u procs, %u words)",
                            static_cast<unsigned>(procs),
                            static_cast<unsigned>(words));
        }
        procs = std::max(procs, needProcs);
        words = std::max(words, needWords);
    }
    if (procs == 0)
        procs = 1;

    ExecutionTrace trace;
    trace.setShape(procs, words);
    trace.setFirstStaleRead(finSeen ? fin.firstStaleRead : kNoOp);
    trace.setTotalOps(finSeen ? fin.totalOps : sv.opsRecovered);

    // Events are registered in first-op order (matching the
    // simulator's buildTrace) while pairing ordinals refer to FILE
    // order, so map
    // one onto the other.  The spill order already respects both the
    // per-processor and the per-location sync orders, and first-op
    // order refines it deterministically.
    const std::size_t n = events.size();
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return events[a].firstOp < events[b].firstOp;
                     });
    std::vector<EventId> idByOrdinal(n, kNoEvent);

    for (std::size_t i = 0; i < n; ++i) {
        FileEvent &fe = events[order[i]];
        Event ev;
        ev.kind = fe.kind;
        ev.proc = fe.proc;
        ev.firstOp = fe.firstOp;
        ev.lastOp = fe.lastOp;
        ev.opCount = fe.opCount;
        if (fe.kind == EventKind::Sync) {
            ev.syncOp = fe.syncOp;
        } else {
            ev.readSet.resize(words);
            ev.writeSet.resize(words);
            for (const Addr w : fe.readWords)
                ev.readSet.set(w);
            for (const Addr w : fe.writeWords)
                ev.writeSet.set(w);
        }
        idByOrdinal[order[i]] = trace.addEvent(std::move(ev));
    }

    // Resolve release→acquire pairing ordinals to event ids.  A
    // pairing that points outside the recovered prefix loses its so1
    // edge; strict mode treats that as corruption.
    for (std::size_t ord = 0; ord < n; ++ord) {
        const FileEvent &fe = events[ord];
        if (fe.kind != EventKind::Sync || fe.pairing == 0)
            continue;
        const std::uint64_t target = fe.pairing - 1;
        const bool resolvable =
            target < n && events[target].kind == EventKind::Sync;
        if (!resolvable) {
            if (strict)
                wire::parseFail("segmented trace: event pairing "
                                "%llu unresolvable",
                                static_cast<unsigned long long>(
                                    fe.pairing));
            ++sv.unresolvedPairings;
            continue;
        }
        trace.mutableEvent(idByOrdinal[ord]).pairedRelease =
            idByOrdinal[target];
    }
    return trace;
}

/** The whole-buffer reader: scan @p bytes in place to the end, then
 *  build the trace. */
SegTraceReadResult
readSegmented(const std::vector<std::uint8_t> &bytes, bool strict)
{
    obs::Span span(strict ? "trace.read_segmented"
                          : "trace.salvage");
    obs::counter(strict ? "trace.segmented_reads"
                        : "trace.salvage_reads")
        .inc();
    SegTraceReadResult res;
    res.segmented = looksSegmented(bytes.data(), bytes.size());

    SegmentScanner scan;
    std::vector<FileEvent> events;
    SegTailSegment seg;
    for (;;) {
        const std::size_t at = scan.offset();
        const TailPollStatus st =
            scan.next(bytes.data() + at, bytes.size() - at, seg);
        if (st == TailPollStatus::Progress)
            std::move(seg.events.begin(), seg.events.end(),
                      std::back_inserter(events));
        else if (st != TailPollStatus::Fin)
            break;
    }
    const bool accepted = scan.finish(strict, bytes.size());
    res.salvage = scan.salvage();
    if (!accepted) {
        res.status = TraceIoStatus::FormatError;
        res.error = scan.error();
        return res;
    }
    try {
        res.trace = rebuildTrace(events, scan, strict, res.salvage);
    } catch (const wire::ParseFailure &pf) {
        res.status = TraceIoStatus::FormatError;
        res.error = pf.message;
        return res;
    }
    if (res.salvage.salvaged && span.recording())
        span.annotate(res.salvage.summary());
    return res;
}

} // namespace

bool
looksSegmented(const std::uint8_t *data, std::size_t n)
{
    return n >= sizeof(kSegMagic) &&
           std::memcmp(data, kSegMagic, sizeof(kSegMagic)) == 0;
}

// --- SegmentScanner ----------------------------------------------

TailPollStatus
SegmentScanner::damage(std::uint64_t at, std::string why)
{
    damaged_ = true;
    damageAt_ = at;
    note_ = std::move(why);
    return TailPollStatus::Damaged;
}

TailPollStatus
SegmentScanner::next(const std::uint8_t *data, std::size_t n,
                     SegTailSegment &seg)
{
    if (damaged_)
        return TailPollStatus::Damaged;
    if (!magicOk_) {
        if (n < sizeof(kSegMagic))
            return TailPollStatus::Waiting;
        if (!looksSegmented(data, n))
            return damage(0, "not a segmented trace (bad magic)");
        magicOk_ = true;
        offset_ = sizeof(kSegMagic);
        data += sizeof(kSegMagic);
        n -= sizeof(kSegMagic);
    }
    if (n < 4)
        return TailPollStatus::Waiting;
    const std::uint32_t len = readLe32(data);
    if (len == 0 || len > kMaxSegmentBytes) {
        // No append can make this frame valid.
        return damage(offset_, "truncated or oversized segment");
    }
    if (len + 8ull > n)
        return TailPollStatus::Waiting;
    const std::uint8_t *payload = data + 4;
    if (crc32(payload, len) != readLe32(payload + len)) {
        // The frame is fully present yet fails its checksum: a
        // torn/corrupt write, damaged no matter what follows.
        return damage(offset_, "segment checksum mismatch");
    }

    // The frame verified; parse the payload.  A payload that fails
    // to decode still ends recovery here — the CRC says the bytes
    // are what the writer wrote, so a parse failure means a
    // writer/reader version skew we cannot safely guess past.
    seg.events.clear();
    bool isFin = false;
    try {
        isFin = parseSegmentPayload(payload, len, finSeen_, seg, fin_);
    } catch (const wire::ParseFailure &pf) {
        return damage(offset_, pf.message);
    }
    ++segments_;
    offset_ += 8ull + len;
    if (isFin) {
        finSeen_ = true;
        return TailPollStatus::Fin;
    }
    droppedSoFar_ = seg.droppedSoFar;
    events_ += seg.events.size();
    for (const FileEvent &ev : seg.events)
        ops_ += ev.opCount;
    return TailPollStatus::Progress;
}

bool
SegmentScanner::finish(bool strict, std::uint64_t fileBytes)
{
    if (!magicOk_) {
        // Both strict and salvage reject such a file outright.
        error_ = damaged_ ? note_ : "not a segmented trace (bad magic)";
        salvage_.salvaged = true;
        salvage_.note = error_;
        return false;
    }

    // An incomplete frame at final EOF is damage after all.
    bool anyDamage = damaged_;
    std::uint64_t damageAt = damageAt_;
    std::string note = note_;
    if (!damaged_ && fileBytes > offset_) {
        anyDamage = true;
        damageAt = offset_;
        note = fileBytes - offset_ < 4 ? "truncated segment length"
                                       : "truncated or oversized segment";
    }

    SalvageInfo &sv = salvage_;
    sv.finSeen = finSeen_;
    sv.segmentsRecovered = segments_;
    sv.segmentsDropped = anyDamage && fileBytes > damageAt ? 1 : 0;
    sv.bytesDropped = anyDamage ? fileBytes - damageAt : 0;
    sv.eventsRecovered = events_;
    sv.opsRecovered = ops_;
    sv.droppedDataRecords =
        finSeen_ ? fin_.droppedRecords : droppedSoFar_;
    sv.note = anyDamage ? note : "";
    sv.salvaged = !finSeen_ || sv.segmentsDropped > 0 ||
                  sv.bytesDropped > 0;
    if (sv.salvaged && sv.note.empty())
        sv.note = "no FIN segment (recording did not shut down "
                  "cleanly)";

    if (strict && anyDamage) {
        error_ = strformat("segmented trace: %s (offset %llu); a "
                           "partial recording can be recovered with "
                           "salvage",
                           note.c_str(),
                           static_cast<unsigned long long>(damageAt));
        return false;
    }
    if (strict && !finSeen_) {
        error_ = "segmented trace: missing FIN segment — the "
                 "recording did not shut down cleanly; a partial "
                 "recording can be recovered with salvage";
        return false;
    }
    if (!strict && sv.salvaged && events_ == 0) {
        // Nothing recoverable: refuse, so the file lands in a
        // quarantine instead of passing as an empty analysis.
        error_ = "salvage recovered no events (" + sv.summary() + ")";
        return false;
    }
    return true;
}

SegTraceReadResult
tryReadSegmentedTrace(const std::vector<std::uint8_t> &bytes)
{
    return readSegmented(bytes, /*strict=*/true);
}

SegTraceReadResult
tryReadSegmentedTraceFile(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    SegTraceReadResult res;
    res.status = readTraceBytes(path, bytes, res.error);
    if (!res.ok())
        return res;
    return readSegmented(bytes, /*strict=*/true);
}

SegTraceReadResult
trySalvageTrace(const std::vector<std::uint8_t> &bytes)
{
    return readSegmented(bytes, /*strict=*/false);
}

// --- SegmentSpillWriter -----------------------------------------

SegmentSpillWriter::~SegmentSpillWriter()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
SegmentSpillWriter::fail(const std::string &why)
{
    if (error_.empty())
        error_ = why + ": " + std::strerror(errno);
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    return false;
}

bool
SegmentSpillWriter::open(const std::string &path)
{
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd_ < 0)
        return fail("cannot open '" + path + "'");
    const std::uint8_t *magic =
        reinterpret_cast<const std::uint8_t *>(kSegMagic);
    std::size_t done = 0;
    while (done < sizeof(kSegMagic)) {
        const ssize_t w =
            ::write(fd_, magic + done, sizeof(kSegMagic) - done);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return fail("cannot write magic");
        }
        done += static_cast<std::size_t>(w);
    }
    bytes_ = sizeof(kSegMagic);
    return true;
}

void
SegmentSpillWriter::addEvent(const SegEvent &ev)
{
    FileEvent fe;
    fe.kind = ev.kind;
    fe.proc = ev.proc;
    fe.firstOp = ev.firstOp;
    fe.lastOp = ev.lastOp;
    fe.opCount = ev.opCount;
    fe.syncOp = ev.syncOp;
    fe.readWords = ev.readWords;
    fe.writeWords = ev.writeWords;
    if (ev.kind == EventKind::Sync) {
        if (ev.pairedToken != 0) {
            const auto it = tokenMap_.find(ev.pairedToken);
            if (it != tokenMap_.end())
                fe.pairing = it->second + 1;
        }
        if (ev.releaseToken != 0)
            tokenMap_[ev.releaseToken] = nextOrdinal_;
    }

    wire::Encoder enc;
    encodeFileEvent(enc, fe);
    pending_.insert(pending_.end(), enc.data(),
                    enc.data() + enc.size());
    ++pendingEvents_;
    ++nextOrdinal_;
}

std::size_t
SegmentSpillWriter::pendingBytes() const
{
    return pending_.size();
}

bool
SegmentSpillWriter::writeFrame(const std::uint8_t *hdr,
                               std::size_t hdrLen,
                               const std::uint8_t *body,
                               std::size_t bodyLen, bool fsyncAfter,
                               bool faults)
{
    if (fd_ < 0)
        return false;

    std::uint32_t crc = crc32Init();
    crc = crc32Update(crc, hdr, hdrLen);
    crc = crc32Update(crc, body, bodyLen);
    crc = crc32Final(crc);

    std::uint8_t lenBuf[4];
    std::uint8_t crcBuf[4];
    putLe32(lenBuf, static_cast<std::uint32_t>(hdrLen + bodyLen));
    putLe32(crcBuf, crc);

    // Fault injection on the write boundary.  The ENOSPC site fails
    // the whole frame (the recorder's drain path must degrade, not
    // crash); the EINTR site storms the loop with param spurious
    // interrupts (default 3) so the retry really runs; the short
    // site caps every write at one byte, forcing the partial-
    // transfer accounting through its paces.
    std::uint64_t p = 0;
    if (faults && fault::at("trace.seg.write.enospc", &p)) {
        errno = ENOSPC;
        return fail("segment write failed");
    }
    std::uint64_t stormLeft = 0;
    if (faults && fault::at("trace.seg.write.eintr", &p))
        stormLeft = p != 0 ? p : 3;
    const bool shortWrites =
        faults && fault::at("trace.seg.write.short");

    const std::uint8_t *parts[4] = {lenBuf, hdr, body, crcBuf};
    const std::size_t partLens[4] = {4, hdrLen, bodyLen, 4};
    for (int i = 0; i < 4; ++i) {
        std::size_t done = 0;
        while (done < partLens[i]) {
            ssize_t w;
            if (stormLeft > 0) {
                --stormLeft;
                errno = EINTR;
                w = -1;
            } else {
                w = ::write(fd_, parts[i] + done,
                            shortWrites ? 1 : partLens[i] - done);
            }
            if (w < 0) {
                if (errno == EINTR)
                    continue;
                return fail("segment write failed");
            }
            done += static_cast<std::size_t>(w);
        }
    }
    bytes_ += 8 + hdrLen + bodyLen;
    ++segments_;
    if (fsyncAfter)
        ::fsync(fd_);
    return true;
}

bool
SegmentSpillWriter::sealSegment()
{
    if (pending_.empty())
        return fd_ >= 0;
    // Header on the stack: tag + three varints (signal-safe; the
    // crash path shares this framing).
    std::uint8_t hdr[1 + 3 * 10];
    std::size_t h = 0;
    hdr[h++] = kSegData;
    h += putVarint(hdr + h, ops_);
    h += putVarint(hdr + h, dropped_);
    h += putVarint(hdr + h, pendingEvents_);
    if (!writeFrame(hdr, h, pending_.data(), pending_.size(),
                    /*fsyncAfter=*/false))
        return false;
    pending_.clear();
    pendingEvents_ = 0;
    return true;
}

bool
SegmentSpillWriter::crashSeal()
{
    // Fatal-signal path: frame whatever payload bytes exist using
    // only stack memory and raw syscalls, then fsync.  If the drain
    // thread was concurrently appending, the frame may be torn — the
    // CRC will reject exactly that one segment at salvage time.
    if (fd_ < 0)
        return false;
    if (!pending_.empty()) {
        std::uint8_t hdr[1 + 3 * 10];
        std::size_t h = 0;
        hdr[h++] = kSegData;
        h += putVarint(hdr + h, ops_);
        h += putVarint(hdr + h, dropped_);
        h += putVarint(hdr + h, pendingEvents_);
        if (!writeFrame(hdr, h, pending_.data(), pending_.size(),
                        /*fsyncAfter=*/false, /*faults=*/false))
            return false;
        pendingEvents_ = 0;
    }
    ::fsync(fd_);
    return true;
}

void
SegmentSpillWriter::writeTornFrame()
{
    if (fd_ < 0)
        return;
    // A frame header claiming 4 KiB of payload, followed by only a
    // few garbage bytes: exactly what a crash mid-write leaves.
    std::uint8_t buf[12];
    putLe32(buf, 4096);
    std::memset(buf + 4, 0x5a, 8);
    std::size_t done = 0;
    while (done < sizeof(buf)) {
        const ssize_t w = ::write(fd_, buf + done,
                                  sizeof(buf) - done);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        done += static_cast<std::size_t>(w);
    }
    ::fsync(fd_);
}

bool
SegmentSpillWriter::finish(const SegShape &shape)
{
    if (!sealSegment())
        return false;
    std::uint8_t hdr[1 + 5 * 10];
    std::size_t h = 0;
    hdr[h++] = kSegFin;
    h += putVarint(hdr + h, shape.procs);
    h += putVarint(hdr + h, shape.memWords);
    h += putVarint(hdr + h, shape.firstStaleRead);
    h += putVarint(hdr + h, shape.totalOps);
    h += putVarint(hdr + h, shape.droppedRecords);
    if (!writeFrame(hdr, h, nullptr, 0, /*fsyncAfter=*/true))
        return false;
    ::close(fd_);
    fd_ = -1;
    return true;
}

// --- Whole-trace serialization (tests and tooling) ---------------

std::vector<std::uint8_t>
serializeSegmentedTrace(const ExecutionTrace &trace,
                        std::size_t eventsPerSegment)
{
    if (eventsPerSegment == 0)
        eventsPerSegment = 64;

    std::vector<std::uint8_t> out(
        reinterpret_cast<const std::uint8_t *>(kSegMagic),
        reinterpret_cast<const std::uint8_t *>(kSegMagic) +
            sizeof(kSegMagic));

    const auto appendFrame = [&out](const wire::Encoder &payload) {
        std::uint8_t buf[4];
        putLe32(buf, static_cast<std::uint32_t>(payload.size()));
        out.insert(out.end(), buf, buf + 4);
        out.insert(out.end(), payload.data(),
                   payload.data() + payload.size());
        putLe32(buf, crc32(payload.data(), payload.size()));
        out.insert(out.end(), buf, buf + 4);
    };

    // File order = event id order, so the pairing ordinal of event e
    // is exactly its id.
    const auto &events = trace.events();
    std::uint64_t opsSoFar = 0;
    for (std::size_t base = 0; base < events.size();
         base += eventsPerSegment) {
        const std::size_t count =
            std::min(eventsPerSegment, events.size() - base);
        wire::Encoder enc;
        const std::uint8_t tag = kSegData;
        enc.raw(&tag, 1);
        enc.u64(opsSoFar);
        enc.u64(0); // droppedSoFar: complete traces lose nothing
        enc.u64(count);
        for (std::size_t i = 0; i < count; ++i) {
            const Event &ev = events[base + i];
            FileEvent fe;
            fe.kind = ev.kind;
            fe.proc = ev.proc;
            fe.firstOp = ev.firstOp;
            fe.lastOp = ev.lastOp;
            fe.opCount = ev.opCount;
            if (ev.kind == EventKind::Sync) {
                fe.syncOp = ev.syncOp;
                fe.pairing = ev.pairedRelease == kNoEvent
                                 ? 0
                                 : ev.pairedRelease + 1ull;
            } else {
                ev.readSet.forEach([&](std::size_t w) {
                    fe.readWords.push_back(static_cast<Addr>(w));
                });
                ev.writeSet.forEach([&](std::size_t w) {
                    fe.writeWords.push_back(static_cast<Addr>(w));
                });
            }
            encodeFileEvent(enc, fe);
            opsSoFar += ev.opCount;
        }
        appendFrame(enc);
    }

    wire::Encoder fin;
    const std::uint8_t tag = kSegFin;
    fin.raw(&tag, 1);
    fin.u64(trace.numProcs());
    fin.u64(trace.memWords());
    fin.u64(trace.firstStaleRead());
    fin.u64(trace.totalOps());
    fin.u64(0); // droppedRecords
    appendFrame(fin);
    return out;
}

std::size_t
writeSegmentedTraceFile(const ExecutionTrace &trace,
                        const std::string &path,
                        std::size_t eventsPerSegment)
{
    const auto bytes = serializeSegmentedTrace(trace,
                                               eventsPerSegment);
    std::ofstream outFile(path, std::ios::binary);
    if (!outFile ||
        !outFile.write(reinterpret_cast<const char *>(bytes.data()),
                       static_cast<std::streamsize>(bytes.size())))
        return 0;
    return bytes.size();
}

// --- SegmentTailReader -------------------------------------------

SegmentTailReader::~SegmentTailReader()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
SegmentTailReader::open(const std::string &path)
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = ::open(path.c_str(), O_RDONLY);
    if (fd_ < 0) {
        error_ = "cannot open '" + path + "': " +
                 std::strerror(errno);
        return false;
    }
    error_.clear();
    return true;
}

TailPollStatus
SegmentTailReader::decodeBuffered(std::vector<SegTailSegment> &segs)
{
    const std::uint64_t base = scan_.offset();
    bool progressed = false;
    TailPollStatus st;
    SegTailSegment seg;
    for (;;) {
        const std::size_t at = scan_.offset() - base;
        st = scan_.next(buf_.data() + at, buf_.size() - at, seg);
        if (st == TailPollStatus::Progress) {
            segs.push_back(std::move(seg));
            seg = SegTailSegment();
        } else if (st != TailPollStatus::Fin) {
            break;
        }
        progressed = true;
    }
    // Drop consumed bytes; keep the unconsumed tail buffered.
    buf_.erase(buf_.begin(),
               buf_.begin() +
                   static_cast<std::ptrdiff_t>(scan_.offset() - base));
    if (st == TailPollStatus::Damaged)
        return st;
    return progressed ? TailPollStatus::Progress
                      : TailPollStatus::Waiting;
}

TailPollStatus
SegmentTailReader::poll(std::vector<SegTailSegment> &segs)
{
    if (fd_ < 0)
        return TailPollStatus::Damaged;
    eof_ = false;

    // Fault injection on the tail: a stalled tail reports Waiting
    // without touching the file (the consumer's liveness handling —
    // keep polling, then finalize — must absorb it), and the damage
    // site corrupts one byte of freshly appended data, modelling a
    // segment sealed to disk and then rotted under the reader.
    if (fault::at("stream.tail.stall"))
        return TailPollStatus::Waiting;
    bool damageAppend = fault::at("stream.tail.damage");

    TailPollStatus st = decodeBuffered(segs);
    while (st == TailPollStatus::Waiting) {
        // Nothing decodable is buffered: read up to one more chunk.
        // On a regular file read() returns 0 at the current EOF; a
        // later poll() sees appends.
        const std::size_t have = buf_.size();
        buf_.resize(have + kChunkBytes);
        ssize_t r;
        do {
            r = ::read(fd_, buf_.data() + have, kChunkBytes);
        } while (r < 0 && errno == EINTR);
        buf_.resize(have + static_cast<std::size_t>(r > 0 ? r : 0));
        if (r < 0)
            return scan_.damage(seen_, std::string("read failed: ") +
                                           std::strerror(errno));
        eof_ = r == 0;
        if (eof_)
            return scan_.finSeen() && buf_.empty()
                       ? TailPollStatus::Fin
                       : TailPollStatus::Waiting;
        seen_ += static_cast<std::uint64_t>(r);
        if (damageAppend) {
            buf_.back() ^= 0x01;
            damageAppend = false;
        }
        st = decodeBuffered(segs);
    }
    return st;
}

bool
SegmentTailReader::finalize(bool strict)
{
    // Judge the whole file: bytes past a damaged frame were never
    // read, yet they are dropped all the same.
    std::uint64_t size = seen_;
    if (fd_ >= 0) {
        const off_t end = ::lseek(fd_, 0, SEEK_END);
        if (end > 0)
            size = std::max(size, static_cast<std::uint64_t>(end));
    }
    return scan_.finish(strict, size);
}

} // namespace wmr
