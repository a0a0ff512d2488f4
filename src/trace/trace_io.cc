#include "trace/trace_io.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <new>

#include "fault/fault.hh"
#include "obs/obs.hh"
#include "trace/segmented_io.hh"
#include "trace/wire_codec.hh"

namespace wmr {

namespace {

using wire::Decoder;
using wire::ParseFailure;
using wire::parseFail;

constexpr char kLegacyMagic[8] = {'W', 'M', 'R', 'T',
                                  'R', 'C', '0', '1'};
constexpr char kFullOpMagic[8] = {'W', 'M', 'R', 'F',
                                  'O', 'P', '0', '1'};

/** Render the 8 magic bytes with non-printable bytes escaped, so an
 *  "unrecognized magic" error is copy-pasteable and unambiguous. */
std::string
printableMagic(const char magic[8])
{
    std::string out;
    for (std::size_t i = 0; i < 8; ++i) {
        const auto c = static_cast<unsigned char>(magic[i]);
        if (c >= 0x20 && c < 0x7f && c != '"' && c != '\\') {
            out += static_cast<char>(c);
        } else {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\x%02x", c);
            out += buf;
        }
    }
    return out;
}

/** The legacy WMRTRC01 decoder; throws ParseFailure when malformed. */
ExecutionTrace
decodeLegacyOrThrow(const std::vector<std::uint8_t> &bytes)
{
    Decoder dec(bytes);
    if (bytes.size() < sizeof(kLegacyMagic)) {
        parseFail("trace file: %zu byte(s) is shorter than any "
                  "wmrace container header",
                  bytes.size());
    }
    char magic[sizeof(kLegacyMagic)];
    dec.raw(magic, sizeof(magic));
    if (std::memcmp(magic, kLegacyMagic, sizeof(kLegacyMagic)) != 0) {
        // Name the format we DID recognize, or print the magic we
        // didn't: serve/batch report malformed uploads precisely
        // instead of a generic failure.
        if (std::memcmp(magic, kFullOpMagic,
                        sizeof(kFullOpMagic)) == 0) {
            parseFail("trace file: this is a full-op file (WMRFOP01), "
                      "the bench-only per-operation encoding, not a "
                      "trace");
        }
        parseFail("trace file: unrecognized magic \"%s\" (expected "
                  "WMRTRC01, WMRSEG01 or WMRFOP01)",
                  printableMagic(magic).c_str());
    }

    ExecutionTrace trace;
    // Sanity-bound the shape BEFORE allocating per-processor state:
    // a corrupt header must produce an error, not an OOM or a
    // narrowing-cast surprise.
    const std::uint64_t rawProcs = dec.u64();
    const std::uint64_t rawWords = dec.u64();
    if (rawProcs > kNoProc)
        parseFail("trace file: processor count %llu too large",
                  static_cast<unsigned long long>(rawProcs));
    if (rawWords > (1ull << 28))
        parseFail("trace file: memory universe %llu too large",
                  static_cast<unsigned long long>(rawWords));
    const auto procs = static_cast<ProcId>(rawProcs);
    const auto words = static_cast<Addr>(rawWords);
    trace.setShape(procs, words);
    trace.setFirstStaleRead(dec.u64());
    trace.setTotalOps(dec.u64());

    const std::uint64_t nevents = dec.u64();
    dec.checkCount(nevents, "event");
    // Events were serialized in id order and pairing references are
    // ids, so a single pass with post-hoc pairing patch suffices.
    std::vector<EventId> pairing(nevents, kNoEvent);
    for (std::uint64_t i = 0; i < nevents; ++i) {
        Event ev;
        ev.kind = dec.u64() ? EventKind::Sync : EventKind::Computation;
        const std::uint64_t proc = dec.u64();
        if (proc >= procs)
            parseFail("trace file: event processor %llu out of range",
                      static_cast<unsigned long long>(proc));
        ev.proc = static_cast<ProcId>(proc);
        ev.firstOp = dec.u64();
        ev.lastOp = dec.u64();
        ev.opCount = static_cast<std::uint32_t>(dec.u64());
        if (ev.kind == EventKind::Sync) {
            ev.syncOp = wire::decodeMemOp(dec);
            // Bound the raw id before narrowing it: only kNoEvent or
            // an id inside the file can name a release.
            const std::uint64_t rawPairing = dec.u64();
            if (rawPairing != kNoEvent && rawPairing >= nevents)
                parseFail("trace file: event pairing %llu out of "
                          "range",
                          static_cast<unsigned long long>(rawPairing));
            pairing[i] = static_cast<EventId>(rawPairing);
        } else {
            ev.readSet = wire::decodeBitset(dec);
            ev.writeSet = wire::decodeBitset(dec);
            const std::uint64_t nmembers = dec.u64();
            dec.checkCount(nmembers, "member op");
            ev.memberOps.reserve(nmembers);
            for (std::uint64_t m = 0; m < nmembers; ++m)
                ev.memberOps.push_back(dec.u64());
        }
        const EventId id = trace.addEvent(std::move(ev));
        if (id != static_cast<EventId>(i))
            parseFail("trace file: events out of id order");
    }
    // The WMRSEG01 rule: a pairing must name an existing sync event.
    for (std::uint64_t i = 0; i < nevents; ++i) {
        if (pairing[i] == kNoEvent)
            continue;
        if (trace.event(pairing[i]).kind != EventKind::Sync)
            parseFail("trace file: event pairing %u unresolvable",
                      static_cast<unsigned>(pairing[i]));
        trace.mutableEvent(static_cast<EventId>(i)).pairedRelease =
            pairing[i];
    }
    if (!dec.done())
        parseFail("trace file: trailing bytes");
    return trace;
}

} // namespace

std::string
SalvageInfo::summary() const
{
    char buf[256];
    if (!salvaged) {
        std::snprintf(buf, sizeof(buf),
                      "complete (%llu segments, %llu events)",
                      static_cast<unsigned long long>(
                          segmentsRecovered),
                      static_cast<unsigned long long>(
                          eventsRecovered));
        return buf;
    }
    std::snprintf(
        buf, sizeof(buf),
        "salvaged %llu events (%llu ops) from %llu segments; "
        "%llu damaged segment(s), %llu bytes dropped",
        static_cast<unsigned long long>(eventsRecovered),
        static_cast<unsigned long long>(opsRecovered),
        static_cast<unsigned long long>(segmentsRecovered),
        static_cast<unsigned long long>(segmentsDropped),
        static_cast<unsigned long long>(bytesDropped));
    std::string s = buf;
    if (!note.empty())
        s += "; " + note;
    return s;
}

std::string
formatTraceProvenance(bool segmented, const SalvageInfo &salvage)
{
    if (!segmented)
        return "";
    std::string out;
    char buf[256];
    if (salvage.salvaged) {
        out += "SALVAGED trace: " + salvage.summary() + "\n";
        if (salvage.unresolvedPairings > 0) {
            std::snprintf(buf, sizeof(buf),
                          "  %llu release->acquire pairing(s) lost "
                          "with the dropped tail\n",
                          static_cast<unsigned long long>(
                              salvage.unresolvedPairings));
            out += buf;
        }
    }
    if (salvage.droppedDataRecords > 0) {
        std::snprintf(buf, sizeof(buf),
                      "RECORDER LOSS: %llu data record(s) dropped "
                      "by the ring-overflow Drop policy; computation "
                      "events undercount accordingly\n",
                      static_cast<unsigned long long>(
                          salvage.droppedDataRecords));
        out += buf;
    }
    return out;
}

bool
fileLooksSegmented(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::uint8_t head[8] = {};
    return in.read(reinterpret_cast<char *>(head), sizeof(head)) &&
           looksSegmented(head, sizeof(head));
}

TraceIoStatus
readTraceBytes(const std::string &path,
               std::vector<std::uint8_t> &bytes, std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot open trace file '" + path + "': " +
                std::strerror(errno);
        return TraceIoStatus::IoError;
    }
    in.seekg(0, std::ios::end);
    const auto size = in.tellg();
    in.seekg(0, std::ios::beg);
    bytes.resize(size > 0 ? static_cast<std::size_t>(size) : 0);
    if (!bytes.empty() &&
        !in.read(reinterpret_cast<char *>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()))) {
        error = "read error on trace file '" + path + "'";
        return TraceIoStatus::IoError;
    }
    // Fault injection on the read boundary: a short read drops the
    // file's tail (param = bytes to drop) but never the 8-byte
    // container magic, a bit-flip corrupts one byte (param = byte
    // offset).  Both land AFTER a successful read, modelling storage
    // rot rather than syscall failure — the frame CRCs must turn
    // either into typed damage, never a wrong report.
    std::uint64_t p = 0;
    if (fault::at("trace.read.short", &p) && bytes.size() > 8) {
        const std::size_t drop = std::min<std::uint64_t>(
            std::max<std::uint64_t>(p, 1), bytes.size() - 8);
        bytes.resize(bytes.size() - drop);
    }
    if (fault::at("trace.read.bitflip", &p) && !bytes.empty())
        bytes[p % bytes.size()] ^= 0x01;
    return TraceIoStatus::Ok;
}

TraceReadResult
tryDeserializeTrace(const std::vector<std::uint8_t> &bytes,
                    bool salvage)
{
    if (looksSegmented(bytes.data(), bytes.size()))
        return salvage ? trySalvageTrace(bytes)
                       : tryReadSegmentedTrace(bytes);

    TraceReadResult res;
    try {
        res.trace = decodeLegacyOrThrow(bytes);
    } catch (const ParseFailure &pf) {
        res.status = TraceIoStatus::FormatError;
        res.error = pf.message;
    } catch (const std::bad_alloc &) {
        res.status = TraceIoStatus::FormatError;
        res.error = "trace file: allocation failure during parse";
    }
    return res;
}

TraceReadResult
tryReadTraceFile(const std::string &path, bool salvage)
{
    obs::Span span("trace.read");
    span.annotate(path);
    obs::counter("trace.file_reads").inc();
    std::vector<std::uint8_t> bytes;
    TraceReadResult res;
    res.status = readTraceBytes(path, bytes, res.error);
    if (!res.ok())
        return res;
    return tryDeserializeTrace(bytes, salvage);
}

} // namespace wmr
