/**
 * @file
 * The one trace loader of the post-mortem workflow.
 *
 * The paper's method is post-mortem: the instrumented execution
 * writes a trace file, a later analysis phase reads it back and runs
 * the detector.  Every consumer — `wmrace check`/`record`, the batch
 * pipeline and the serve daemon — reads through tryReadTraceFile() /
 * tryDeserializeTrace(), which tell the containers apart by their
 * 8-byte magic:
 *
 *  - "WMRSEG01" (segmented_io.hh): the per-processor EVENT stream of
 *    Section 4.1 in checksummed, appendable segments — the only
 *    format any wmrace writer emits.  Read strictly (every frame
 *    verifies, FIN present) or in salvage mode (the longest valid
 *    prefix, with the loss stated in SalvageInfo);
 *  - "WMRTRC01": the single-blob EVENT container of older
 *    recordings, kept as a read-only decoder (bit-vector READ/WRITE
 *    sets, sync pairing, optional member ops) so old files still
 *    analyze.  It has no checksum and no salvage mode.
 *
 * Malformed input never aborts: it comes back as a typed FormatError
 * with the reason, so batch and serve consumers record a per-trace
 * failure and keep going.
 */

#ifndef WMR_TRACE_TRACE_IO_HH
#define WMR_TRACE_TRACE_IO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/execution_trace.hh"

namespace wmr {

/** Why a recoverable trace read failed. */
enum class TraceIoStatus : std::uint8_t {
    Ok,          ///< trace is valid
    IoError,     ///< file could not be opened/read
    FormatError, ///< bytes are not a well-formed trace
};

/** What a (possibly partial) WMRSEG01 read recovered and lost. */
struct SalvageInfo
{
    /** A FIN segment was decoded: the recording shut down cleanly. */
    bool finSeen = false;

    /** The file was incomplete or damaged: no FIN, or a bad tail. */
    bool salvaged = false;

    std::uint64_t segmentsRecovered = 0;

    /** Damaged/undecodable trailing frames (0 when only the FIN is
     *  missing — e.g. the recorder was SIGKILLed between spills). */
    std::uint64_t segmentsDropped = 0;

    /** Bytes of the file discarded after the last valid segment. */
    std::uint64_t bytesDropped = 0;

    std::uint64_t eventsRecovered = 0;
    std::uint64_t opsRecovered = 0;

    /** Acquire events whose paired release fell outside the
     *  recovered prefix (their so1 edge is dropped). */
    std::uint64_t unresolvedPairings = 0;

    /** Data records lost to the recorder's Drop overflow policy, as
     *  of the last recovered segment (FIN value when finSeen). */
    std::uint64_t droppedDataRecords = 0;

    /** Why recovery stopped (empty for a clean, complete file). */
    std::string note;

    /** @return a one-line human summary ("complete" when clean). */
    std::string summary() const;
};

/** Outcome of a load: the trace plus its provenance. */
struct TraceReadResult
{
    TraceIoStatus status = TraceIoStatus::Ok;

    /** The parsed trace; meaningful only when ok(). */
    ExecutionTrace trace;

    /** Human-readable failure reason; empty when ok(). */
    std::string error;

    /** The bytes carried the WMRSEG01 magic (set even on failure,
     *  so callers can point a strict failure at salvage). */
    bool segmented = false;

    /** WMRSEG01 recovery accounting (default for WMRTRC01). */
    SalvageInfo salvage;

    bool ok() const { return status == TraceIoStatus::Ok; }
};

/**
 * @return whether the file at @p path starts with the WMRSEG01 magic
 * (false when unreadable).  Reads only those 8 bytes: how a consumer
 * that can stream (batch --stream, check --stream) picks its path
 * without reading the whole file first.
 */
bool fileLooksSegmented(const std::string &path);

/**
 * The loader's I/O step: read the whole file at @p path into
 * @p bytes.  The trace.read.short / trace.read.bitflip fault sites
 * (docs/FAULTS.md) sit here, so every whole-file consumer passes
 * them.  @return Ok or IoError (with @p error set).
 */
TraceIoStatus readTraceBytes(const std::string &path,
                             std::vector<std::uint8_t> &bytes,
                             std::string &error);

/**
 * The loader's decode step.  WMRSEG01 bytes are read strictly, or
 * with @p salvage as their longest valid prefix (a salvage that
 * recovers no events is refused); WMRTRC01 bytes go to the legacy
 * decoder, for which @p salvage changes nothing.
 */
TraceReadResult tryDeserializeTrace(const std::vector<std::uint8_t> &bytes,
                                    bool salvage = false);

/** readTraceBytes() then tryDeserializeTrace(). */
TraceReadResult tryReadTraceFile(const std::string &path,
                                 bool salvage = false);

/**
 * Render the report header lines stating what an analyzed trace
 * actually is — salvage provenance and recorder-side data loss — so
 * a partial or Drop-mode trace can never masquerade as a complete
 * one.  Empty for a non-segmented or clean, lossless trace.  Every
 * path (`check`, `check --stream`, `record`, serve) emits EXACTLY
 * this string ahead of the report, which is what keeps their
 * reports byte-identical.
 */
std::string formatTraceProvenance(bool segmented,
                                  const SalvageInfo &salvage);

} // namespace wmr

#endif // WMR_TRACE_TRACE_IO_HH
