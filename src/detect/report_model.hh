/**
 * @file
 * Engine-neutral report model.
 *
 * The exact bytes of a wmrace race report are a contract: golden
 * tests, the serve cache, and the streaming differential harness all
 * byte-compare them.  This header captures everything those bytes
 * depend on in plain structs with no reference to a particular
 * analysis engine, plus the single renderer that produces the text.
 * Both the whole-trace pipeline (detect/analysis) and the streaming
 * engine (stream/) fill a ReportModel; format identity then holds by
 * construction.  The model keeps one summary per racy event, and the
 * renderer appends every line into one string with std::to_chars;
 * tests/test_report.cc holds it byte-equal to the earlier strformat
 * renderer, kept there as the reference.
 */

#ifndef WMR_DETECT_REPORT_MODEL_HH
#define WMR_DETECT_REPORT_MODEL_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "detect/race.hh"
#include "prog/program.hh"
#include "sim/mem_op.hh"
#include "trace/event.hh"

namespace wmr {

/** Formatting options. */
struct ReportOptions
{
    /** Include per-event detail (op ranges, READ/WRITE sets).
     *  Whole-trace analysis only: the streaming engine does not keep
     *  the full event list resident. */
    bool showEvents = false;
};

/**
 * Version of the report text.  Bump it with every deliberate re-bless
 * of the golden reports: serve's disk cache names its entries with
 * it, so a `--cache-dir` daemon upgraded across a format change
 * re-analyzes instead of serving the old bytes.
 */
inline constexpr std::uint32_t kReportFormatVersion = 1;

/**
 * The first words of an ascending access set, held inline.  A report
 * line prints at most kMax words of each READ and WRITE set, so that
 * is all a summary keeps.
 */
struct WordPrefix
{
    static constexpr std::size_t kMax = 4;

    std::array<Addr, kMax> words{};
    std::uint8_t size = 0;

    WordPrefix() = default;

    /** Keep the first kMax words of @p set. */
    explicit WordPrefix(const std::vector<Addr> &set);

    const Addr *begin() const { return words.data(); }
    const Addr *end() const { return words.data() + size; }
};

/**
 * What a report line needs to know about one event.  The streaming
 * engine can retire the full READ/WRITE sets: a summary keeps only
 * the prefix a line prints.
 */
struct ReportEventInfo
{
    EventId id = kNoEvent;
    ProcId proc = kNoProc;
    bool isSync = false;

    /** The sync operation (valid when isSync). */
    MemOp syncOp;

    /** Member-operation count (computation events). */
    std::uint32_t opCount = 0;

    WordPrefix reads;
    WordPrefix writes;
};

/** One race: its endpoints, conflict words and SCP classification. */
struct ReportRaceModel
{
    /** Endpoints as indices into ReportModel::events; a is the
     *  endpoint with the smaller event id. */
    std::uint32_t a = 0;
    std::uint32_t b = 0;

    /** Conflict addresses, ascending and deduplicated. */
    std::vector<Addr> addrs;

    bool isDataRace = true;

    /** SCP classification (scp.raceInScp / raceMaybeInScp). */
    bool inScp = false;
    bool maybeInScp = false;
};

/** One partition as the report shows it. */
struct ReportPartitionModel
{
    /** Canonical label (RacePartition::label). */
    std::uint32_t label = 0;

    /** Indices into ReportModel::races. */
    std::vector<RaceId> races;

    bool first = false;
};

/** Everything the report renderer reads. */
struct ReportModel
{
    std::size_t numEvents = 0;
    std::uint32_t numSyncEvents = 0;
    std::uint64_t totalOps = 0;

    std::size_t numDataRaces = 0;
    bool anyDataRace = false;

    bool wholeExecutionSc = true;
    std::uint64_t scpEndOp = 0;

    /** One summary per racy event (an endpoint of some race), each
     *  exactly once; races refer to them by index. */
    std::vector<ReportEventInfo> events;

    std::vector<ReportRaceModel> races;

    /** In label order; firstPartitions indices follow that order. */
    std::vector<ReportPartitionModel> partitions;
    std::vector<std::uint32_t> firstPartitions;
};

/** Summarize one trace event into its report form. */
ReportEventInfo summarizeEvent(const Event &ev);

/** Append the one-line description of an event summary to @p out. */
void appendEventInfo(std::string &out, const ReportEventInfo &info,
                     const Program *prog);

/**
 * Render the full report from the model.  Covers everything except
 * ReportOptions::showEvents (which needs the full event list and is
 * appended by the whole-trace formatReport wrapper).
 */
std::string renderReport(const ReportModel &m, const Program *prog,
                         const ReportOptions &opts = {});

} // namespace wmr

#endif // WMR_DETECT_REPORT_MODEL_HH
