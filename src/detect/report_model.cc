#include "detect/report_model.hh"

#include <algorithm>
#include <charconv>

#include "common/string_util.hh"
#include "obs/obs.hh"

namespace wmr {

namespace {

/** A race line lists at most this many conflict words, then ",...". */
constexpr std::size_t kMaxAddrsPerRace = 8;

/** Longest unnamed address text: "[4294967295]". */
constexpr std::size_t kMaxAddrChars = 12;

void
appendNumber(std::string &out, std::uint64_t v)
{
    char buf[20];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

void
appendAddr(std::string &out, Addr a, const Program *prog)
{
    if (prog) {
        out += prog->addrName(a);
        return;
    }
    out += '[';
    appendNumber(out, a);
    out += ']';
}

void
appendAddrs(std::string &out, const WordPrefix &words,
            const Program *prog)
{
    for (const Addr *w = words.begin(); w != words.end(); ++w) {
        if (w != words.begin())
            out += ',';
        appendAddr(out, *w, prog);
    }
}

const char *
syncOpText(const MemOp &op)
{
    if (op.kind == OpKind::Write)
        return op.release ? "release-write" : "sync-write";
    return op.acquire ? "acquire-read" : "sync-read";
}

/**
 * Every racy event's summary, rendered once.  An event is an
 * endpoint of many races on dense traces, so its race lines copy the
 * text instead of formatting it again.
 */
class EventTexts
{
  public:
    EventTexts(const std::vector<ReportEventInfo> &events,
               const Program *prog)
    {
        offset_.reserve(events.size() + 1);
        offset_.push_back(0);
        for (const ReportEventInfo &info : events) {
            appendEventInfo(text_, info, prog);
            offset_.push_back(text_.size());
        }
    }

    std::size_t
    size(std::uint32_t e) const
    {
        return offset_[e + 1] - offset_[e];
    }

    void
    append(std::string &out, std::uint32_t e) const
    {
        out.append(text_, offset_[e], size(e));
    }

  private:
    std::string text_;

    /** Event e's text is text_[offset_[e], offset_[e + 1]). */
    std::vector<std::size_t> offset_;
};

void
appendRaceLine(std::string &out, const ReportModel &m, RaceId r,
               const EventTexts &events, const Program *prog)
{
    const ReportRaceModel &race = m.races[r];
    out += "   race #";
    appendNumber(out, r);
    out += " <";
    events.append(out, race.a);
    out += " | ";
    events.append(out, race.b);
    out += "> on {";
    const std::size_t shown =
        std::min(race.addrs.size(), kMaxAddrsPerRace);
    for (std::size_t i = 0; i < shown; ++i) {
        if (i)
            out += ',';
        appendAddr(out, race.addrs[i], prog);
    }
    if (race.addrs.size() > kMaxAddrsPerRace)
        out += ",...";
    out += race.inScp ? "} [SCP]"
                      : (race.maybeInScp ? "} [SCP?]" : "} [non-SCP]");
    if (!race.isDataRace)
        out += " (general race, not a data race)";
    out += '\n';
}

/** An upper bound on the race lines' bytes when addresses print as
 *  numbers, so the report is written into one allocation. */
std::size_t
raceLinesBound(const ReportModel &m, const EventTexts &events)
{
    // "   race #" + id + " <" + " | " + "> on {" + ",..." +
    // "} [non-SCP]" + " (general race, not a data race)" + '\n'.
    constexpr std::size_t kFixed = 9 + 10 + 2 + 3 + 6 + 4 + 11 + 32 + 1;
    std::size_t bytes = 0;
    for (const ReportRaceModel &race : m.races) {
        const std::size_t shown =
            std::min(race.addrs.size(), kMaxAddrsPerRace);
        bytes += kFixed + events.size(race.a) + events.size(race.b) +
                 shown * (kMaxAddrChars + 1);
    }
    return bytes;
}

void
appendPartitionHeader(std::string &out,
                      const ReportPartitionModel &part, bool first)
{
    out += first ? "-- first partition (G' component "
                 : "-- non-first partition (G' component ";
    appendNumber(out, part.label);
    out += "), ";
    appendNumber(out, part.races.size());
    out += first
               ? " race(s):\n   at least one race below also occurs "
                 "in a sequentially consistent execution (Theorem "
                 "4.2)\n"
               : " race(s) — affected by earlier races, may be "
                 "artifacts:\n";
}

} // namespace

WordPrefix::WordPrefix(const std::vector<Addr> &set)
    : size(static_cast<std::uint8_t>(std::min(set.size(), kMax)))
{
    std::copy_n(set.begin(), size, words.begin());
}

ReportEventInfo
summarizeEvent(const Event &ev)
{
    ReportEventInfo info;
    info.id = ev.id;
    info.proc = ev.proc;
    info.isSync = ev.kind == EventKind::Sync;
    info.opCount = ev.opCount;
    if (info.isSync) {
        info.syncOp = ev.syncOp;
        return info;
    }
    info.reads = WordPrefix(ev.readSet);
    info.writes = WordPrefix(ev.writeSet);
    return info;
}

void
appendEventInfo(std::string &out, const ReportEventInfo &info,
                const Program *prog)
{
    out += 'E';
    appendNumber(out, info.id);
    out += " P";
    appendNumber(out, info.proc);
    if (info.isSync) {
        out += ' ';
        out += syncOpText(info.syncOp);
        out += ' ';
        appendAddr(out, info.syncOp.addr, prog);
        out += " @pc";
        appendNumber(out, info.syncOp.pc);
        return;
    }
    out += " computation(";
    appendNumber(out, info.opCount);
    out += " ops) R{";
    appendAddrs(out, info.reads, prog);
    out += "} W{";
    appendAddrs(out, info.writes, prog);
    out += '}';
}

std::string
renderReport(const ReportModel &m, const Program *prog,
             const ReportOptions &)
{
    obs::Span span("report.render");
    std::string out;

    out += "=== wmrace post-mortem data race report ===\n";
    out += strformat("events: %zu (%u sync), operations: %llu\n",
                     m.numEvents, m.numSyncEvents,
                     static_cast<unsigned long long>(m.totalOps));
    out += strformat("races: %zu (%zu data races) in %zu partitions\n",
                     m.races.size(), m.numDataRaces,
                     m.partitions.size());

    if (!m.anyDataRace) {
        out += "NO data races detected.\n";
        out += "By Theorem 4.1 / Condition 3.4(1): this execution was "
               "sequentially consistent;\nreason about it exactly as "
               "on a sequentially consistent machine.\n";
        return out;
    }

    if (m.wholeExecutionSc) {
        out += "execution remained SC end-to-end (no stale reads); "
               "all races are SCP races.\n";
    } else {
        out += strformat(
            "sequentially consistent prefix: operations [0, %llu)\n",
            static_cast<unsigned long long>(m.scpEndOp));
    }
    out += strformat("FIRST partitions to report: %zu\n",
                     m.firstPartitions.size());

    const EventTexts events(m.events, prog);
    // Every race sits in one partition, and every partition is
    // listed: first partitions, then the others in label order.
    constexpr std::size_t kMaxPartitionHeaderChars = 168;
    out.reserve(out.size() + raceLinesBound(m, events) +
                m.partitions.size() * kMaxPartitionHeaderChars);
    const auto appendPartition = [&](const ReportPartitionModel &part,
                                     bool first) {
        appendPartitionHeader(out, part, first);
        for (const RaceId r : part.races)
            appendRaceLine(out, m, r, events, prog);
    };
    for (const auto pi : m.firstPartitions)
        appendPartition(m.partitions[pi], true);
    for (const ReportPartitionModel &part : m.partitions) {
        if (!part.first)
            appendPartition(part, false);
    }
    return out;
}

} // namespace wmr
