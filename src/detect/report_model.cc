#include "detect/report_model.hh"

#include <algorithm>

#include "common/string_util.hh"

namespace wmr {

namespace {

std::string
addrText(Addr a, const Program *prog)
{
    if (prog)
        return prog->addrName(a);
    return strformat("[%u]", a);
}

std::string
joinAddrs(const std::vector<Addr> &addrs, const Program *prog)
{
    std::string out;
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        if (i)
            out += ",";
        out += addrText(addrs[i], prog);
    }
    return out;
}

} // namespace

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
    const auto firstFour = [](const std::vector<Addr> &words) {
        return std::vector<Addr>(
            words.begin(),
            words.begin() + std::min<std::size_t>(words.size(), 4));
    };
    info.reads = firstFour(ev.readSet);
    info.writes = firstFour(ev.writeSet);
    return info;
}

std::string
describeEventInfo(const ReportEventInfo &info, const Program *prog)
{
    if (info.isSync) {
        const char *what = info.syncOp.kind == OpKind::Write
                               ? (info.syncOp.release ? "release-write"
                                                      : "sync-write")
                               : (info.syncOp.acquire ? "acquire-read"
                                                      : "sync-read");
        return strformat("E%u P%u %s %s @pc%u", info.id, info.proc,
                         what,
                         addrText(info.syncOp.addr, prog).c_str(),
                         info.syncOp.pc);
    }
    return strformat("E%u P%u computation(%u ops) R{%s} W{%s}",
                     info.id, info.proc, info.opCount,
                     joinAddrs(info.reads, prog).c_str(),
                     joinAddrs(info.writes, prog).c_str());
}

std::string
describeRaceModel(const ReportModel &m, RaceId r, const Program *prog,
                  const ReportOptions &opts)
{
    const ReportRaceModel &race = m.races[r];
    std::string addrs;
    for (std::size_t i = 0;
         i < race.addrs.size() && i < opts.maxAddrsPerRace; ++i) {
        if (i)
            addrs += ",";
        addrs += addrText(race.addrs[i], prog);
    }
    if (race.addrs.size() > opts.maxAddrsPerRace)
        addrs += ",...";
    const char *scp_tag =
        race.inScp ? "SCP" : (race.maybeInScp ? "SCP?" : "non-SCP");
    return strformat(
        "race #%u <%s | %s> on {%s} [%s]%s", r,
        describeEventInfo(race.a, prog).c_str(),
        describeEventInfo(race.b, prog).c_str(), addrs.c_str(),
        scp_tag,
        race.isDataRace ? "" : " (general race, not a data race)");
}

std::string
renderReport(const ReportModel &m, const Program *prog,
             const ReportOptions &opts)
{
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
    for (const auto pi : m.firstPartitions) {
        const auto &part = m.partitions[pi];
        out += strformat("-- first partition (G' component %u), "
                         "%zu race(s):\n",
                         part.label, part.races.size());
        out += "   at least one race below also occurs in a "
               "sequentially consistent execution (Theorem 4.2)\n";
        for (const auto r : part.races)
            out += "   " + describeRaceModel(m, r, prog, opts) + "\n";
    }

    if (opts.showNonFirst) {
        for (std::size_t i = 0; i < m.partitions.size(); ++i) {
            const auto &part = m.partitions[i];
            if (part.first)
                continue;
            out += strformat("-- non-first partition (G' component "
                             "%u), %zu race(s) — affected by earlier "
                             "races, may be artifacts:\n",
                             part.label, part.races.size());
            for (const auto r : part.races)
                out += "   " + describeRaceModel(m, r, prog, opts) +
                       "\n";
        }
    }
    return out;
}

} // namespace wmr
