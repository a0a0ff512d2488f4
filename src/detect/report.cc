#include "detect/report.hh"

#include "obs/obs.hh"

namespace wmr {

namespace {

const char *
membershipText(ScpMembership m)
{
    switch (m) {
      case ScpMembership::Full: return "in-SCP";
      case ScpMembership::Partial: return "SCP-boundary";
      case ScpMembership::Outside: return "post-SCP";
    }
    return "?";
}

} // namespace

ReportModel
buildReportModel(const DetectionResult &result)
{
    obs::Span span("report.model");
    const ExecutionTrace &trace = result.trace();
    const std::vector<DataRace> &races = result.races();
    ReportModel m;
    m.numEvents = trace.events().size();
    m.numSyncEvents = trace.numSyncEvents();
    m.totalOps = trace.totalOps();
    m.numDataRaces = result.numDataRaces();
    m.anyDataRace = result.anyDataRace();
    m.wholeExecutionSc = result.scp().wholeExecutionSc;
    m.scpEndOp = result.scp().scpEndOp;

    // One summary per racy event: mark the endpoints, then number
    // them in id order.
    constexpr std::uint32_t kNotRacy = ~std::uint32_t{0};
    std::vector<std::uint32_t> slot(trace.events().size(), kNotRacy);
    for (const DataRace &race : races)
        slot[race.a] = slot[race.b] = 0;
    for (EventId id = 0; id < slot.size(); ++id) {
        if (slot[id] == kNotRacy)
            continue;
        slot[id] = static_cast<std::uint32_t>(m.events.size());
        m.events.push_back(summarizeEvent(trace.event(id)));
    }

    m.races.reserve(races.size());
    for (RaceId r = 0; r < races.size(); ++r) {
        ReportRaceModel rm;
        rm.a = slot[races[r].a];
        rm.b = slot[races[r].b];
        rm.addrs = races[r].addrs;
        rm.isDataRace = races[r].isDataRace;
        rm.inScp = result.scp().raceInScp[r];
        rm.maybeInScp = result.scp().raceMaybeInScp[r];
        m.races.push_back(std::move(rm));
    }
    const auto &parts = result.partitions();
    m.partitions.reserve(parts.partitions.size());
    for (const auto &part : parts.partitions) {
        ReportPartitionModel pm;
        pm.label = part.label;
        pm.races = part.races;
        pm.first = part.first;
        m.partitions.push_back(std::move(pm));
    }
    m.firstPartitions = parts.firstPartitions;
    return m;
}

std::string
formatReport(const DetectionResult &result, const Program *prog,
             const ReportOptions &opts)
{
    const ReportModel m = buildReportModel(result);
    std::string out = renderReport(m, prog, opts);

    if (m.anyDataRace && opts.showEvents) {
        out += "-- events --\n";
        for (const auto &ev : result.trace().events()) {
            out += "   ";
            appendEventInfo(out, summarizeEvent(ev), prog);
            out += " [";
            out += membershipText(result.scp().membership(ev.id));
            out += "]\n";
        }
    }
    return out;
}

} // namespace wmr
