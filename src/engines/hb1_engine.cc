#include "engines/hb1_engine.hh"

#include "common/logging.hh"
#include "detect/analysis.hh"
#include "detect/report.hh"
#include "obs/obs.hh"

namespace wmr::engines {

void
Hb1Engine::begin(const EngineTraceInfo &info)
{
    trace_ = ExecutionTrace();
    trace_.setShape(info.procs, info.memWords);
    trace_.reserveEvents(info.numEvents);
    trace_.setFirstStaleRead(info.firstStaleRead);
    trace_.setTotalOps(info.totalOps);
}

void
Hb1Engine::feed(const Event &ev)
{
    static obs::Counter events = obs::counter("engine.hb1.events");
    events.inc();
    // The stream arrives in event-id order with per-processor order
    // preserved, so re-adding reproduces ids and indexInProc.
    const EventId id = trace_.addEvent(ev);
    wmr_assert(id == ev.id);
}

EngineVerdict
Hb1Engine::finish()
{
    static obs::Counter racesCtr = obs::counter("engine.hb1.races");

    AnalysisOptions opts;
    opts.threads = threads_;
    const DetectionResult det =
        analyzeTrace(std::move(trace_), opts);
    report_ = formatReport(det);

    EngineVerdict v;
    v.engine = name();
    v.semantics = "happens-before (Def. 2.2), reports first "
                  "partitions (Sec. 4.2)";
    v.races.reserve(det.races().size());
    for (const DataRace &r : det.races()) {
        EngineRace er;
        er.a = r.a;
        er.b = r.b;
        er.addrs = r.addrs;
        er.isDataRace = r.isDataRace;
        v.races.push_back(std::move(er));
    }
    racesCtr.add(v.races.size());
    v.numDataRaces = det.numDataRaces();
    v.anyDataRace = det.anyDataRace();
    v.reported = det.reportedRaces();
    v.hasPartitions = true;
    v.partitions = det.partitions().partitions.size();
    v.firstPartitions = det.partitions().firstPartitions.size();
    return v;
}

} // namespace wmr::engines
