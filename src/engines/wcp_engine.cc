#include "engines/wcp_engine.hh"

#include <unordered_map>
#include <unordered_set>

#include "hb/access_history.hh"
#include "hb/vector_clock.hh"
#include "obs/obs.hh"

namespace wmr::engines {

namespace {

/** A release's published state: its wcp clock and the data
 *  footprint of the region it closed. */
struct ReleaseSnap
{
    VectorClock clock;
    std::unordered_set<Addr> reads;
    std::unordered_set<Addr> writes;
};

/** Per-processor state of the pass. */
struct ProcState
{
    VectorClock clock;
    std::uint64_t epoch = 0;

    /** Data footprint since the previous sync event. */
    std::unordered_set<Addr> regionReads;
    std::unordered_set<Addr> regionWrites;

    /** Parked release join (set at a paired acquire, consumed by the
     *  first conflicting region access, expired at the next sync
     *  event); null when none is parked. */
    const ReleaseSnap *pendingRel = nullptr;
};

/** @return whether the accesses @p acc conflict with the region
 *  footprint @p rel closed. */
bool
conflicts(const AccessSplit &acc, const ReleaseSnap &rel)
{
    for (const Addr a : acc.writes) {
        if (rel.writes.count(a) || rel.reads.count(a))
            return true;
    }
    for (const Addr a : acc.reads) {
        if (rel.writes.count(a))
            return true;
    }
    return false;
}

} // namespace

EngineVerdict
runWcp(const ExecutionTrace &trace, const EngineTraceInfo &info)
{
    static obs::Counter events = obs::counter("engine.wcp.events");
    static obs::Counter taken =
        obs::counter("engine.wcp.joins_taken");
    static obs::Counter skipped =
        obs::counter("engine.wcp.joins_expired");
    static obs::Counter racesCtr = obs::counter("engine.wcp.races");

    std::vector<ProcState> proc(info.procs);
    for (ProcState &ps : proc)
        ps.clock = VectorClock(info.procs);
    // Snapshots of the so1 join sources only.
    std::unordered_map<EventId, ReleaseSnap> syncSnap;
    AccessHistory hist;
    AccessSplit acc;
    std::vector<EngineRace> races;

    events.add(trace.events().size());
    for (const Event &ev : trace.events()) {
        const ProcId p = ev.proc;
        ProcState &ps = proc[p];
        const std::uint64_t epoch = ++ps.epoch;
        ps.clock.set(p, epoch);

        const bool isSync = ev.kind == EventKind::Sync;
        splitAccesses(ev, acc);

        if (!isSync && ps.pendingRel && conflicts(acc, *ps.pendingRel)) {
            // WCP rule (a): the releaser's region conflicts with this
            // region access, so the release precedes it.
            ps.clock.join(ps.pendingRel->clock);
            ps.pendingRel = nullptr;
            taken.inc();
        }

        for (AccessHistory::Partner &u : hist.races(acc, p, ps.clock))
            races.push_back({static_cast<EventId>(u.key), ev.id,
                             std::move(u.addrs)});
        hist.record(acc, ev.id, p, epoch);

        if (isSync) {
            // The region ends here: publish this sync event's
            // snapshot (clock + the data footprint of the closed
            // region) if a pairing names it, expire any unconsumed
            // pending join, then arm the pairing's join for the
            // region that starts now.
            if (info.joinSources[ev.id]) {
                ReleaseSnap snap;
                snap.clock = ps.clock;
                snap.reads = ps.regionReads;
                snap.writes = ps.regionWrites;
                syncSnap.emplace(ev.id, std::move(snap));
            }

            if (ps.pendingRel) {
                ps.pendingRel = nullptr;
                skipped.inc();
            }
            if (ev.pairedRelease != kNoEvent) {
                const auto it = syncSnap.find(ev.pairedRelease);
                if (it != syncSnap.end())
                    ps.pendingRel = &it->second;
            }
            ps.regionReads.clear();
            ps.regionWrites.clear();
        } else {
            ps.regionWrites.insert(acc.writes.begin(), acc.writes.end());
            ps.regionReads.insert(acc.reads.begin(), acc.reads.end());
        }
    }
    racesCtr.add(races.size());
    return reportEveryRace("wcp",
                           "weak-causal precedence: release-join "
                           "only over conflicting critical regions "
                           "(predictive)",
                           std::move(races));
}

} // namespace wmr::engines
