#include "engines/wcp_engine.hh"

#include "obs/obs.hh"

namespace wmr::engines {

void
WcpEngine::begin(const EngineTraceInfo &info)
{
    procs_ = info.procs;
    proc_.assign(procs_, {});
    for (auto &p : proc_)
        p.clock = VectorClock(procs_);
    joinSources_ = info.joinSources;
}

bool
WcpEngine::conflicts(const ReleaseSnap &rel) const
{
    for (const Addr a : acc_.writes) {
        if (rel.writes.count(a) || rel.reads.count(a))
            return true;
    }
    for (const Addr a : acc_.reads) {
        if (rel.writes.count(a))
            return true;
    }
    return false;
}

void
WcpEngine::feed(const Event &ev)
{
    static obs::Counter events = obs::counter("engine.wcp.events");
    static obs::Counter taken =
        obs::counter("engine.wcp.joins_taken");
    static obs::Counter skipped =
        obs::counter("engine.wcp.joins_expired");
    events.inc();

    const ProcId p = ev.proc;
    if (p >= procs_) {
        procs_ = p + 1;
        proc_.resize(procs_);
    }
    ProcState &ps = proc_[p];
    const std::uint64_t epoch = ++ps.epoch;
    ps.clock.set(p, epoch);

    const bool isSync = ev.kind == EventKind::Sync;
    splitAccesses(ev, acc_);

    if (!isSync && ps.pending && conflicts(*ps.pendingRel)) {
        // WCP rule (a): the releaser's region conflicts with this
        // region access, so the release precedes it.
        ps.clock.join(ps.pendingRel->clock);
        ps.pending = false;
        taken.inc();
    }

    for (AccessHistory::Partner &u : hist_.races(acc_, p, ps.clock))
        races_.push_back(
            {static_cast<EventId>(u.key), ev.id, std::move(u.addrs)});
    hist_.record(acc_, ev.id, p, epoch);

    if (isSync) {
        // The region ends here: publish this sync event's snapshot
        // (clock + the data footprint of the closed region) if a
        // pairing names it, expire any unconsumed pending join, then
        // arm the pairing's join for the region that starts now.
        if (ev.id < joinSources_.size() && joinSources_[ev.id]) {
            ReleaseSnap snap;
            snap.clock = ps.clock;
            snap.reads = ps.regionReads;
            snap.writes = ps.regionWrites;
            syncSnap_.emplace(ev.id, std::move(snap));
        }

        if (ps.pending) {
            ps.pending = false;
            skipped.inc();
        }
        if (ev.pairedRelease != kNoEvent) {
            const auto it = syncSnap_.find(ev.pairedRelease);
            if (it != syncSnap_.end()) {
                ps.pending = true;
                ps.pendingRel = &it->second;
            }
        }
        ps.regionReads.clear();
        ps.regionWrites.clear();
    } else {
        for (const Addr a : acc_.writes)
            ps.regionWrites.insert(a);
        for (const Addr a : acc_.reads)
            ps.regionReads.insert(a);
    }
}

EngineVerdict
WcpEngine::finish()
{
    static obs::Counter racesCtr = obs::counter("engine.wcp.races");
    racesCtr.add(races_.size());
    return reportEveryRace(name(),
                           "weak-causal precedence: release-join "
                           "only over conflicting critical regions "
                           "(predictive)",
                           std::move(races_));
}

} // namespace wmr::engines
