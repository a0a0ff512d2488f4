#include "engines/shb_engine.hh"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "hb/access_history.hh"
#include "hb/vector_clock.hh"
#include "obs/obs.hh"

namespace wmr::engines {

namespace {

/**
 * Per-variable first-race attribution over a CANONICAL race list
 * (sorted by (a, b)): for each address, the race containing it whose
 * later endpoint comes earliest in the execution (minimal (b, a)) —
 * the chronologically first completed race on that variable.  Output
 * is (addr, race index), ascending by addr.
 */
std::vector<std::pair<Addr, std::uint32_t>>
firstRacePerVariable(const std::vector<EngineRace> &races)
{
    std::unordered_map<Addr, std::uint32_t> first;
    for (std::uint32_t i = 0; i < races.size(); ++i) {
        const EngineRace &r = races[i];
        for (const Addr a : r.addrs) {
            const auto [it, fresh] = first.emplace(a, i);
            if (fresh)
                continue;
            const EngineRace &cur = races[it->second];
            if (std::make_pair(r.b, r.a) <
                std::make_pair(cur.b, cur.a))
                it->second = i;
        }
    }
    std::vector<std::pair<Addr, std::uint32_t>> out(first.begin(),
                                                    first.end());
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace

EngineVerdict
shbVerdict(std::vector<EngineRace> races)
{
    // The wording predates the removal of the last-write clocks; the
    // golden engine reports pin it until their next re-bless.
    EngineVerdict v = reportEveryRace(
        "shb",
        "hb1-order vector clocks, per-variable last-write clocks; "
        "sound beyond the first race",
        std::move(races));
    v.firstRacePerVar = firstRacePerVariable(v.races);
    return v;
}

EngineVerdict
runShb(const ExecutionTrace &trace, const EngineTraceInfo &info)
{
    static obs::Counter events = obs::counter("engine.shb.events");
    static obs::Counter joins = obs::counter("engine.shb.joins");
    static obs::Counter racesCtr = obs::counter("engine.shb.races");

    std::vector<VectorClock> clock(info.procs, VectorClock(info.procs));
    std::vector<std::uint64_t> epochs(info.procs, 0);
    // Clock snapshots of the so1 join sources only.
    std::unordered_map<EventId, VectorClock> syncSnap;
    AccessHistory hist;
    AccessSplit acc;
    std::vector<EngineRace> races;

    events.add(trace.events().size());
    for (const Event &ev : trace.events()) {
        const ProcId p = ev.proc;
        const std::uint64_t epoch = ++epochs[p];
        VectorClock &c = clock[p];
        c.set(p, epoch);

        const bool isSync = ev.kind == EventKind::Sync;
        if (isSync && ev.pairedRelease != kNoEvent) {
            const auto it = syncSnap.find(ev.pairedRelease);
            if (it != syncSnap.end()) {
                c.join(it->second);
                joins.inc();
            }
        }

        splitAccesses(ev, acc);
        for (AccessHistory::Partner &u : hist.races(acc, p, c))
            races.push_back({static_cast<EventId>(u.key), ev.id,
                             std::move(u.addrs)});
        hist.record(acc, ev.id, p, epoch);

        if (isSync && info.joinSources[ev.id])
            syncSnap.emplace(ev.id, c);
    }
    racesCtr.add(races.size());
    return shbVerdict(std::move(races));
}

} // namespace wmr::engines
