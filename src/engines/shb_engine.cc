#include "engines/shb_engine.hh"

#include <algorithm>
#include <utility>

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

void
ShbEngine::begin(const EngineTraceInfo &info)
{
    procs_ = info.procs;
    clock_.assign(procs_, VectorClock(procs_));
    epochs_.assign(procs_, 0);
    joinSources_ = info.joinSources;
}

void
ShbEngine::feed(const Event &ev)
{
    static obs::Counter events = obs::counter("engine.shb.events");
    static obs::Counter joins = obs::counter("engine.shb.joins");
    events.inc();

    const ProcId p = ev.proc;
    if (p >= procs_) { // defensive vs. malformed shape info
        procs_ = p + 1;
        clock_.resize(procs_);
        epochs_.resize(procs_, 0);
    }

    const std::uint64_t epoch = ++epochs_[p];
    VectorClock &c = clock_[p];
    c.set(p, epoch);

    const bool isSync = ev.kind == EventKind::Sync;
    if (isSync && ev.pairedRelease != kNoEvent) {
        const auto it = syncSnap_.find(ev.pairedRelease);
        if (it != syncSnap_.end()) {
            c.join(it->second);
            joins.inc();
        }
    }

    splitAccesses(ev, acc_);
    for (AccessHistory::Partner &u : hist_.races(acc_, p, c))
        races_.push_back(
            {static_cast<EventId>(u.key), ev.id, std::move(u.addrs)});
    hist_.record(acc_, ev.id, p, epoch);

    if (isSync && ev.id < joinSources_.size() && joinSources_[ev.id])
        syncSnap_.emplace(ev.id, c);
}

EngineVerdict
ShbEngine::finish()
{
    static obs::Counter racesCtr = obs::counter("engine.shb.races");
    racesCtr.add(races_.size());
    return shbVerdict(std::move(races_));
}

} // namespace wmr::engines
