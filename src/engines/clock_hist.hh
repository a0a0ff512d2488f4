/**
 * @file
 * Shared single-pass race-detection machinery of the clock engines.
 *
 * Both shb and wcp walk the event stream once with per-processor
 * vector clocks and per-address access histories, using the same
 * one-directional race test the streaming analyzer relies on:
 * events arrive in event-id order and every ordering edge points
 * forward, so a history entry (proc q, epoch i) races a new event e
 * iff C_e[q] < i.  The engines differ only in how C_e is advanced
 * (which join edges exist); the enumeration below mirrors
 * detect/race_finder.cc exactly (writers×writers, writers×readers,
 * an event writing and reading a word indexed once as a writer,
 * sync-sync pairs excluded), so a clock engine's race set is
 * directly comparable to the canonical finder's.
 */

#ifndef WMR_ENGINES_CLOCK_HIST_HH
#define WMR_ENGINES_CLOCK_HIST_HH

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <vector>

#include "engines/engine.hh"
#include "hb/vector_clock.hh"

namespace wmr::engines::detail {

/** One recorded access of an address. */
struct HistEntry
{
    EventId id = kNoEvent;
    ProcId proc = kNoProc;
    std::uint64_t epoch = 0; ///< 1-based event index in proc
    bool isSync = false;
};

/** Per-address access history. */
struct AddrHist
{
    std::vector<HistEntry> writers;
    std::vector<HistEntry> readers; ///< events reading, not writing
};

/** Race accumulator keyed by canonical event pair. */
class RaceTable
{
  public:
    /** Record that (a, b) race on @p addr. */
    void
    add(EventId a, EventId b, Addr addr, bool isData)
    {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(a) << 32) | b;
        const auto it = index_.find(key);
        if (it != index_.end()) {
            races_[it->second].addrs.push_back(addr);
            return;
        }
        index_.emplace(key,
                       static_cast<std::uint32_t>(races_.size()));
        EngineRace r;
        r.a = a;
        r.b = b;
        r.addrs.push_back(addr);
        r.isDataRace = isData;
        races_.push_back(std::move(r));
    }

    std::size_t size() const { return races_.size(); }

    /** @return the races in canonical order: sorted by (a, b), each
     *  address list sorted and deduplicated — the exact form
     *  findRaces() returns. */
    std::vector<EngineRace>
    canonical() const
    {
        std::vector<EngineRace> out = races_;
        for (auto &r : out) {
            std::sort(r.addrs.begin(), r.addrs.end());
            r.addrs.erase(
                std::unique(r.addrs.begin(), r.addrs.end()),
                r.addrs.end());
        }
        std::sort(out.begin(), out.end(),
                  [](const EngineRace &x, const EngineRace &y) {
                      return x.a != y.a ? x.a < y.a : x.b < y.b;
                  });
        return out;
    }

    /** @return races in DISCOVERY order (feed order of the later
     *  endpoint) — what per-variable first-race attribution needs. */
    const std::vector<EngineRace> &discovered() const
    {
        return races_;
    }

  private:
    std::unordered_map<std::uint64_t, std::uint32_t> index_;
    std::vector<EngineRace> races_;
};

/**
 * Run the race test of event @p ev (clock @p clock, epoch @p epoch)
 * against @p hist and record its accesses.  @p writes / @p reads are
 * the event's accessed addresses (reads excludes written words);
 * @p isSync marks a sync event (sync-sync pairs are skipped, like
 * the default RaceFinderOptions).  Races are added to @p table.
 */
inline void
testAndRecord(std::unordered_map<Addr, AddrHist> &hist,
              const EventId id, const ProcId proc,
              const std::uint64_t epoch, const bool isSync,
              const VectorClock &clock,
              const std::vector<Addr> &writes,
              const std::vector<Addr> &reads, RaceTable &table)
{
    const auto scan = [&](const std::vector<HistEntry> &entries,
                          Addr addr) {
        for (const HistEntry &h : entries) {
            if (h.proc == proc)
                continue; // po-ordered for sure
            if (h.isSync && isSync)
                continue; // general race, not a data race
            if (clock.get(h.proc) < h.epoch)
                table.add(h.id, id, addr, true);
        }
    };

    for (const Addr a : writes) {
        const auto it = hist.find(a);
        if (it != hist.end()) {
            scan(it->second.writers, a);
            scan(it->second.readers, a);
        }
    }
    for (const Addr a : reads) {
        const auto it = hist.find(a);
        if (it != hist.end())
            scan(it->second.writers, a);
    }

    const HistEntry me{id, proc, epoch, isSync};
    for (const Addr a : writes)
        hist[a].writers.push_back(me);
    for (const Addr a : reads)
        hist[a].readers.push_back(me);
}

/** Split @p ev into the writes/reads address lists the enumeration
 *  uses (reads excludes words the event also writes). */
inline void
eventAccesses(const Event &ev, std::vector<Addr> &writes,
              std::vector<Addr> &reads)
{
    writes.clear();
    reads.clear();
    if (ev.kind == EventKind::Sync) {
        if (ev.syncOp.kind == OpKind::Write)
            writes.push_back(ev.syncOp.addr);
        else
            reads.push_back(ev.syncOp.addr);
        return;
    }
    writes = ev.writeSet;
    std::set_difference(ev.readSet.begin(), ev.readSet.end(),
                        ev.writeSet.begin(), ev.writeSet.end(),
                        std::back_inserter(reads));
}

} // namespace wmr::engines::detail

#endif // WMR_ENGINES_CLOCK_HIST_HH
