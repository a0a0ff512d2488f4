/**
 * @file
 * The forward race test shared by the single-pass detectors.
 *
 * `check --stream` (src/stream) and the shb and wcp engines
 * (src/engines) visit events in an order in which every ordering
 * edge points forward, advancing per-processor vector clocks as they
 * go.  A new event e can therefore never precede an earlier access,
 * and an earlier access (q, i) — processor q, 1-based epoch i —
 * races e iff q is not e's processor, the pair is not sync×sync (a
 * general race, never reported), and C_e[q] < i.  AccessHistory
 * keeps the earlier accesses per address and answers that test; the
 * callers differ only in how C_e advances and in the key that names
 * an event (a file ordinal, an event id).
 *
 * The access split — a computation event writes its WRITE set and
 * reads READ ∖ WRITE, a sync event accesses its one address — is
 * also the index findRaces() enumerates, so every race enumerator
 * pairs the same (event, word) accesses.
 */

#ifndef WMR_HB_ACCESS_HISTORY_HH
#define WMR_HB_ACCESS_HISTORY_HH

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "hb/vector_clock.hh"
#include "trace/event.hh"

namespace wmr {

/** One event's accesses, split the way every race enumerator pairs
 *  them. */
struct AccessSplit
{
    bool sync = false;
    std::vector<Addr> writes; ///< WRITE set, or a sync write's word
    std::vector<Addr> reads;  ///< READ ∖ WRITE, or a sync read's word
};

/** Split an event's accesses into @p out, reusing its buffers.
 *  @p readSet and @p writeSet are ascending without duplicates. */
void splitAccesses(EventKind kind, const MemOp &syncOp,
                   const std::vector<Addr> &readSet,
                   const std::vector<Addr> &writeSet,
                   AccessSplit &out);

inline void
splitAccesses(const Event &ev, AccessSplit &out)
{
    splitAccesses(ev.kind, ev.syncOp, ev.readSet, ev.writeSet, out);
}

/** Per-address history of earlier accesses, with the race test. */
class AccessHistory
{
  public:
    /** An earlier event racing a new one and the words they
     *  conflict on (ascending). */
    struct Partner
    {
        std::uint64_t key = 0;
        std::vector<Addr> addrs;
    };

    /**
     * @return the recorded events that race a new event of processor
     * @p proc with clock @p clock and accesses @p acc, one Partner
     * per key, ascending by key.  Call before record()ing the event.
     */
    std::vector<Partner> races(const AccessSplit &acc, ProcId proc,
                               const VectorClock &clock);

    /** Enter an event's accesses under @p key at (@p proc,
     *  @p epoch). */
    void record(const AccessSplit &acc, std::uint64_t key,
                ProcId proc, std::uint64_t epoch);

    /**
     * At each address of @p addrs (repeats allowed), drop the entries
     * whose epoch is at most limit[proc]; a processor past the end
     * of @p limit keeps its entries.  Addresses left empty go.
     */
    void retire(std::vector<Addr> addrs,
                const std::vector<std::uint64_t> &limit);

  private:
    struct Entry
    {
        std::uint64_t key;
        std::uint64_t epoch;
        ProcId proc;
    };

    /** One address's entries.  Sync and data accesses are kept
     *  apart so that a sync event never steps earlier sync
     *  accesses. */
    struct Word
    {
        std::vector<Entry> dataWrites, dataReads;
        std::vector<Entry> syncWrites, syncReads;
    };

    std::unordered_map<Addr, Word> words_;
    std::vector<std::pair<std::uint64_t, Addr>> hits_; // scratch
};

} // namespace wmr

#endif // WMR_HB_ACCESS_HISTORY_HH
