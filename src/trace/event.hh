/**
 * @file
 * The event abstraction of Section 4.1.
 *
 * A processor's execution is viewed as a sequence of events: each
 * synchronization operation is its own *sync event*, and each maximal
 * run of consecutively executed data operations is one *computation
 * event* carrying READ and WRITE sets instead of per-operation traces.
 *
 * The paper records those sets as bit-vectors over the shared address
 * universe to keep tracing cheap; that is also the legacy WMRTRC01
 * wire encoding.  In memory (as in WMRSEG01) a set is the sorted,
 * duplicate-free list of the words it holds, so an event costs memory
 * in proportion to its own accesses, not to the universe.
 */

#ifndef WMR_TRACE_EVENT_HH
#define WMR_TRACE_EVENT_HH

#include <algorithm>
#include <vector>

#include "common/types.hh"
#include "sim/mem_op.hh"

namespace wmr {

/** Kind of a trace event. */
enum class EventKind : std::uint8_t { Sync, Computation };

/** One trace event (sync operation or computation block). */
struct Event
{
    EventId id = kNoEvent;
    EventKind kind = EventKind::Computation;
    ProcId proc = kNoProc;

    /** Index of this event within its processor's event sequence. */
    std::uint32_t indexInProc = 0;

    /** First and last member operation ids (inclusive). */
    OpId firstOp = kNoOp;
    OpId lastOp = kNoOp;

    /** Number of member memory operations. */
    std::uint32_t opCount = 0;

    // --- Sync-event payload -------------------------------------
    /** The sync operation itself (valid when kind == Sync). */
    MemOp syncOp;

    /**
     * For acquire sync reads: event id of the RELEASE sync event
     * whose write supplied the value (Def. 2.1(3)), or kNoEvent when
     * the value came from the initial image or a non-release write.
     * This is the so1 edge source (Def. 2.2).
     */
    EventId pairedRelease = kNoEvent;

    // --- Computation-event payload ------------------------------
    /**
     * Shared words read by the event's data operations, ascending and
     * without duplicates once the event is in an ExecutionTrace
     * (ExecutionTrace::addEvent puts it in that form).
     */
    std::vector<Addr> readSet;

    /** Shared words written by the event's data operations (same
     *  form as readSet). */
    std::vector<Addr> writeSet;

    /**
     * Optional: ids of the member operations (retained when the
     * trace is built with keepMemberOps, used by SCP validation and
     * lower-level race reporting; the production tracing mode drops
     * them, exactly as the paper's bit-vector scheme does).
     */
    std::vector<OpId> memberOps;

    /** @return whether the event reads @p addr. */
    bool
    reads(Addr addr) const
    {
        if (kind == EventKind::Sync)
            return syncOp.kind == OpKind::Read && syncOp.addr == addr;
        return std::binary_search(readSet.begin(), readSet.end(),
                                  addr);
    }

    /** @return whether the event writes @p addr. */
    bool
    writes(Addr addr) const
    {
        if (kind == EventKind::Sync)
            return syncOp.kind == OpKind::Write && syncOp.addr == addr;
        return std::binary_search(writeSet.begin(), writeSet.end(),
                                  addr);
    }
};

/**
 * @return whether events @p a and @p b conflict: they access a common
 * location at least one of them writes (Sec. 4.1).
 */
bool eventsConflict(const Event &a, const Event &b);

/**
 * @return the common locations of @p a and @p b where at least one of
 * the two writes — the "race addresses" of the pair.
 */
std::vector<Addr> conflictAddrs(const Event &a, const Event &b);

} // namespace wmr

#endif // WMR_TRACE_EVENT_HH
