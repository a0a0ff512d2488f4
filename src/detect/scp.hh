/**
 * @file
 * Sequentially consistent prefix (SCP) analysis — Definitions 3.1/3.2
 * and Condition 3.4.
 *
 * The simulator issues instructions one at a time, so the issue order
 * is a legal SC interleaving; as long as every read returns the value
 * that interleaving prescribes, the execution IS sequentially
 * consistent with the issue order as witness.  A *stale* read is the
 * first escape from that witness — but an operation's identity is
 * its program point and address, NOT its value (Sec. 2.1), so the
 * stale read itself still occurs in the witness Eseq and still
 * belongs to the SCP (Figure 2(b) draws "End of SCP" after
 * read(Q,37)).  What falls OUT of the SCP are the operations whose
 * identity depends on stale data: ops addressed through a tainted
 * index register, and every op of a processor after it branched on a
 * tainted value.  The executor tracks that taint through registers
 * and flags such ops `divergent`; the op-level SCP is the set of
 * non-divergent operations.  (The base boundary — everything before
 * the first stale read — is also reported; it is the prefix where
 * even VALUES match Eseq.)
 *
 * This module classifies events and races against that prefix:
 * Condition 3.4 promises every data race either occurs in the SCP or
 * is affected by one that does, and Theorem 4.2 promises each first
 * partition holds at least one SCP race.  Tests verify both.
 */

#ifndef WMR_DETECT_SCP_HH
#define WMR_DETECT_SCP_HH

#include <vector>

#include "detect/augmented_graph.hh"
#include "detect/race.hh"
#include "trace/execution_trace.hh"

namespace wmr {

/** Relation of one event to the SCP. */
enum class ScpMembership : std::uint8_t {
    Full,     ///< all member operations inside the SCP
    Partial,  ///< the SCP boundary cuts through the event
    Outside,  ///< all member operations past the boundary
};

/**
 * Membership of an event spanning operations [@p firstOp, @p lastOp]
 * in the base prefix of operations with id < @p scpEndOp: Full
 * strictly inside, Partial when the boundary cuts through it,
 * Outside beyond it.  The rule for events whose member operations
 * are not known.
 */
ScpMembership prefixMembership(OpId firstOp, OpId lastOp, OpId scpEndOp);

/** Where a race stands against the SCP. */
struct RaceScp
{
    bool in = false;    ///< certainly in the SCP
    bool maybe = false; ///< possibly in the SCP (implied by in)
};

/**
 * The event-granularity rule for a race whose endpoints have
 * memberships @p a and @p b: possibly in the SCP unless an endpoint
 * is Outside, certainly in when both are Full (then every
 * lower-level conflicting pair is inside).
 */
RaceScp raceScpOf(ScpMembership a, ScpMembership b);

/** SCP classification of one analyzed execution. */
struct ScpInfo
{
    /** Operations with id < scpEndOp belong to the base SCP. */
    OpId scpEndOp = 0;

    /** True when no stale read occurred: the whole execution is SC. */
    bool wholeExecutionSc = false;

    /** Per-event membership (indexed by EventId). */
    std::vector<ScpMembership> eventScp;

    /**
     * Per-race: certainly-in-SCP.  At event granularity a race is
     * certainly in the SCP when BOTH events are fully inside (then
     * every lower-level conflicting pair is inside).  With member
     * operations retained, boundary-straddling events are resolved
     * exactly at operation level.
     */
    std::vector<bool> raceInScp;

    /**
     * Per-race: possibly-in-SCP (some member operations of both
     * events are inside, but the boundary cuts an event whose member
     * operations were not retained).  raceInScp implies raceMaybeInScp.
     */
    std::vector<bool> raceMaybeInScp;

    /** @return membership of event @p e. */
    ScpMembership
    membership(EventId e) const
    {
        return eventScp[e];
    }
};

/**
 * Classify @p trace's events and @p races against the base SCP.
 *
 * When @p ops is non-null (the original operation stream), races on
 * boundary events are resolved exactly: a race is in the SCP iff some
 * conflicting pair of lower-level operations (one from each event, at
 * least one data, at least one write, same address) lies entirely
 * inside the prefix.  Requires the trace to have been built with
 * keepMemberOps.
 */
ScpInfo analyzeScp(const ExecutionTrace &trace,
                   const std::vector<DataRace> &races,
                   const std::vector<MemOp> *ops = nullptr);

/**
 * Verify Condition 3.4(2) on an analyzed execution: every data race
 * either is (possibly) in the SCP or is affected by a data race that
 * (certainly) is.  @return indices of violating races (empty = OK).
 */
std::vector<RaceId>
checkCondition34(const std::vector<DataRace> &races,
                 const ScpInfo &scp, const AugmentedGraph &aug);

} // namespace wmr

#endif // WMR_DETECT_SCP_HH
