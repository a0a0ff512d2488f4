/**
 * @file
 * ExecutionTrace: the event-level record the post-mortem detector
 * analyzes, and its builder from a simulated ExecutionResult.
 *
 * This is exactly the information Section 4.1 says the instrumented
 * program must produce:
 *  (1) the execution order of events issued by the same processor
 *      (the per-processor event sequences),
 *  (2) the relative execution order of synchronization events on the
 *      same location (the per-location sync order), and
 *  (3) the READ and WRITE sets of each computation event.
 * Plus the observed release→acquire pairing needed to build so1.
 */

#ifndef WMR_TRACE_EXECUTION_TRACE_HH
#define WMR_TRACE_EXECUTION_TRACE_HH

#include <map>
#include <vector>

#include "sim/executor.hh"
#include "trace/event.hh"

namespace wmr {

/** Options controlling how a trace is built from an execution. */
struct TraceBuildOptions
{
    /**
     * Retain member-operation ids inside computation events.  The
     * paper's bit-vector tracing drops them (cheaper); validation
     * tooling keeps them for op-level SCP checks.
     */
    bool keepMemberOps = false;

    /**
     * Maximum data operations merged into one computation event.
     * The paper's events span between two sync operations; capping
     * the run length (0 = unlimited) models finer-grained tracing.
     */
    std::uint32_t maxCompRun = 0;
};

/** Event-level record of one execution. */
class ExecutionTrace
{
  public:
    /** @return all events; Event::id indexes this vector. */
    const std::vector<Event> &events() const { return events_; }

    /** @return event by id. */
    const Event &event(EventId id) const { return events_.at(id); }

    /** @return event ids of @p proc, in program order. */
    const std::vector<EventId> &
    procEvents(ProcId proc) const
    {
        return perProc_.at(proc);
    }

    /** @return number of processors. */
    ProcId numProcs() const
    {
        return static_cast<ProcId>(perProc_.size());
    }

    /** @return shared address universe size. */
    Addr memWords() const { return memWords_; }

    /** @return per-location order of sync events. */
    const std::map<Addr, std::vector<EventId>> &
    syncOrder() const
    {
        return syncOrder_;
    }

    /**
     * @return id of the first stale read of the underlying execution
     * (kNoOp when the execution is SC-witnessed end to end).  This is
     * carried in the trace for SCP analysis.
     */
    OpId firstStaleRead() const { return firstStaleRead_; }

    /** @return total memory operations the events summarize. */
    std::uint64_t totalOps() const { return totalOps_; }

    /** @return number of sync events. */
    std::uint32_t
    numSyncEvents() const
    {
        return numSync_;
    }

    // Mutators used by the builder and the trace reader.
    void setShape(ProcId procs, Addr words);
    void setFirstStaleRead(OpId op) { firstStaleRead_ = op; }
    void setTotalOps(std::uint64_t n) { totalOps_ = n; }
    void reserveEvents(std::size_t n) { events_.reserve(n); }

    /**
     * Append @p ev.  Its id and indexInProc are assigned here, and
     * its READ/WRITE word lists are sorted and deduplicated: this is
     * the one place an event's sets take their canonical form, so
     * producers may append words in any order.
     */
    EventId addEvent(Event ev);

    /** Mutable access for builders (pairing resolution). */
    Event &mutableEvent(EventId id) { return events_.at(id); }

  private:
    std::vector<Event> events_;
    std::vector<std::vector<EventId>> perProc_;
    std::map<Addr, std::vector<EventId>> syncOrder_;
    Addr memWords_ = 0;
    OpId firstStaleRead_ = kNoOp;
    std::uint64_t totalOps_ = 0;
    std::uint32_t numSync_ = 0;
};

/**
 * Build the event trace of @p res, the instrumented-execution step of
 * Section 4.1.
 */
ExecutionTrace buildTrace(const ExecutionResult &res,
                          const TraceBuildOptions &opts = {});

} // namespace wmr

#endif // WMR_TRACE_EXECUTION_TRACE_HH
