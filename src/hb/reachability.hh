/**
 * @file
 * Reachability queries over event graphs that contain po chains.
 *
 * Races are "conflicting events not ordered by hb1" (Def. 2.4), so
 * the detector needs many reaches(a,b) queries over graphs with up to
 * hundreds of thousands of nodes.  A transitive-closure bitset would
 * cost O(V^2) memory; instead we exploit the structure every graph we
 * query has: it CONTAINS the po chains (consecutive events of a
 * processor are linked), so any component holding a later event of
 * processor p is reachable from any component holding an earlier one.
 *
 * That makes a per-processor "clock" over the SCC condensation exact:
 *   hi_C(p)    = max program-order index of C's events on processor p
 *   clock_C(p) = max of hi_D(p) over all D that reach C (incl. C)
 * and then, for distinct components A, B:
 *   A reaches B  ⟺  ∃p: hi_A(p) ≥ 0  ∧  clock_B(p) ≥ hi_A(p).
 * (⇐ holds because the component holding proc p's event with index
 * clock_B(p) reaches B, and A reaches that component along p's po
 * chain; ⇒ is monotonicity of clock along paths.)
 *
 * Cycles (possible in weak executions and guaranteed in the
 * augmented graph G') are handled by the condensation: events in one
 * SCC are mutually reachable.  Memory is O(#components × #procs).
 * The clocks propagate in one serial pass over the condensation in
 * topological order.
 */

#ifndef WMR_HB_REACHABILITY_HH
#define WMR_HB_REACHABILITY_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "hb/hb_graph.hh"
#include "hb/scc.hh"

namespace wmr {

/** Shape/time facts of one ReachabilityIndex build. */
struct ReachBuildStats
{
    double sccSeconds = 0;   ///< SCC condensation
    double clockSeconds = 0; ///< clock propagation
    std::uint32_t components = 0;
};

/** Reachability oracle over an event graph containing po chains. */
class ReachabilityIndex
{
  public:
    /**
     * Build from an arbitrary adjacency that includes the po chains.
     *
     * @param graph adjacency list over events.
     * @param procOf processor of each event.
     * @param indexInProc program-order index of each event within
     *        its processor.
     * @param nprocs number of processors.
     */
    ReachabilityIndex(const AdjList &graph,
                      const std::vector<ProcId> &procOf,
                      const std::vector<std::uint32_t> &indexInProc,
                      ProcId nprocs);

    /** Build from an adjacency over the events of @p trace that
     *  includes their po chains. */
    ReachabilityIndex(const AdjList &graph, const ExecutionTrace &trace);

    /** Convenience: build for the hb1 graph of @p trace. */
    ReachabilityIndex(const HbGraph &graph, const ExecutionTrace &trace,
                      unsigned = 1); // ignored; perfbench/probe.cc passes 1

    /** @return whether a path a →* b exists (true when a == b). */
    bool reaches(EventId a, EventId b) const;

    /**
     * @return whether hb1 orders the pair: a reaches b, b reaches a,
     * or both lie in one SCC (mutual order).  Distinct conflicting
     * events with ordered() == false form a race.
     */
    bool ordered(EventId a, EventId b) const;

    /** @return the underlying SCC decomposition. */
    const SccResult &scc() const { return scc_; }

    /** @return whether component @p a reaches component @p b. */
    bool componentReaches(std::uint32_t a, std::uint32_t b) const;

    /** @return shape/time facts of the build. */
    const ReachBuildStats &buildStats() const { return stats_; }

  private:
    void build(const AdjList &graph,
               const std::vector<ProcId> &procOf,
               const std::vector<std::uint32_t> &indexInProc);

    std::int64_t &hi(std::uint32_t comp, ProcId p);
    std::int64_t &clock(std::uint32_t comp, ProcId p);
    std::int64_t hiAt(std::uint32_t comp, ProcId p) const;
    std::int64_t clockAt(std::uint32_t comp, ProcId p) const;

    ProcId nprocs_;
    SccResult scc_;
    std::vector<std::int64_t> hi_;      // [comp * nprocs + p]
    std::vector<std::int64_t> clock_;   // [comp * nprocs + p]
    ReachBuildStats stats_;
};

} // namespace wmr

#endif // WMR_HB_REACHABILITY_HH
