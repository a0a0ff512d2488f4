/**
 * @file
 * The augmented happens-before-1 graph G' of Section 4.2.
 *
 * G' is the hb1 graph plus, for each race 〈A,B〉, a doubly directed
 * edge between A and B.  By construction, a path exists in G' from A
 * (or B) to C (or D) iff 〈A,B〉 affects 〈C,D〉 (Def. 3.3), so the
 * strongly connected components of G' group mutually affecting races
 * and the condensation orders the groups.
 */

#ifndef WMR_DETECT_AUGMENTED_GRAPH_HH
#define WMR_DETECT_AUGMENTED_GRAPH_HH

#include <vector>

#include "detect/race.hh"
#include "hb/hb_graph.hh"
#include "hb/reachability.hh"

namespace wmr {

/** G' plus its reachability oracle. */
class AugmentedGraph
{
  public:
    /** Build G' from the hb1 graph and the enumerated races. */
    AugmentedGraph(const HbGraph &hb, const std::vector<DataRace> &races,
                   const ExecutionTrace &trace,
                   unsigned = 1); // ignored; perfbench/probe.cc passes 1

    /** @return G' adjacency (hb edges + double race edges). */
    const AdjList &adjacency() const { return adj_; }

    /** @return reachability oracle over G'. */
    const ReachabilityIndex &reach() const { return reach_; }

    /**
     * @return whether race @p r affects event @p z (Def. 3.3): z is
     * an endpoint of r, or a G' path leads from an endpoint of r
     * to z.
     */
    bool raceAffectsEvent(const DataRace &r, EventId z) const;

    /** @return whether race @p r affects race @p s (Def. 3.3). */
    bool raceAffectsRace(const DataRace &r, const DataRace &s) const;

  private:
    AdjList adj_;
    ReachabilityIndex reach_;
};

} // namespace wmr

#endif // WMR_DETECT_AUGMENTED_GRAPH_HH
