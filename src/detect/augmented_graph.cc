#include "detect/augmented_graph.hh"

namespace wmr {

namespace {

AdjList
augment(const HbGraph &hb, const std::vector<DataRace> &races)
{
    AdjList adj = hb.adjacency();
    for (const auto &r : races) {
        adj[r.a].push_back(r.b);
        adj[r.b].push_back(r.a);
    }
    return adj;
}

} // namespace

AugmentedGraph::AugmentedGraph(const HbGraph &hb,
                               const std::vector<DataRace> &races,
                               const ExecutionTrace &trace,
                               unsigned)
    : adj_(augment(hb, races)), reach_(adj_, trace)
{
}

bool
AugmentedGraph::raceAffectsEvent(const DataRace &r, EventId z) const
{
    // The race edge makes a and b mutually reachable, so reachability
    // from either endpoint is reachability from both.
    return reach_.reaches(r.a, z);
}

bool
AugmentedGraph::raceAffectsRace(const DataRace &r,
                                const DataRace &s) const
{
    if (r.a == s.a && r.b == s.b)
        return false; // a race does not "affect" itself (Def. 3.3)
    return raceAffectsEvent(r, s.a) || raceAffectsEvent(r, s.b);
}

} // namespace wmr
