#include "hb/reachability.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"

namespace wmr {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

std::vector<ProcId>
procsOf(const ExecutionTrace &trace)
{
    std::vector<ProcId> out(trace.events().size());
    for (const auto &ev : trace.events())
        out[ev.id] = ev.proc;
    return out;
}

std::vector<std::uint32_t>
indicesOf(const ExecutionTrace &trace)
{
    std::vector<std::uint32_t> out(trace.events().size());
    for (const auto &ev : trace.events())
        out[ev.id] = ev.indexInProc;
    return out;
}

} // namespace

ReachabilityIndex::ReachabilityIndex(
    const AdjList &graph, const std::vector<ProcId> &procOf,
    const std::vector<std::uint32_t> &indexInProc, ProcId nprocs)
    : nprocs_(nprocs)
{
    wmr_assert(procOf.size() == graph.size());
    wmr_assert(indexInProc.size() == graph.size());
    build(graph, procOf, indexInProc);
}

ReachabilityIndex::ReachabilityIndex(const AdjList &graph,
                                     const ExecutionTrace &trace)
    : ReachabilityIndex(graph, procsOf(trace), indicesOf(trace),
                        trace.numProcs())
{
}

ReachabilityIndex::ReachabilityIndex(const HbGraph &graph,
                                     const ExecutionTrace &trace,
                                     unsigned)
    : ReachabilityIndex(graph.adjacency(), trace)
{
}

std::int64_t &
ReachabilityIndex::hi(std::uint32_t comp, ProcId p)
{
    return hi_[static_cast<std::size_t>(comp) * nprocs_ + p];
}

std::int64_t &
ReachabilityIndex::clock(std::uint32_t comp, ProcId p)
{
    return clock_[static_cast<std::size_t>(comp) * nprocs_ + p];
}

std::int64_t
ReachabilityIndex::hiAt(std::uint32_t comp, ProcId p) const
{
    return hi_[static_cast<std::size_t>(comp) * nprocs_ + p];
}

std::int64_t
ReachabilityIndex::clockAt(std::uint32_t comp, ProcId p) const
{
    return clock_[static_cast<std::size_t>(comp) * nprocs_ + p];
}

void
ReachabilityIndex::build(const AdjList &graph,
                         const std::vector<ProcId> &procOf,
                         const std::vector<std::uint32_t> &indexInProc)
{
    const auto sccStart = Clock::now();
    scc_ = stronglyConnectedComponents(graph);
    stats_.sccSeconds = secondsSince(sccStart);
    const std::uint32_t ncomp = scc_.numComponents;
    stats_.components = ncomp;
    hi_.assign(static_cast<std::size_t>(ncomp) * nprocs_, -1);
    clock_.assign(static_cast<std::size_t>(ncomp) * nprocs_, -1);

    for (std::uint32_t v = 0; v < graph.size(); ++v) {
        const std::uint32_t c = scc_.componentOf[v];
        auto &h = hi(c, procOf[v]);
        h = std::max(h, static_cast<std::int64_t>(indexInProc[v]));
    }

    // Tarjan numbers components in reverse topological order: every
    // condensation edge c→c' has c > c'.  Descending id order visits
    // predecessors before successors; push clocks forward.
    const auto clockStart = Clock::now();
    for (std::uint32_t c = ncomp; c-- > 0;) {
        for (ProcId p = 0; p < nprocs_; ++p) {
            auto &cl = clock(c, p);
            cl = std::max(cl, hiAt(c, p));
        }
        for (const std::uint32_t succ : scc_.condensation[c]) {
            for (ProcId p = 0; p < nprocs_; ++p) {
                auto &cl = clock(succ, p);
                cl = std::max(cl, clockAt(c, p));
            }
        }
    }
    stats_.clockSeconds = secondsSince(clockStart);
}

bool
ReachabilityIndex::componentReaches(std::uint32_t a,
                                    std::uint32_t b) const
{
    if (a == b)
        return true;
    for (ProcId p = 0; p < nprocs_; ++p) {
        const std::int64_t h = hiAt(a, p);
        if (h >= 0 && clockAt(b, p) >= h)
            return true;
    }
    return false;
}

bool
ReachabilityIndex::reaches(EventId a, EventId b) const
{
    return componentReaches(scc_.componentOf[a], scc_.componentOf[b]);
}

bool
ReachabilityIndex::ordered(EventId a, EventId b) const
{
    const std::uint32_t ca = scc_.componentOf[a];
    const std::uint32_t cb = scc_.componentOf[b];
    if (ca == cb)
        return true; // mutual hb1 order inside a cycle
    return componentReaches(ca, cb) || componentReaches(cb, ca);
}

} // namespace wmr
