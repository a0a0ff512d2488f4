#include "detect/race_finder.hh"

#include <algorithm>
#include <unordered_map>

#include "common/logging.hh"
#include "common/worker_pool.hh"
#include "hb/access_history.hh"

namespace wmr {

namespace {

/** Per-address accessor lists. */
struct AddrAccess
{
    std::vector<EventId> writers;
    std::vector<EventId> readers; ///< events reading but not writing
};

std::uint64_t
pairKey(EventId a, EventId b)
{
    return (static_cast<std::uint64_t>(a) << 32) | b;
}

/** pairIndex value marking a pair the oracle proved hb1-ordered. */
constexpr std::uint32_t kOrderedPair = UINT32_MAX;

/**
 * One shard's enumeration state: a dedupe/memo table over the pairs
 * this shard has seen, the races it found, and its work counters.
 * Shards never share state, so workers need no locking.
 */
struct ShardState
{
    std::unordered_map<std::uint64_t, std::uint32_t> pairIndex;
    std::vector<DataRace> races;
    RaceFinderStats stats;
};

/**
 * Enumerate the candidate pairs of addresses [first, last) into
 * @p shard.  The same pair may be enumerated by several shards (when
 * it conflicts on addresses in different ranges); the merge unions
 * their address lists.
 */
void
runShard(const std::vector<AddrAccess> &byAddr, Addr first, Addr last,
         const ExecutionTrace &trace, const ReachabilityIndex &reach,
         const RaceFinderOptions &opts, ShardState &shard)
{
    const auto &events = trace.events();

    const auto consider = [&](EventId x, EventId y, Addr addr) {
        if (x == y)
            return;
        const Event &ex = events[x];
        const Event &ey = events[y];
        if (ex.proc == ey.proc)
            return; // po-ordered for sure
        const bool isData = ex.kind == EventKind::Computation ||
                            ey.kind == EventKind::Computation;
        if (!isData && !opts.includeSyncSyncRaces)
            return;
        ++shard.stats.candidatePairs;
        const EventId lo = std::min(x, y);
        const EventId hi = std::max(x, y);
        const std::uint64_t key = pairKey(lo, hi);
        const auto it = shard.pairIndex.find(key);
        if (it != shard.pairIndex.end()) {
            ++shard.stats.memoHits;
            if (it->second != kOrderedPair)
                shard.races[it->second].addrs.push_back(addr);
            return;
        }
        ++shard.stats.reachQueries;
        if (reach.ordered(lo, hi)) {
            // Memoize the verdict: an ordered pair conflicting on
            // many addresses must not re-run the oracle per address.
            shard.pairIndex.emplace(key, kOrderedPair);
            ++shard.stats.orderedPairs;
            return;
        }
        DataRace r;
        r.a = lo;
        r.b = hi;
        r.addrs.push_back(addr);
        r.isDataRace = isData;
        wmr_assert(shard.races.size() < kOrderedPair);
        shard.pairIndex.emplace(
            key, static_cast<std::uint32_t>(shard.races.size()));
        shard.races.push_back(std::move(r));
    };

    for (Addr a = first; a < last; ++a) {
        const auto &acc = byAddr[a];
        if (!acc.writers.empty())
            ++shard.stats.indexedAddrs;
        for (std::size_t i = 0; i < acc.writers.size(); ++i) {
            for (std::size_t j = i + 1; j < acc.writers.size(); ++j)
                consider(acc.writers[i], acc.writers[j], a);
            for (const EventId r : acc.readers)
                consider(acc.writers[i], r, a);
        }
    }
}

/**
 * Cut the address range into @p shards contiguous ranges of roughly
 * equal candidate-pair cost.  The split depends only on the accessor
 * lists, never on thread scheduling.
 */
std::vector<Addr>
shardBoundaries(const std::vector<AddrAccess> &byAddr,
                unsigned shards)
{
    std::vector<double> cost(byAddr.size());
    double total = 0;
    for (std::size_t a = 0; a < byAddr.size(); ++a) {
        const double w = static_cast<double>(byAddr[a].writers.size());
        const double r = static_cast<double>(byAddr[a].readers.size());
        cost[a] = w * (w - 1) / 2 + w * r;
        total += cost[a];
    }

    std::vector<Addr> bounds;
    bounds.push_back(0);
    double acc = 0;
    for (std::size_t a = 0;
         a < byAddr.size() && bounds.size() < shards; ++a) {
        acc += cost[a];
        if (acc >= total * static_cast<double>(bounds.size()) /
                       shards) {
            bounds.push_back(static_cast<Addr>(a + 1));
        }
    }
    // Pad when the cost mass ran out early: trailing empty ranges.
    while (bounds.size() < static_cast<std::size_t>(shards) + 1)
        bounds.push_back(static_cast<Addr>(byAddr.size()));
    return bounds;
}

} // namespace

std::vector<DataRace>
findRaces(const ExecutionTrace &trace, const ReachabilityIndex &reach,
          const RaceFinderOptions &opts, unsigned threads,
          RaceFinderStats *stats)
{
    const auto &events = trace.events();

    // Index events by accessed address.
    std::vector<AddrAccess> byAddr(trace.memWords());
    const auto cover = [&](Addr a) -> AddrAccess & {
        if (a >= byAddr.size())
            byAddr.resize(a + 1);
        return byAddr[a];
    };

    // The access split the single-pass detectors share: an event
    // both reading and writing a word sits in writers only.
    AccessSplit split;
    for (const auto &ev : events) {
        splitAccesses(ev, split);
        for (const Addr a : split.writes)
            cover(a).writers.push_back(ev.id);
        for (const Addr a : split.reads)
            cover(a).readers.push_back(ev.id);
    }

    // Shard the address range and enumerate candidates; shard 0 only
    // (== the serial path) needs no worker threads at all.
    const unsigned shards = std::max<unsigned>(
        1, std::min<std::size_t>(resolveThreads(threads),
                                 byAddr.size()));
    std::vector<ShardState> shardStates(shards);
    if (shards == 1) {
        runShard(byAddr, 0, static_cast<Addr>(byAddr.size()), trace,
                 reach, opts, shardStates[0]);
    } else {
        const auto bounds = shardBoundaries(byAddr, shards);
        WorkerPool pool(shards, [&](unsigned s) {
            runShard(byAddr, bounds[s], bounds[s + 1], trace, reach,
                     opts, shardStates[s]);
        });
        pool.join();
    }

    // Deterministic merge: a pair that conflicts on addresses in
    // several shards was enumerated (and oracle-checked) by each of
    // them; union the address lists under the first occurrence.
    std::vector<DataRace> races;
    std::unordered_map<std::uint64_t, std::size_t> merged;
    for (auto &shard : shardStates) {
        for (auto &r : shard.races) {
            const std::uint64_t key = pairKey(r.a, r.b);
            const auto it = merged.find(key);
            if (it == merged.end()) {
                merged.emplace(key, races.size());
                races.push_back(std::move(r));
            } else {
                auto &dst = races[it->second].addrs;
                dst.insert(dst.end(), r.addrs.begin(),
                           r.addrs.end());
            }
        }
        if (stats) {
            stats->indexedAddrs += shard.stats.indexedAddrs;
            stats->candidatePairs += shard.stats.candidatePairs;
            stats->memoHits += shard.stats.memoHits;
            stats->reachQueries += shard.stats.reachQueries;
            stats->orderedPairs += shard.stats.orderedPairs;
        }
    }
    if (stats)
        stats->shards = shards;

    // Canonical output, independent of sharding: sort by (a, b) and
    // sort/dedupe each address list.
    std::sort(races.begin(), races.end(),
              [](const DataRace &x, const DataRace &y) {
                  return x.a != y.a ? x.a < y.a : x.b < y.b;
              });
    for (auto &r : races) {
        std::sort(r.addrs.begin(), r.addrs.end());
        r.addrs.erase(std::unique(r.addrs.begin(), r.addrs.end()),
                      r.addrs.end());
    }
    return races;
}

} // namespace wmr
