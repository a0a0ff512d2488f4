#include "detect/race_finder.hh"

#include <algorithm>
#include <compare>

#include "common/worker_pool.hh"
#include "hb/access_history.hh"

namespace wmr {

namespace {

/**
 * The class of one (event, word) access.  The index sorts by word,
 * then class, so each word's accesses form four consecutive runs in
 * this order.
 */
enum AccessClass : unsigned
{
    kDataWrite,
    kDataRead,
    kSyncWrite,
    kSyncRead,
    kClasses
};

/** One access of the index. */
struct Access
{
    std::uint64_t key; ///< word << 2 | class
    EventId ev;
    ProcId proc;

    Addr word() const { return static_cast<Addr>(key >> 2); }
};

std::uint64_t
accessKey(Addr word, unsigned cls)
{
    return static_cast<std::uint64_t>(word) << 2 | cls;
}

/** The class runs of the word whose first access is index[first]:
 *  class c spans [at[c], at[c + 1]). */
struct WordRuns
{
    std::size_t at[kClasses + 1];

    WordRuns(const std::vector<Access> &index, std::size_t first)
    {
        const Addr word = index[first].word();
        std::size_t i = first;
        at[0] = i;
        for (unsigned c = 0; c < kClasses; ++c) {
            while (i < index.size() && index[i].key == accessKey(word, c))
                ++i;
            at[c + 1] = i;
        }
    }

    std::uint64_t size(unsigned c) const { return at[c + 1] - at[c]; }

    /** Pairs the walk steps on this word, same-processor ones
     *  included. */
    std::uint64_t
    pairs(bool syncSync) const
    {
        const std::uint64_t dw = size(kDataWrite);
        const std::uint64_t sw = size(kSyncWrite);
        std::uint64_t n = dw * (dw - 1) / 2 +
                          dw * (size(kDataRead) + sw + size(kSyncRead)) +
                          sw * size(kDataRead);
        if (syncSync)
            n += sw * (sw - 1) / 2 + sw * size(kSyncRead);
        return n;
    }
};

/** A racing pair on one word: pair = a << 32 | b with a < b. */
struct Hit
{
    std::uint64_t pair;
    Addr word;

    auto operator<=>(const Hit &) const = default;
};

/** One shard's racing hits and work counters; shards share nothing,
 *  so workers need no locking. */
struct Shard
{
    std::vector<Hit> hits;
    RaceFinderStats stats;
};

/** Walk the words of index[first, last), a range of whole words. */
void
walkWords(const std::vector<Access> &index, std::size_t first,
          std::size_t last, const ReachabilityIndex &reach,
          bool syncSync, Shard &shard)
{
    Addr word = 0;
    const auto consider = [&](const Access &x, const Access &y) {
        if (x.proc == y.proc)
            return; // po-ordered for sure
        ++shard.stats.candidatePairs;
        const EventId lo = std::min(x.ev, y.ev);
        const EventId hi = std::max(x.ev, y.ev);
        if (reach.ordered(lo, hi)) {
            ++shard.stats.orderedPairs;
            return;
        }
        shard.hits.push_back(
            {static_cast<std::uint64_t>(lo) << 32 | hi, word});
    };
    // Every pair of class run i with a later access of run j.
    const auto pairRuns = [&](const WordRuns &r, unsigned i,
                              unsigned j) {
        for (std::size_t x = r.at[i]; x < r.at[i + 1]; ++x) {
            for (std::size_t y = i == j ? x + 1 : r.at[j];
                 y < r.at[j + 1]; ++y)
                consider(index[x], index[y]);
        }
    };

    for (std::size_t w = first; w < last;) {
        const WordRuns r(index, w);
        word = index[w].word();
        if (r.size(kDataWrite) + r.size(kSyncWrite) != 0)
            ++shard.stats.indexedAddrs;
        for (unsigned c = kDataWrite; c < kClasses; ++c)
            pairRuns(r, kDataWrite, c);
        pairRuns(r, kSyncWrite, kDataRead);
        if (syncSync) {
            pairRuns(r, kSyncWrite, kSyncWrite);
            pairRuns(r, kSyncWrite, kSyncRead);
        }
        w = r.at[kClasses];
    }
}

/**
 * Cut the index into at most @p shards ranges of whole words with
 * about equal numbers of walked pairs.  The cuts depend only on the
 * index, never on thread scheduling.
 */
std::vector<std::size_t>
shardCuts(const std::vector<Access> &index, unsigned shards,
          bool syncSync)
{
    if (shards <= 1)
        return {0, index.size()};
    double total = 0;
    std::size_t words = 0;
    for (std::size_t w = 0; w < index.size(); ++words) {
        const WordRuns r(index, w);
        total += static_cast<double>(r.pairs(syncSync));
        w = r.at[kClasses];
    }
    shards = static_cast<unsigned>(
        std::clamp<std::size_t>(words, 1, shards));

    std::vector<std::size_t> cuts{0};
    double acc = 0;
    for (std::size_t w = 0; w < index.size() && cuts.size() < shards;) {
        const WordRuns r(index, w);
        acc += static_cast<double>(r.pairs(syncSync));
        w = r.at[kClasses];
        if (acc >= total * static_cast<double>(cuts.size()) / shards)
            cuts.push_back(w);
    }
    // Pad when the pair mass ran out early: trailing empty ranges.
    while (cuts.size() < static_cast<std::size_t>(shards) + 1)
        cuts.push_back(index.size());
    return cuts;
}

} // namespace

std::vector<DataRace>
findRaces(const ExecutionTrace &trace, const ReachabilityIndex &reach,
          const RaceFinderOptions &opts, unsigned threads,
          RaceFinderStats *stats)
{
    const auto &events = trace.events();

    // The index: every (word, class, event) access of the access
    // split the single-pass detectors share, sorted once.
    std::size_t bound = 0;
    for (const auto &ev : events)
        bound += ev.kind == EventKind::Sync
                     ? 1
                     : ev.readSet.size() + ev.writeSet.size();
    std::vector<Access> index;
    index.reserve(bound);
    AccessSplit split;
    for (const auto &ev : events) {
        splitAccesses(ev, split);
        const unsigned writeCls = split.sync ? kSyncWrite : kDataWrite;
        for (const Addr a : split.writes)
            index.push_back({accessKey(a, writeCls), ev.id, ev.proc});
        for (const Addr a : split.reads)
            index.push_back({accessKey(a, writeCls + 1), ev.id, ev.proc});
    }
    std::sort(index.begin(), index.end(),
              [](const Access &x, const Access &y) {
                  return x.key < y.key;
              });

    // Walk the word ranges; one range (the serial path) needs no
    // worker threads at all.
    const bool syncSync = opts.includeSyncSyncRaces;
    const auto cuts = shardCuts(index, resolveThreads(threads), syncSync);
    const auto shards = static_cast<unsigned>(cuts.size() - 1);
    std::vector<Shard> shardStates(shards);
    if (shards == 1) {
        walkWords(index, cuts[0], cuts[1], reach, syncSync,
                  shardStates[0]);
    } else {
        WorkerPool pool(shards, [&](unsigned s) {
            walkWords(index, cuts[s], cuts[s + 1], reach, syncSync,
                      shardStates[s]);
        });
        pool.join();
    }

    // One sort of every shard's hits gives the canonical races:
    // ascending by (a, b), each listing its words ascending.  An
    // event holds one class per word, so no hit repeats.
    std::vector<Hit> hits = std::move(shardStates[0].hits);
    for (unsigned s = 1; s < shards; ++s) {
        hits.insert(hits.end(), shardStates[s].hits.begin(),
                    shardStates[s].hits.end());
    }
    std::sort(hits.begin(), hits.end());

    std::vector<DataRace> races;
    for (const Hit &h : hits) {
        const auto a = static_cast<EventId>(h.pair >> 32);
        const auto b = static_cast<EventId>(h.pair);
        if (races.empty() || races.back().a != a || races.back().b != b) {
            DataRace r;
            r.a = a;
            r.b = b;
            r.isDataRace = events[a].kind == EventKind::Computation ||
                           events[b].kind == EventKind::Computation;
            races.push_back(std::move(r));
        }
        races.back().addrs.push_back(h.word);
    }

    if (stats) {
        for (const Shard &s : shardStates) {
            stats->indexedAddrs += s.stats.indexedAddrs;
            stats->candidatePairs += s.stats.candidatePairs;
            stats->reachQueries += s.stats.candidatePairs;
            stats->orderedPairs += s.stats.orderedPairs;
        }
        stats->shards = shards;
    }
    return races;
}

} // namespace wmr
