/**
 * @file
 * Enumeration of the races of a traced execution.
 *
 * Two events can race only on a word both access, so the finder
 * indexes every (word, class, event) access once and sorts the index
 * by word and class.  The class comes from the access split the
 * single-pass detectors share (hb/access_history.hh): data write,
 * data read, sync write or sync read.  Per word the walk pairs data
 * writes with every other access and sync writes with data reads;
 * sync writes meet the other sync accesses only when sync-sync
 * general races are asked for, since such a pair is never a data
 * race (Def. 2.4).  Pairs of one processor are po-ordered and
 * skipped; every other candidate asks the hb1 reachability oracle, an
 * O(P) clock comparison.  The index holds only the words the events
 * access, never the trace's declared universe.
 *
 * The walk can run on several threads: the index is cut at word
 * boundaries into ranges with about equal numbers of walked pairs,
 * each shard lists its racing (pair, word) hits, and one sort of all
 * hits yields the canonical races (ascending by (a, b), each listing
 * its words ascending), byte-identical at every thread count.
 */

#ifndef WMR_DETECT_RACE_FINDER_HH
#define WMR_DETECT_RACE_FINDER_HH

#include <cstdint>
#include <vector>

#include "detect/race.hh"
#include "hb/reachability.hh"
#include "trace/execution_trace.hh"

namespace wmr {

/** Options of the race enumeration. */
struct RaceFinderOptions
{
    /**
     * Also report sync-sync conflicting unordered pairs (general
     * races that are NOT data races, Def. 2.4).  Off by default; the
     * paper's method reports data races.
     */
    bool includeSyncSyncRaces = false;
};

/** Work counters of one findRaces() call (summed over shards). */
struct RaceFinderStats
{
    /** Word ranges walked, one per thread. */
    unsigned shards = 1;

    /** Words with at least one writing access. */
    std::uint64_t indexedAddrs = 0;

    /** Cross-processor (pair, word) candidates walked: a pair that
     *  conflicts on n words counts n times. */
    std::uint64_t candidatePairs = 0;

    /** reach.ordered() oracle queries: one per candidate, so always
     *  equal to candidatePairs. */
    std::uint64_t reachQueries = 0;

    /** Candidates the oracle found hb1-ordered. */
    std::uint64_t orderedPairs = 0;
};

/**
 * Enumerate the races of @p trace under the hb1 order @p reach.
 * Each returned race lists every conflicting location of its event
 * pair.
 *
 * @p threads shards the candidate enumeration (0 = hardware
 * concurrency); the returned vector is byte-identical for every
 * value.  @p stats, when non-null, receives the work counters.
 */
std::vector<DataRace> findRaces(const ExecutionTrace &trace,
                                const ReachabilityIndex &reach,
                                const RaceFinderOptions &opts = {},
                                unsigned threads = 1,
                                RaceFinderStats *stats = nullptr);

} // namespace wmr

#endif // WMR_DETECT_RACE_FINDER_HH
