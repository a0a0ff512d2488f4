/**
 * @file
 * The content-addressed analysis result cache of the serve
 * subsystem.
 *
 * Analysis is DETERMINISTIC — PR 4/5 prove reports byte-identical
 * across thread counts and obs on/off — so a result is a pure
 * function of (trace bytes, salvage mode) and caching is sound: the
 * key is the CRC32-extended 64-bit content digest of the uploaded
 * bytes (common/hash64.hh) plus the exact byte length and the
 * request flags that change the result (salvage).  Identical
 * uploads are answered from here byte-identically, without touching
 * the analysis engine.
 *
 * Two tiers:
 *  - MEMORY: an LRU list under a byte budget; insertion evicts from
 *    the cold end until the new entry fits.  Entries are whole
 *    responses (meta + report text), costed at their string sizes
 *    plus a fixed per-entry overhead so the accounting cannot creep.
 *  - DISK (optional): a directory of one file per key and report
 *    format version, written temp-then-rename and CRC-framed so a
 *    torn write is detected and ignored, never served.  A memory
 *    miss falls through to disk and re-warms the memory tier; memory
 *    eviction does NOT delete the disk copy (disk is the durable
 *    tier, trimmed out of band).
 *
 * Thread safety: one mutex around both tiers.  Lookups are
 * string-copy cheap next to an analysis, and the serve accept loop
 * is the only hot caller.
 */

#ifndef WMR_SERVE_RESULT_CACHE_HH
#define WMR_SERVE_RESULT_CACHE_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "detect/report_model.hh"
#include "serve/protocol.hh"

namespace wmr::serve {

/** The content address of one analysis result. */
struct CacheKey
{
    std::uint64_t hash = 0;  ///< contentHash64 of the trace bytes
    std::uint64_t bytes = 0; ///< exact upload length
    std::uint32_t flags = 0; ///< result-relevant request flags

    bool
    operator==(const CacheKey &o) const
    {
        return hash == o.hash && bytes == o.bytes &&
               flags == o.flags;
    }
};

/** @return the request flag bits that change the analysis result
 *  (cache-key relevant): salvage changes what a damaged upload
 *  parses to; no-cache is a policy bit, not a result bit. */
std::uint32_t cacheRelevantFlags(std::uint32_t requestFlags);

/** One cached response: everything needed to answer byte-identically
 *  (the serve layer adds the cache-hit flag on the way out). */
struct CachedResult
{
    ResponseMeta meta;
    std::uint32_t respFlags = 0; ///< anyDataRace/salvaged bits
    std::string report;
};

/** Point-in-time cache accounting. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t diskHits = 0;   ///< misses recovered from disk
    std::uint64_t diskErrors = 0; ///< unreadable/torn disk entries
    std::uint64_t bytes = 0;      ///< memory tier, accounted bytes
    std::uint64_t entries = 0;    ///< memory tier, entry count
    std::uint64_t byteBudget = 0;
};

class ResultCache
{
  public:
    /**
     * @p byteBudget bounds the memory tier (0 = caching disabled:
     * every get misses, every put is dropped).  @p persistDir "" =
     * memory only; otherwise the directory is created if missing.
     */
    explicit ResultCache(std::uint64_t byteBudget,
                         std::string persistDir = "");

    /** Look up @p key; on hit copies into @p out and touches the
     *  entry most-recently-used. */
    bool get(const CacheKey &key, CachedResult &out);

    /** Insert @p value under @p key (replacing any stale entry),
     *  evicting least-recently-used entries until it fits.  An entry
     *  larger than the whole budget is persisted but not kept in
     *  memory. */
    void put(const CacheKey &key, const CachedResult &value);

    CacheStats stats() const;

    /** Drop the memory tier (disk survives).  Test support. */
    void dropMemoryForTest();

    /** @return the disk file name for @p key under report format
     *  @p version (entry naming is part of the persistence contract;
     *  see docs/SERVE.md).  Lookups use kReportFormatVersion only, so
     *  entries of another report format always miss. */
    static std::string
    entryFileName(const CacheKey &key,
                  std::uint32_t version = kReportFormatVersion);

  private:
    struct Entry
    {
        CacheKey key;
        CachedResult value;
        std::uint64_t cost = 0;
    };

    struct KeyHasher
    {
        std::size_t
        operator()(const CacheKey &k) const
        {
            // hash is already uniform; fold in the low key fields.
            return static_cast<std::size_t>(
                k.hash ^ (k.bytes * 0x9e3779b97f4a7c15ull) ^
                k.flags);
        }
    };

    std::uint64_t entryCost(const CachedResult &v) const;
    void evictToFitLocked(std::uint64_t need);
    bool loadFromDiskLocked(const CacheKey &key, CachedResult &out);
    void persistToDisk(const CacheKey &key,
                       const CachedResult &value);
    void insertLocked(const CacheKey &key, const CachedResult &value);

    const std::uint64_t byteBudget_;
    const std::string persistDir_;

    mutable std::mutex mu_;
    std::list<Entry> lru_; ///< front = most recently used
    std::unordered_map<CacheKey, std::list<Entry>::iterator,
                       KeyHasher>
        index_;
    CacheStats stats_;
};

} // namespace wmr::serve

#endif // WMR_SERVE_RESULT_CACHE_HH
