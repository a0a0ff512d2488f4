#include "serve/result_cache.hh"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/crc32.hh"
#include "common/hash64.hh"
#include "common/logging.hh"
#include "common/string_util.hh"
#include "fault/fault.hh"
#include "obs/obs.hh"
#include "serve/io_util.hh"

namespace fs = std::filesystem;

namespace wmr::serve {

namespace {

// Disk entry: magic, CRC of the payload, then the payload — which is
// a whole encoded response frame, so the on-disk format shares the
// wire codec instead of inventing a second meta serialization.  A
// torn/corrupt file fails the CRC and is treated as a miss.
constexpr char kDiskMagic[8] = {'W', 'M', 'R', 'R',
                                'E', 'S', '0', '1'};

// Flat per-entry bookkeeping charge (list/map nodes, key, strings'
// headers) added to the payload bytes so thousands of tiny cached
// reports still count against the budget.
constexpr std::uint64_t kEntryOverheadBytes = 256;

} // namespace

std::uint32_t
cacheRelevantFlags(std::uint32_t requestFlags)
{
    // Salvage changes what gets analyzed; the engine selector
    // changes what report the same bytes produce.  Both must be part
    // of the key or a family report could answer an hb1 request.
    return requestFlags & (kReqSalvage | kReqEngineMask);
}

ResultCache::ResultCache(std::uint64_t byteBudget,
                         std::string persistDir)
    : byteBudget_(byteBudget), persistDir_(std::move(persistDir))
{
    stats_.byteBudget = byteBudget_;
    if (!persistDir_.empty()) {
        std::error_code ec;
        fs::create_directories(persistDir_, ec);
        if (ec)
            warn("result cache: cannot create %s: %s",
                 persistDir_.c_str(), ec.message().c_str());
    }
}

std::string
ResultCache::entryFileName(const CacheKey &key, std::uint32_t version)
{
    return strformat("h%s-s%llu-f%u-v%u.wmres",
                     hash64Hex(key.hash).c_str(),
                     static_cast<unsigned long long>(key.bytes),
                     key.flags, version);
}

std::uint64_t
ResultCache::entryCost(const CachedResult &v) const
{
    return kEntryOverheadBytes + v.report.size() +
           v.meta.error.size();
}

void
ResultCache::evictToFitLocked(std::uint64_t need)
{
    while (!lru_.empty() &&
           stats_.bytes + need > byteBudget_) {
        const Entry &cold = lru_.back();
        stats_.bytes -= cold.cost;
        stats_.entries -= 1;
        stats_.evictions += 1;
        index_.erase(cold.key);
        lru_.pop_back();
    }
}

void
ResultCache::insertLocked(const CacheKey &key,
                          const CachedResult &value)
{
    auto it = index_.find(key);
    if (it != index_.end()) {
        stats_.bytes -= it->second->cost;
        stats_.entries -= 1;
        lru_.erase(it->second);
        index_.erase(it);
    }
    const std::uint64_t cost = entryCost(value);
    if (cost > byteBudget_)
        return; // larger than the whole memory tier
    evictToFitLocked(cost);
    lru_.push_front(Entry{key, value, cost});
    index_.emplace(key, lru_.begin());
    stats_.bytes += cost;
    stats_.entries += 1;
    stats_.insertions += 1;
}

bool
ResultCache::loadFromDiskLocked(const CacheKey &key,
                                CachedResult &out)
{
    if (persistDir_.empty())
        return false;
    const std::string path =
        persistDir_ + "/" + entryFileName(key);
    std::vector<std::uint8_t> bytes;
    if (!readWholeFile(path, bytes))
        return false; // absent — the common case, not an error
    if (bytes.size() < sizeof(kDiskMagic) + 4 ||
        std::memcmp(bytes.data(), kDiskMagic, sizeof(kDiskMagic)) !=
            0) {
        stats_.diskErrors += 1;
        return false;
    }
    const std::uint8_t *crcP = bytes.data() + sizeof(kDiskMagic);
    const std::uint32_t stored =
        static_cast<std::uint32_t>(crcP[0]) |
        (static_cast<std::uint32_t>(crcP[1]) << 8) |
        (static_cast<std::uint32_t>(crcP[2]) << 16) |
        (static_cast<std::uint32_t>(crcP[3]) << 24);
    const std::uint8_t *payload = crcP + 4;
    const std::size_t payloadLen =
        bytes.size() - sizeof(kDiskMagic) - 4;
    if (crc32(payload, payloadLen) != stored) {
        stats_.diskErrors += 1;
        return false; // torn write: never served
    }
    Response resp;
    std::string error;
    if (!decodeResponseFrame(payload, payloadLen, resp, error)) {
        stats_.diskErrors += 1;
        return false;
    }
    out.meta = std::move(resp.meta);
    out.respFlags = resp.flags;
    out.report = std::move(resp.report);
    return true;
}

void
ResultCache::persistToDisk(const CacheKey &key,
                           const CachedResult &value)
{
    if (persistDir_.empty())
        return;
    Response resp;
    resp.status = RespStatus::Ok;
    resp.flags = value.respFlags;
    resp.meta = value.meta;
    resp.report = value.report;
    const std::vector<std::uint8_t> frame =
        encodeResponseFrame(resp);
    std::vector<std::uint8_t> bytes;
    bytes.reserve(sizeof(kDiskMagic) + 4 + frame.size());
    bytes.insert(bytes.end(), kDiskMagic,
                 kDiskMagic + sizeof(kDiskMagic));
    const std::uint32_t crc = crc32(frame.data(), frame.size());
    for (int i = 0; i < 4; ++i)
        bytes.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
    bytes.insert(bytes.end(), frame.begin(), frame.end());
    // Fault injection: a torn disk-tier write — the entry loses its
    // tail after the CRC was stamped, modelling a lost page behind a
    // completed rename.  The read side's CRC must turn it into a
    // counted miss (stats_.diskErrors), never a served wrong report.
    if (fault::at("serve.cache.torn") && bytes.size() > 16)
        bytes.resize(bytes.size() / 2);
    const std::string path =
        persistDir_ + "/" + entryFileName(key);
    const AtomicWriteStatus st = writeFileAtomicStatus(path, bytes);
    if (st != AtomicWriteStatus::Ok) {
        // Counted, non-fatal: the memory tier still has the entry;
        // only persistence across restarts is lost.
        obs::counter("serve.cache.disk_write_fail").inc();
        if (st != AtomicWriteStatus::NoSpace)
            warn("result cache: cannot persist %s", path.c_str());
    }
}

bool
ResultCache::get(const CacheKey &key, CachedResult &out)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        out = it->second->value;
        stats_.hits += 1;
        return true;
    }
    CachedResult fromDisk;
    if (loadFromDiskLocked(key, fromDisk)) {
        insertLocked(key, fromDisk);
        out = std::move(fromDisk);
        stats_.hits += 1;
        stats_.diskHits += 1;
        return true;
    }
    stats_.misses += 1;
    return false;
}

void
ResultCache::put(const CacheKey &key, const CachedResult &value)
{
    persistToDisk(key, value);
    std::lock_guard<std::mutex> lock(mu_);
    insertLocked(key, value);
}

CacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
ResultCache::dropMemoryForTest()
{
    std::lock_guard<std::mutex> lock(mu_);
    lru_.clear();
    index_.clear();
    stats_.bytes = 0;
    stats_.entries = 0;
}

} // namespace wmr::serve
