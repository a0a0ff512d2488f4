/**
 * @file
 * Unit tests of the serve subsystem (src/serve/): protocol framing,
 * the content-addressed result cache (memory LRU + disk tier), and
 * the server end to end over real unix-domain sockets — cache-hit
 * byte-identity, admission-control overload rejection, graceful
 * drain, and crash recovery from the request spool.
 *
 * The server tests talk to an in-process Server through the public
 * client (serve/client.hh), exactly as `wmrace submit` does, so
 * every wire path is the production one.  Deterministic overload is
 * produced with ServeOptions::testAnalysisGate: workers park on a
 * latch, the bounded queue floods, tryPush rejects.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/hash64.hh"
#include "fault/fault.hh"
#include "obs/obs.hh"
#include "common/string_util.hh"
#include "detect/analysis.hh"
#include "detect/report.hh"
#include "pipeline/batch_runner.hh"
#include "pipeline/checkpoint.hh"
#include "serve/client.hh"
#include "serve/io_util.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "serve/server.hh"
#include "damage_cases.hh"
#include "trace/segmented_io.hh"
#include "trace/trace_io.hh"
#include "workload/synthetic_trace.hh"

namespace fs = std::filesystem;

using namespace wmr;
using namespace wmr::serve;

namespace {

/** mkdtemp-backed scratch directory, removed on destruction. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char buf[] = "/tmp/wmrserveXXXXXX";
        const char *p = ::mkdtemp(buf);
        EXPECT_NE(p, nullptr);
        path = p ? p : "";
    }

    ~TempDir()
    {
        if (!path.empty()) {
            std::error_code ec;
            fs::remove_all(path, ec);
        }
    }
};

/** A small deterministic trace upload, distinct per seed. */
std::vector<std::uint8_t>
makeTraceBytes(std::uint64_t seed)
{
    SyntheticTraceOptions o;
    o.procs = 4;
    o.eventsPerProc = 120;
    o.seed = seed;
    return serializeSegmentedTrace(makeSyntheticTrace(o));
}

/** What `wmrace check [--salvage]` prints for an upload — the
 *  byte-identity reference for served reports. */
std::string
localCheckReport(const std::vector<std::uint8_t> &bytes,
                 bool salvage = false)
{
    TraceReadResult loaded = tryDeserializeTrace(bytes, salvage);
    EXPECT_TRUE(loaded.ok()) << loaded.error;
    const DetectionResult det = analyzeTrace(std::move(loaded.trace));
    return formatTraceProvenance(loaded.segmented, loaded.salvage) +
           formatReport(det);
}

/** A worker latch for testAnalysisGate: workers entering the gate
 *  block until release(); the test observes how many arrived. */
struct AnalysisGate
{
    std::mutex mu;
    std::condition_variable cv;
    unsigned entered = 0;
    bool open = false;

    std::function<void()>
    hook()
    {
        return [this] {
            std::unique_lock<std::mutex> lk(mu);
            ++entered;
            cv.notify_all();
            cv.wait(lk, [this] { return open; });
        };
    }

    void
    waitEntered(unsigned n)
    {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return entered >= n; });
    }

    void
    release()
    {
        std::lock_guard<std::mutex> lk(mu);
        open = true;
        cv.notify_all();
    }
};

/** Poll until @p pred holds (bounded; the suites are deadline-free
 *  but CI boxes stall). */
template <typename Pred>
bool
pollFor(Pred pred, std::chrono::seconds limit = std::chrono::seconds(30))
{
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (!pred()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
}

} // namespace

// ---------------------------------------------------------------
// Protocol framing
// ---------------------------------------------------------------

TEST(ServeProtocol, RequestFrameRoundTripsOverSocket)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

    Request req;
    req.command = Command::Analyze;
    req.flags = kReqSalvage | kReqNoCache;
    req.body = {0x00, 0x01, 0xfe, 0xff, 0x42};

    const std::vector<std::uint8_t> frame = encodeRequestFrame(req);
    ASSERT_TRUE(writeAll(sv[0], frame.data(), frame.size()));

    Request got;
    std::string error;
    EXPECT_EQ(readRequest(sv[1], 1 << 20, got, error),
              FrameReadStatus::Ok)
        << error;
    EXPECT_EQ(got.command, Command::Analyze);
    EXPECT_EQ(got.flags, req.flags);
    EXPECT_EQ(got.body, req.body);

    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(ServeProtocol, ResponseFrameRoundTripsBothDecoders)
{
    Response resp;
    resp.status = RespStatus::Ok;
    resp.flags = kRespAnyDataRace | kRespSalvaged;
    resp.retryAfterMs = 77;
    resp.meta.fileBytes = 1234;
    resp.meta.events = 99;
    resp.meta.syncEvents = 12;
    resp.meta.ops = 400;
    resp.meta.races = 3;
    resp.meta.dataRaces = 2;
    resp.meta.partitions = 5;
    resp.meta.firstPartitions = 1;
    resp.meta.reportedRaces = 2;
    resp.meta.anyDataRace = true;
    resp.meta.salvaged = true;
    resp.meta.unresolvedPairings = 7;
    resp.meta.droppedDataRecords = 8;
    resp.meta.contentHash = 0xdeadbeefcafef00dull;
    resp.report = "REPORT BODY\nline two\n";

    const std::vector<std::uint8_t> frame =
        encodeResponseFrame(resp);

    // The in-memory decoder (the disk cache's read path).
    Response got;
    std::string error;
    ASSERT_TRUE(
        decodeResponseFrame(frame.data(), frame.size(), got, error))
        << error;
    EXPECT_EQ(got.status, RespStatus::Ok);
    EXPECT_EQ(got.flags, resp.flags);
    EXPECT_EQ(got.retryAfterMs, 77u);
    EXPECT_EQ(got.meta.events, 99u);
    EXPECT_EQ(got.meta.contentHash, resp.meta.contentHash);
    EXPECT_TRUE(got.meta.anyDataRace);
    EXPECT_TRUE(got.meta.salvaged);
    EXPECT_EQ(got.meta.unresolvedPairings, 7u);
    EXPECT_EQ(got.report, resp.report);

    // Trailing garbage is malformed, not silently ignored.
    std::vector<std::uint8_t> longer = frame;
    longer.push_back(0);
    EXPECT_FALSE(decodeResponseFrame(longer.data(), longer.size(),
                                     got, error));

    // The socket decoder sees the same fields.
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ASSERT_TRUE(writeAll(sv[0], frame.data(), frame.size()));
    Response got2;
    EXPECT_EQ(readResponse(sv[1], got2, error), FrameReadStatus::Ok)
        << error;
    EXPECT_EQ(got2.report, resp.report);
    EXPECT_EQ(got2.meta.dataRaces, 2u);
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(ServeProtocol, OversizedBodyIsRejectedBeforeRead)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

    Request req;
    req.body.assign(4096, 0xab);
    const std::vector<std::uint8_t> frame = encodeRequestFrame(req);
    ASSERT_TRUE(writeAll(sv[0], frame.data(), frame.size()));

    Request got;
    std::string error;
    EXPECT_EQ(readRequest(sv[1], 1024, got, error),
              FrameReadStatus::TooLarge);

    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(ServeProtocol, BadMagicIsMalformed)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

    const char junk[24] = "NOTAFRAME_____________!";
    ASSERT_TRUE(writeAll(sv[0], junk, sizeof(junk)));

    Request got;
    std::string error;
    EXPECT_EQ(readRequest(sv[1], 1 << 20, got, error),
              FrameReadStatus::Malformed);

    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(ServeProtocol, CacheRelevantFlagsKeepOnlySalvage)
{
    EXPECT_EQ(cacheRelevantFlags(kReqSalvage | kReqNoCache),
              kReqSalvage);
    EXPECT_EQ(cacheRelevantFlags(kReqNoCache), 0u);
}

// ---------------------------------------------------------------
// Result cache: LRU accounting + disk tier
// ---------------------------------------------------------------

namespace {

CachedResult
resultOfSize(std::size_t reportBytes, char fill = 'r')
{
    CachedResult v;
    v.report.assign(reportBytes, fill);
    v.meta.events = reportBytes;
    return v;
}

} // namespace

TEST(ServeCache, LruEvictionKeepsAccountingExact)
{
    // Per-entry cost = 256 overhead + report bytes (no meta error),
    // so two 1000-byte reports fit a 2600-byte budget, three don't.
    const std::uint64_t kCost = 256 + 1000;
    ResultCache cache(2 * kCost + 50);

    const CacheKey a{1, 10, 0}, b{2, 20, 0}, c{3, 30, 0};
    cache.put(a, resultOfSize(1000, 'a'));
    cache.put(b, resultOfSize(1000, 'b'));

    CacheStats st = cache.stats();
    EXPECT_EQ(st.entries, 2u);
    EXPECT_EQ(st.bytes, 2 * kCost);
    EXPECT_EQ(st.evictions, 0u);

    // Touch A so B is the LRU entry, then overflow with C.
    CachedResult out;
    ASSERT_TRUE(cache.get(a, out));
    EXPECT_EQ(out.report[0], 'a');
    cache.put(c, resultOfSize(1000, 'c'));

    st = cache.stats();
    EXPECT_EQ(st.entries, 2u);
    EXPECT_EQ(st.bytes, 2 * kCost);
    EXPECT_EQ(st.evictions, 1u);
    EXPECT_EQ(st.insertions, 3u);

    EXPECT_TRUE(cache.get(a, out));  // survived (was MRU)
    EXPECT_FALSE(cache.get(b, out)); // evicted (was LRU)
    EXPECT_TRUE(cache.get(c, out));

    // Replacing an entry must not double-count its bytes.
    cache.put(a, resultOfSize(1000, 'A'));
    st = cache.stats();
    EXPECT_EQ(st.entries, 2u);
    EXPECT_EQ(st.bytes, 2 * kCost);
    ASSERT_TRUE(cache.get(a, out));
    EXPECT_EQ(out.report[0], 'A');
}

TEST(ServeCache, ZeroBudgetDisablesCaching)
{
    ResultCache cache(0);
    const CacheKey k{42, 7, 0};
    cache.put(k, resultOfSize(10));
    CachedResult out;
    EXPECT_FALSE(cache.get(k, out));
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ServeCache, DiskTierSurvivesMemoryDropAndDetectsTornWrites)
{
    TempDir dir;
    ResultCache cache(1 << 20, dir.path);

    const CacheKey k{0x1122334455667788ull, 555, kReqSalvage};
    CachedResult v = resultOfSize(64, 'd');
    v.meta.contentHash = k.hash;
    v.meta.anyDataRace = true;
    v.respFlags = kRespAnyDataRace;
    cache.put(k, v);

    const std::string file =
        dir.path + "/" + ResultCache::entryFileName(k);
    ASSERT_TRUE(fs::exists(file));

    // Memory gone, disk answers — and re-warms the memory tier.
    cache.dropMemoryForTest();
    CachedResult out;
    ASSERT_TRUE(cache.get(k, out));
    EXPECT_EQ(out.report, v.report);
    EXPECT_EQ(out.respFlags, kRespAnyDataRace);
    EXPECT_TRUE(out.meta.anyDataRace);
    EXPECT_EQ(cache.stats().diskHits, 1u);
    ASSERT_TRUE(cache.get(k, out)); // now a memory hit again

    // A torn/corrupted entry fails its CRC and is treated as a
    // miss, never served.
    cache.dropMemoryForTest();
    {
        std::fstream f(file,
                       std::ios::in | std::ios::out |
                           std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekp(-1, std::ios::end); // clobber the report tail
        f.put('X');
    }
    EXPECT_FALSE(cache.get(k, out));
    EXPECT_GE(cache.stats().diskErrors, 1u);
}

// ---------------------------------------------------------------
// Server end to end (real sockets, production client)
// ---------------------------------------------------------------

namespace {

struct RunningServer
{
    ServeOptions opts;
    std::unique_ptr<Server> server;
    ServerAddress addr;
    TempDir dir;

    explicit RunningServer(
        std::function<void(ServeOptions &)> tweak = {})
    {
        opts.socketPath = dir.path + "/serve.sock";
        opts.jobs = 2;
        if (tweak)
            tweak(opts);
        server = std::make_unique<Server>(opts);
        EXPECT_TRUE(server->start()) << server->lastError();
        std::string error;
        EXPECT_TRUE(parseServerAddress(server->boundAddress(), addr,
                                       error))
            << error;
    }

    ~RunningServer()
    {
        if (server) {
            server->beginShutdown();
            server->waitDrained();
        }
    }
};

} // namespace

TEST(ServeServer, ReportIsByteIdenticalAndSecondSubmitHitsCache)
{
    RunningServer rs;
    const std::vector<std::uint8_t> bytes = makeTraceBytes(11);
    const std::string expected = localCheckReport(bytes);

    SubmitResult first = submitTraceBytes(rs.addr, bytes);
    ASSERT_TRUE(first.ok) << first.error;
    ASSERT_EQ(first.response.status, RespStatus::Ok)
        << first.response.meta.error;
    EXPECT_FALSE(first.response.cacheHit());
    EXPECT_EQ(first.response.report, expected);
    EXPECT_EQ(first.response.meta.fileBytes, bytes.size());
    EXPECT_EQ(first.response.meta.contentHash,
              contentHash64(bytes.data(), bytes.size()));

    SubmitResult second = submitTraceBytes(rs.addr, bytes);
    ASSERT_TRUE(second.ok) << second.error;
    ASSERT_EQ(second.response.status, RespStatus::Ok);
    EXPECT_TRUE(second.response.cacheHit());
    EXPECT_EQ(second.response.report, expected);

    // One analysis, one cache hit — the second submission never
    // touched the engine.
    EXPECT_EQ(rs.server->stats().analyses, 1u);
    EXPECT_EQ(rs.server->cacheStats().hits, 1u);

    SubmitResult status = queryStatus(rs.addr);
    ASSERT_TRUE(status.ok) << status.error;
    EXPECT_NE(status.response.report.find("wmrace-serve-status"),
              std::string::npos);
}

TEST(ServeServer, DiskEntryOfAnotherReportFormatIsReanalyzed)
{
    TempDir cacheDir;
    const auto withCacheDir = [&](ServeOptions &o) {
        o.cacheDir = cacheDir.path;
    };
    const std::vector<std::uint8_t> bytes = makeTraceBytes(13);
    const std::string expected = localCheckReport(bytes);
    const CacheKey key{contentHash64(bytes.data(), bytes.size()),
                       bytes.size(), 0};
    const std::string current =
        cacheDir.path + "/" + ResultCache::entryFileName(key);

    // An entry persisted under another report format: the same key,
    // old bytes.
    {
        ResultCache writer(1 << 20, cacheDir.path);
        CachedResult old;
        old.report = "a report in an older format\n";
        writer.put(key, old);
    }
    ASSERT_TRUE(fs::exists(current));
    fs::rename(current,
               cacheDir.path + "/" +
                   ResultCache::entryFileName(
                       key, kReportFormatVersion + 1));

    // A daemon misses it and analyzes the upload again...
    {
        RunningServer rs(withCacheDir);
        SubmitResult r = submitTraceBytes(rs.addr, bytes);
        ASSERT_TRUE(r.ok) << r.error;
        ASSERT_EQ(r.response.status, RespStatus::Ok);
        EXPECT_FALSE(r.response.cacheHit());
        EXPECT_EQ(r.response.report, expected);
        EXPECT_EQ(rs.server->stats().analyses, 1u);
    }
    ASSERT_TRUE(fs::exists(current));

    // ...and after a restart its own entry still hits.
    {
        RunningServer rs(withCacheDir);
        SubmitResult r = submitTraceBytes(rs.addr, bytes);
        ASSERT_TRUE(r.ok) << r.error;
        ASSERT_EQ(r.response.status, RespStatus::Ok);
        EXPECT_TRUE(r.response.cacheHit());
        EXPECT_EQ(r.response.report, expected);
        EXPECT_EQ(rs.server->stats().analyses, 0u);
        EXPECT_EQ(rs.server->cacheStats().diskHits, 1u);
    }
}

TEST(ServeServer, NoCacheFlagBypassesTheCache)
{
    RunningServer rs;
    const std::vector<std::uint8_t> bytes = makeTraceBytes(12);

    SubmitOptions opts;
    opts.noCache = true;
    SubmitResult a = submitTraceBytes(rs.addr, bytes, opts);
    ASSERT_TRUE(a.ok && a.response.ok()) << a.error;
    SubmitResult b = submitTraceBytes(rs.addr, bytes, opts);
    ASSERT_TRUE(b.ok && b.response.ok()) << b.error;
    EXPECT_FALSE(b.response.cacheHit());
    EXPECT_EQ(rs.server->stats().analyses, 2u);
    EXPECT_EQ(a.response.report, b.response.report);
}

TEST(ServeServer, UnparseableUploadIsBadRequest)
{
    RunningServer rs;
    const std::string junk = "NOTATRC!this is not a trace container";
    const std::vector<std::uint8_t> bytes(junk.begin(), junk.end());

    SubmitResult res = submitTraceBytes(rs.addr, bytes);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.response.status, RespStatus::BadRequest);
    EXPECT_NE(res.response.meta.error.find("unrecognized magic"),
              std::string::npos)
        << res.response.meta.error;
    EXPECT_EQ(rs.server->stats().badRequests, 1u);

    // A well-formed legacy WMRTRC01 upload whose acquire pairs with an
    // event id past the end of the file: refused as BadRequest, and
    // the daemon is still there to answer the next request.
    std::ifstream in(std::string(WMR_FUZZ_DIR) +
                         "/legacy_pairing_out_of_range.bin",
                     std::ios::binary);
    ASSERT_TRUE(in.good());
    const std::vector<std::uint8_t> badPairing(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    SubmitResult bad = submitTraceBytes(rs.addr, badPairing);
    ASSERT_TRUE(bad.ok) << bad.error;
    EXPECT_EQ(bad.response.status, RespStatus::BadRequest);
    EXPECT_NE(bad.response.meta.error.find("pairing"),
              std::string::npos)
        << bad.response.meta.error;
    EXPECT_EQ(rs.server->stats().badRequests, 2u);

    SubmitResult next = submitTraceBytes(rs.addr, makeTraceBytes(3));
    ASSERT_TRUE(next.ok) << next.error;
    EXPECT_EQ(next.response.status, RespStatus::Ok)
        << next.response.meta.error;
}

TEST(ServeServer, SalvageUploadMatchesLocalSalvageCheck)
{
    SyntheticTraceOptions o;
    o.procs = 4;
    o.eventsPerProc = 120;
    o.seed = 21;
    std::vector<std::uint8_t> bytes =
        serializeSegmentedTrace(makeSyntheticTrace(o));
    bytes.resize(bytes.size() * 3 / 4); // tear off the tail
    const std::string expected =
        localCheckReport(bytes, /*salvage=*/true);

    RunningServer rs;

    // Without --salvage the strict reader refuses the damage.
    SubmitResult strict = submitTraceBytes(rs.addr, bytes);
    ASSERT_TRUE(strict.ok) << strict.error;
    EXPECT_EQ(strict.response.status, RespStatus::BadRequest);

    SubmitOptions opts;
    opts.salvage = true;
    SubmitResult res = submitTraceBytes(rs.addr, bytes, opts);
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(res.response.status, RespStatus::Ok)
        << res.response.meta.error;
    EXPECT_TRUE(res.response.meta.salvaged);
    EXPECT_NE(res.response.flags & kRespSalvaged, 0u);
    EXPECT_EQ(res.response.report, expected);

    // Salvage mode is part of the cache key: the same bytes with
    // salvage on hit the salvage result, and the strict failure was
    // never cached.
    SubmitResult again = submitTraceBytes(rs.addr, bytes, opts);
    ASSERT_TRUE(again.ok && again.response.ok()) << again.error;
    EXPECT_TRUE(again.response.cacheHit());
    EXPECT_EQ(again.response.report, expected);

    // The damage cases every path must judge alike: the served
    // report equals the local salvage check, and a file salvage
    // cannot recover is refused with the local error.
    for (const auto &dc : testing_damage::damageCases()) {
        SubmitResult got = submitTraceBytes(rs.addr, dc.bytes, opts);
        ASSERT_TRUE(got.ok) << dc.name << ": " << got.error;
        const TraceReadResult local =
            tryDeserializeTrace(dc.bytes, /*salvage=*/true);
        if (local.ok()) {
            ASSERT_EQ(got.response.status, RespStatus::Ok)
                << dc.name << ": " << got.response.meta.error;
            EXPECT_EQ(got.response.report,
                      localCheckReport(dc.bytes, /*salvage=*/true))
                << dc.name;
        } else {
            EXPECT_EQ(got.response.status, RespStatus::BadRequest)
                << dc.name;
            EXPECT_EQ(got.response.meta.error, local.error) << dc.name;
        }
    }
}

TEST(ServeServer, FloodedQueueAnswersOverloadedWithRetryHint)
{
    AnalysisGate gate;
    RunningServer rs([&](ServeOptions &o) {
        o.workers = 1;
        o.maxQueue = 1;
        o.retryAfterMs = 123;
        o.cacheBytes = 0; // every submission must queue
        o.testAnalysisGate = gate.hook();
    });

    // A occupies the worker (parked on the gate), B fills the
    // 1-deep queue, so C must be rejected at admission.
    std::thread ta([&] {
        SubmitResult r = submitTraceBytes(rs.addr, makeTraceBytes(31));
        EXPECT_TRUE(r.ok && r.response.ok()) << r.error;
    });
    gate.waitEntered(1);

    std::thread tb([&] {
        SubmitResult r = submitTraceBytes(rs.addr, makeTraceBytes(32));
        EXPECT_TRUE(r.ok && r.response.ok()) << r.error;
    });
    ASSERT_TRUE(pollFor(
        [&] { return rs.server->stats().queueDepth >= 1; }))
        << "second submission never reached the queue";

    SubmitOptions once;
    once.maxAttempts = 1; // surface the rejection, don't retry
    SubmitResult rc =
        submitTraceBytes(rs.addr, makeTraceBytes(33), once);
    ASSERT_TRUE(rc.ok) << rc.error;
    EXPECT_EQ(rc.response.status, RespStatus::Overloaded);
    EXPECT_EQ(rc.response.retryAfterMs, 123u);
    EXPECT_GE(rs.server->stats().overloaded, 1u);

    // Release the latch: the parked and queued submissions finish.
    gate.release();
    ta.join();
    tb.join();
    EXPECT_EQ(rs.server->stats().analyses, 2u);

    // With the queue drained the retry loop succeeds end to end.
    SubmitOptions retrying;
    retrying.maxAttempts = 8;
    retrying.retryAfterMs = 10;
    SubmitResult rd =
        submitTraceBytes(rs.addr, makeTraceBytes(33), retrying);
    ASSERT_TRUE(rd.ok) << rd.error;
    EXPECT_EQ(rd.response.status, RespStatus::Ok);
}

TEST(ServeServer, ShutdownDrainsQueuedWorkBeforeExiting)
{
    AnalysisGate gate;
    auto rs = std::make_unique<RunningServer>([&](ServeOptions &o) {
        o.workers = 1;
        o.maxQueue = 4;
        o.cacheBytes = 0;
        o.testAnalysisGate = gate.hook();
    });

    std::thread ta([&] {
        SubmitResult r =
            submitTraceBytes(rs->addr, makeTraceBytes(41));
        EXPECT_TRUE(r.ok && r.response.ok()) << r.error;
    });
    gate.waitEntered(1);
    std::thread tb([&] {
        SubmitResult r =
            submitTraceBytes(rs->addr, makeTraceBytes(42));
        EXPECT_TRUE(r.ok && r.response.ok()) << r.error;
    });
    ASSERT_TRUE(pollFor(
        [&] { return rs->server->stats().queueDepth >= 1; }));

    // SIGTERM's handler calls exactly this; the queued request must
    // still be analyzed and answered before run() returns.
    rs->server->beginShutdown();
    gate.release();
    ta.join();
    tb.join();
    rs->server->waitDrained();
    EXPECT_EQ(rs->server->stats().analyses, 2u);
    EXPECT_EQ(rs->server->stats().queueDepth, 0u);
    rs->server.reset(); // the destructor's shutdown is a no-op path
    rs.reset();
}

TEST(ServeServer, CrashRecoveryReanalyzesUnjournaledSpoolEntries)
{
    TempDir spool;
    const std::vector<std::uint8_t> bytes = makeTraceBytes(51);
    const std::string expected = localCheckReport(bytes);
    const std::uint64_t hash =
        contentHash64(bytes.data(), bytes.size());

    // Simulate a server killed after admission, before completion:
    // the spool holds the request, the journal never saw it.
    const std::string orphan =
        spool.path + "/" +
        strformat("h%s-s%llu-f0.req", hash64Hex(hash).c_str(),
                  static_cast<unsigned long long>(bytes.size()));
    ASSERT_TRUE(writeFileAtomic(orphan, bytes));

    // And one request the dead server DID finish (journaled): it
    // must be cleaned up without re-analysis.
    const std::vector<std::uint8_t> doneBytes = makeTraceBytes(52);
    const std::uint64_t doneHash =
        contentHash64(doneBytes.data(), doneBytes.size());
    const std::string donePath =
        spool.path + "/" +
        strformat("h%s-s%llu-f0.req", hash64Hex(doneHash).c_str(),
                  static_cast<unsigned long long>(doneBytes.size()));
    ASSERT_TRUE(writeFileAtomic(donePath, doneBytes));
    {
        CheckpointWriter journal;
        ASSERT_TRUE(journal.open(spool.path + "/journal.wmrck"));
        TraceRunResult rr;
        rr.path = donePath;
        rr.status = TraceRunStatus::Ok;
        ASSERT_TRUE(journal.append(rr));
    }

    RunningServer rs([&](ServeOptions &o) {
        o.spoolDir = spool.path;
    });
    EXPECT_EQ(rs.server->stats().recovered, 1u);

    // Both spool entries are consumed either way.
    EXPECT_FALSE(fs::exists(orphan));
    EXPECT_FALSE(fs::exists(donePath));

    // The recovered analysis is already in the cache: the very
    // first submission of those bytes is a hit, byte-identical to
    // a local check, with zero server-side analyses.
    SubmitResult res = submitTraceBytes(rs.addr, bytes);
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(res.response.status, RespStatus::Ok)
        << res.response.meta.error;
    EXPECT_TRUE(res.response.cacheHit());
    EXPECT_EQ(res.response.report, expected);
    EXPECT_EQ(rs.server->stats().analyses, 0u);

    // The journaled entry was NOT re-analyzed into the cache.
    SubmitResult res2 = submitTraceBytes(rs.addr, doneBytes);
    ASSERT_TRUE(res2.ok && res2.response.ok()) << res2.error;
    EXPECT_FALSE(res2.response.cacheHit());
}

TEST(ServeServer, SpoolFileIsRemovedAfterNormalCompletion)
{
    TempDir spool;
    RunningServer rs([&](ServeOptions &o) {
        o.spoolDir = spool.path;
    });

    const std::vector<std::uint8_t> bytes = makeTraceBytes(61);
    SubmitResult res = submitTraceBytes(rs.addr, bytes);
    ASSERT_TRUE(res.ok && res.response.ok()) << res.error;

    // Only the journal remains: the .req was consumed.
    unsigned reqFiles = 0;
    for (const fs::directory_entry &de :
         fs::directory_iterator(spool.path))
        if (de.path().extension() == ".req")
            ++reqFiles;
    EXPECT_EQ(reqFiles, 0u);
    EXPECT_TRUE(fs::exists(spool.path + "/journal.wmrck"));
}

TEST(ServeServer, TcpLoopbackServesLikeTheUnixSocket)
{
    RunningServer rs([](ServeOptions &o) {
        o.socketPath.clear();
        o.tcpPort = 0; // kernel-assigned
    });
    EXPECT_TRUE(rs.addr.tcp);
    EXPECT_GT(rs.addr.port, 0);

    const std::vector<std::uint8_t> bytes = makeTraceBytes(71);
    SubmitResult res = submitTraceBytes(rs.addr, bytes);
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(res.response.status, RespStatus::Ok);
    EXPECT_EQ(res.response.report, localCheckReport(bytes));
}

// ---------------------------------------------------------------
// Client address parsing
// ---------------------------------------------------------------

TEST(ServeClient, ParseServerAddressAcceptsPathAndTcpForms)
{
    ServerAddress a;
    std::string error;

    ASSERT_TRUE(parseServerAddress("/tmp/x.sock", a, error));
    EXPECT_FALSE(a.tcp);
    EXPECT_EQ(a.socketPath, "/tmp/x.sock");
    EXPECT_EQ(a.str(), "/tmp/x.sock");

    ASSERT_TRUE(parseServerAddress("tcp:127.0.0.1:8080", a, error));
    EXPECT_TRUE(a.tcp);
    EXPECT_EQ(a.host, "127.0.0.1");
    EXPECT_EQ(a.port, 8080);
    EXPECT_EQ(a.str(), "tcp:127.0.0.1:8080");
}

TEST(ServeClient, ParseServerAddressRejectsBadTcpForms)
{
    ServerAddress a;
    std::string error;
    EXPECT_FALSE(parseServerAddress("", a, error));
    EXPECT_FALSE(parseServerAddress("tcp:", a, error));
    EXPECT_FALSE(parseServerAddress("tcp:hostonly", a, error));
    EXPECT_FALSE(parseServerAddress("tcp::1234", a, error));
    EXPECT_FALSE(parseServerAddress("tcp:host:0", a, error));
    EXPECT_FALSE(parseServerAddress("tcp:host:65536", a, error));
    EXPECT_FALSE(parseServerAddress("tcp:host:port", a, error));
}

// ---------------------------------------------------------------
// Client retry schedule (`wmrace submit` under admission rejection)
// ---------------------------------------------------------------

namespace {

/** A scripted fake server: answers each accepted connection with the
 *  next canned response, recording accept times — the deterministic
 *  counterpart of a flooded real server, for pinning down the
 *  client's bounded-retry schedule. */
struct ScriptedServer
{
    TempDir dir;
    ServerAddress addr;
    int listenFd = -1;
    std::thread th;
    std::vector<std::chrono::steady_clock::time_point> accepts;

    explicit ScriptedServer(std::vector<Response> script)
    {
        addr.socketPath = dir.path + "/scripted.sock";
        listenFd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        EXPECT_GE(listenFd, 0);
        sockaddr_un sa{};
        sa.sun_family = AF_UNIX;
        std::memcpy(sa.sun_path, addr.socketPath.c_str(),
                    addr.socketPath.size() + 1);
        EXPECT_EQ(::bind(listenFd,
                         reinterpret_cast<sockaddr *>(&sa),
                         sizeof(sa)),
                  0);
        EXPECT_EQ(::listen(listenFd, 8), 0);
        th = std::thread([this, script = std::move(script)] {
            for (const Response &resp : script) {
                const int fd = ::accept(listenFd, nullptr, nullptr);
                if (fd < 0)
                    break;
                accepts.push_back(
                    std::chrono::steady_clock::now());
                Request req;
                std::string err;
                (void)readRequest(fd, 1ull << 30, req, err);
                const std::vector<std::uint8_t> frame =
                    encodeResponseFrame(resp);
                (void)writeAll(fd, frame.data(), frame.size());
                ::close(fd);
            }
        });
    }

    /** Wait for the whole script to be consumed. */
    void
    finish()
    {
        if (th.joinable())
            th.join();
    }

    ~ScriptedServer()
    {
        finish();
        if (listenFd >= 0)
            ::close(listenFd);
    }

    /** Milliseconds between accepted connections @p i and @p i+1. */
    long
    gapMs(std::size_t i) const
    {
        return std::chrono::duration_cast<std::chrono::milliseconds>(
                   accepts[i + 1] - accepts[i])
            .count();
    }
};

Response
overloadedResp(std::uint32_t retryAfterMs)
{
    Response r;
    r.status = RespStatus::Overloaded;
    r.retryAfterMs = retryAfterMs;
    r.meta.error = "queue full";
    return r;
}

Response
okResp()
{
    Response r;
    r.status = RespStatus::Ok;
    r.report = "scripted ok\n";
    return r;
}

} // namespace

TEST(ServeRetry, BoundedScheduleStopsAtMaxAttempts)
{
    ScriptedServer srv({overloadedResp(20), overloadedResp(20),
                        overloadedResp(20)});
    SubmitOptions opts;
    opts.maxAttempts = 3;
    opts.retryAfterMs = 5; // the server hint must win over this
    SubmitResult res =
        submitTraceBytes(srv.addr, makeTraceBytes(81), opts);
    srv.finish();

    // Exactly maxAttempts round trips, then the rejection surfaces.
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.response.status, RespStatus::Overloaded);
    ASSERT_EQ(srv.accepts.size(), 3u);

    // The server's 20ms retry-after hint paced both retries (5ms
    // would be too fast; allow scheduler slop downward to 15ms).
    EXPECT_GE(srv.gapMs(0), 15);
    EXPECT_GE(srv.gapMs(1), 15);
}

TEST(ServeRetry, HintHonoredThenEventualOkReturned)
{
    ScriptedServer srv({overloadedResp(40), okResp()});
    SubmitOptions opts;
    opts.maxAttempts = 4;
    opts.retryAfterMs = 5;
    SubmitResult res =
        submitTraceBytes(srv.addr, makeTraceBytes(82), opts);
    srv.finish();

    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.response.status, RespStatus::Ok);
    EXPECT_EQ(res.response.report, "scripted ok\n");
    ASSERT_EQ(srv.accepts.size(), 2u); // no retries after success
    EXPECT_GE(srv.gapMs(0), 35);
}

TEST(ServeRetry, ZeroHintFallsBackToClientDefaultAndDrainingRetries)
{
    // Draining is retryable too; a zero hint means "use the
    // client-side default pause".
    ScriptedServer srv({[] {
                            Response r;
                            r.status = RespStatus::Draining;
                            r.retryAfterMs = 0;
                            r.meta.error = "draining";
                            return r;
                        }(),
                        okResp()});
    SubmitOptions opts;
    opts.maxAttempts = 4;
    opts.retryAfterMs = 30;
    SubmitResult res =
        submitTraceBytes(srv.addr, makeTraceBytes(83), opts);
    srv.finish();

    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.response.status, RespStatus::Ok);
    ASSERT_EQ(srv.accepts.size(), 2u);
    EXPECT_GE(srv.gapMs(0), 25);
}

// ---------------------------------------------------------------
// Fault-injection hardening: every injected failure must degrade
// into a typed error or counted fallback — never a crash or hang.
// ---------------------------------------------------------------

namespace {

/** Scoped schedule: configures on entry, disables on exit so no
 *  schedule leaks into later tests. */
struct FaultSchedule
{
    explicit FaultSchedule(const std::string &spec,
                           std::uint64_t seed = 0)
    {
        EXPECT_TRUE(fault::configure(spec, seed));
    }

    ~FaultSchedule() { fault::configure("", 0); }
};

} // namespace

TEST(ServeFault, SlowRequestIsCutOffByTheTransferDeadline)
{
    // A client trickling one byte at a time must be disconnected by
    // the TOTAL-transfer deadline even though each recv makes
    // progress (SO_RCVTIMEO alone never fires).
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    std::atomic<bool> stop{false};
    std::thread dripper([&] {
        Request req;
        req.body.assign(4096, 0x5a);
        const std::vector<std::uint8_t> frame =
            encodeRequestFrame(req);
        for (std::size_t i = 0; i < frame.size() && !stop; ++i) {
            if (!writeAll(sv[1], frame.data() + i, 1))
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2));
        }
    });

    Request out;
    std::string error;
    const auto t0 = std::chrono::steady_clock::now();
    const FrameReadStatus rs =
        readRequest(sv[0], 1ull << 20, out, error, /*deadlineMs=*/
                    150);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_EQ(rs, FrameReadStatus::IoError);
    EXPECT_FALSE(error.empty());
    EXPECT_LT(elapsed, 5000); // cut off, not wedged
    stop = true;
    ::close(sv[0]);
    ::close(sv[1]);
    dripper.join();
}

TEST(ServeFault, ConnectionResetAfterRequestIsTypedClientError)
{
    RunningServer rs;
    {
        FaultSchedule sched("serve.conn.reset@n1");
        SubmitOptions once;
        once.maxAttempts = 1;
        SubmitResult res = submitTraceBytes(
            rs.addr, makeTraceBytes(91), once);
        EXPECT_FALSE(res.ok);
        EXPECT_FALSE(res.error.empty());
    }
    // The server survived: the next submission analyzes normally.
    SubmitResult again =
        submitTraceBytes(rs.addr, makeTraceBytes(91));
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(again.response.status, RespStatus::Ok);
}

TEST(ServeFault, TruncatedResponseIsTypedClientError)
{
    RunningServer rs;
    {
        FaultSchedule sched("serve.resp.truncate@n1");
        SubmitResult res =
            submitTraceBytes(rs.addr, makeTraceBytes(92));
        EXPECT_FALSE(res.ok);
        EXPECT_FALSE(res.error.empty());
    }
    SubmitResult again =
        submitTraceBytes(rs.addr, makeTraceBytes(92));
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(again.response.status, RespStatus::Ok);
}

TEST(ServeFault, RefusedAcceptIsTypedClientErrorNotServerDeath)
{
    RunningServer rs;
    {
        FaultSchedule sched("serve.accept.fail@n1");
        SubmitOptions once;
        once.maxAttempts = 1;
        SubmitResult res = submitTraceBytes(
            rs.addr, makeTraceBytes(93), once);
        EXPECT_FALSE(res.ok);
    }
    SubmitResult again =
        submitTraceBytes(rs.addr, makeTraceBytes(93));
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(again.response.status, RespStatus::Ok);
}

TEST(ServeFault, SpoolEnospcDegradesToUnspooledAnalysis)
{
    TempDir spool;
    RunningServer rs([&](ServeOptions &o) {
        o.spoolDir = spool.path;
    });
    const std::uint64_t degraded0 =
        obs::counter("serve.spool.degraded").value();
    {
        FaultSchedule sched("serve.spool.enospc");
        const std::vector<std::uint8_t> bytes = makeTraceBytes(94);
        SubmitResult res = submitTraceBytes(rs.addr, bytes);
        // Losing the spool loses crash recovery, NOT the analysis.
        ASSERT_TRUE(res.ok) << res.error;
        EXPECT_EQ(res.response.status, RespStatus::Ok);
        EXPECT_EQ(res.response.report, localCheckReport(bytes));
    }
    EXPECT_GT(obs::counter("serve.spool.degraded").value(),
              degraded0);
    EXPECT_GT(obs::counter("serve.disk.enospc").value(), 0u);
}

TEST(ServeFault, TornCacheDiskWriteDegradesToMissNotWrongReport)
{
    TempDir dir;
    ResultCache cache(1 << 20, dir.path);
    const CacheKey k{0x1234, 24, 0};
    CachedResult v;
    v.report = "torn-write victim report\n";
    {
        FaultSchedule sched("serve.cache.torn");
        cache.put(k, v);
    }
    // Memory still has it...
    CachedResult out;
    ASSERT_TRUE(cache.get(k, out));
    // ...but the disk tier's CRC catches the torn entry: miss.
    cache.dropMemoryForTest();
    EXPECT_FALSE(cache.get(k, out));
    EXPECT_GE(cache.stats().diskErrors, 1u);
}
