/**
 * @file
 * Throughput and latency of the serve subsystem (src/serve): an
 * in-process `wmrace serve` server on a private unix socket, driven
 * by N concurrent clients through the production client code
 * (serve/client.hh) — every request crosses a real socket.
 *
 * Two regimes are measured per client count:
 *
 *  - COLD: every submission is a distinct trace, so every request
 *    pays a full parse + Section-4 analysis (cache misses only);
 *  - CACHED: the same trace set resubmitted, so every request is
 *    answered from the content-addressed result cache — the serving
 *    fast path (accept thread, no analysis, no analysis spans).
 *
 * The reproduction verifies the cached reports byte-identical to the
 * cold ones (the cache-soundness claim), prints requests/s and mean
 * latency for both regimes, and emits a machine-readable JSON block
 * (schema "wmrace-serve-throughput") that tools/bench_baselines.sh
 * commits as a BENCH_*.json baseline.
 *
 * WMR_BENCH_SMOKE=1 shrinks traces and request counts so the binary
 * doubles as a fast CTest smoke entry.
 */

#include "bench_util.hh"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "serve/client.hh"
#include "serve/server.hh"
#include "trace/segmented_io.hh"
#include "workload/synthetic_trace.hh"

namespace {

using namespace wmr;
using namespace wmr::serve;
using namespace wmr::benchutil;

using Clock = std::chrono::steady_clock;

/** Distinct serialized traces, one per (seed) request.  Low hot
 *  fraction (the bench_analysis_scaling profile): the goal is
 *  serving cost, not a quadratic race blowup that would inflate
 *  every report to tens of MB and thrash the result cache. */
std::vector<std::uint8_t>
traceBytes(std::uint64_t seed)
{
    SyntheticTraceOptions opts;
    opts.procs = 4;
    opts.eventsPerProc = smokeMode() ? 200u : 2'000u;
    opts.memWords = 4096;
    opts.syncWords = 64;
    opts.hotWords = 16;
    opts.hotFraction = 0.02;
    opts.seed = seed;
    return serializeSegmentedTrace(makeSyntheticTrace(opts));
}

/** The benched upload set, built once. */
const std::vector<std::vector<std::uint8_t>> &
uploadSet()
{
    static const std::vector<std::vector<std::uint8_t>> set = [] {
        const std::size_t n = smokeMode() ? 8 : 64;
        std::vector<std::vector<std::uint8_t>> out;
        out.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            out.push_back(traceBytes(1000 + i));
        return out;
    }();
    return set;
}

/** One in-process server on a private unix socket. */
struct BenchServer
{
    ServeOptions opts;
    std::unique_ptr<Server> server;
    ServerAddress addr;
    std::string sock;

    BenchServer()
    {
        sock = "/tmp/wmr_bench_serve." +
               std::to_string(::getpid()) + ".sock";
        opts.socketPath = sock;
        opts.jobs = 4;
        opts.maxQueue = 1024;
        opts.cacheBytes = 256ull << 20; // hold the whole upload set
        server = std::make_unique<Server>(opts);
        if (!server->start())
            fatal("bench server failed to start: %s",
                  server->lastError().c_str());
        std::string error;
        if (!parseServerAddress(server->boundAddress(), addr, error))
            fatal("bench server address: %s", error.c_str());
    }

    ~BenchServer()
    {
        server->beginShutdown();
        server->waitDrained();
    }
};

struct RegimeResult
{
    double wallSeconds = 0;
    double requestsPerSec = 0;
    double meanLatencyMs = 0;
};

/**
 * Drive the whole upload set through @p addr with @p clients
 * concurrent submitter threads (each owns a static slice).
 * @return aggregate throughput and mean per-request latency.
 */
RegimeResult
driveClients(const ServerAddress &addr, unsigned clients,
             std::vector<std::string> *reports = nullptr)
{
    const auto &set = uploadSet();
    if (reports)
        reports->assign(set.size(), "");
    std::atomic<std::uint64_t> latencyNs{0};
    std::atomic<bool> failed{false};

    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            SubmitOptions sopts;
            sopts.maxAttempts = 64;
            sopts.retryAfterMs = 5;
            for (std::size_t i = c; i < set.size(); i += clients) {
                const auto r0 = Clock::now();
                SubmitResult res =
                    submitTraceBytes(addr, set[i], sopts);
                latencyNs.fetch_add(
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(Clock::now() - r0)
                        .count(),
                    std::memory_order_relaxed);
                if (!res.ok || !res.response.ok())
                    failed.store(true, std::memory_order_relaxed);
                else if (reports)
                    (*reports)[i] = std::move(res.response.report);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    RegimeResult out;
    out.wallSeconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (failed.load())
        fatal("bench submission failed — see server log");
    out.requestsPerSec =
        static_cast<double>(set.size()) / out.wallSeconds;
    out.meanLatencyMs = static_cast<double>(latencyNs.load()) /
                        static_cast<double>(set.size()) / 1e6;
    return out;
}

void
reproduce()
{
    const auto &set = uploadSet();
    std::uint64_t uploadBytes = 0;
    for (const auto &b : set)
        uploadBytes += b.size();
    section("serve throughput (" + std::to_string(set.size()) +
            " uploads, --jobs 4" +
            (smokeMode() ? ", smoke mode)" : ")"));
    note("cold = distinct traces (analysis per request); cached = "
         "same set resubmitted (result-cache fast path).");

    struct Row
    {
        unsigned clients;
        RegimeResult cold;
        RegimeResult cached;
    };
    std::vector<Row> rows;
    bool identical = true;

    std::printf("  %-8s %14s %14s %14s %14s\n", "clients",
                "cold req/s", "cold ms/req", "hit req/s",
                "hit ms/req");
    const std::vector<unsigned> clientCounts =
        smokeMode() ? std::vector<unsigned>{1u, 4u}
                    : std::vector<unsigned>{1u, 2u, 4u, 8u};
    for (const unsigned clients : clientCounts) {
        // A fresh server per row: the cold pass must really be
        // cold, and per-row counters start from zero.
        BenchServer bs;
        std::vector<std::string> coldReports, hitReports;
        const RegimeResult cold =
            driveClients(bs.addr, clients, &coldReports);
        const RegimeResult cached =
            driveClients(bs.addr, clients, &hitReports);

        if (hitReports != coldReports)
            identical = false;
        const CacheStats cs = bs.server->cacheStats();
        if (cs.hits < set.size())
            note("!! expected " + std::to_string(set.size()) +
                 " cache hits, saw " + std::to_string(cs.hits));

        std::printf("  %-8u %14.1f %14.2f %14.1f %14.2f\n", clients,
                    cold.requestsPerSec, cold.meanLatencyMs,
                    cached.requestsPerSec, cached.meanLatencyMs);
        rows.push_back({clients, cold, cached});
    }
    note(identical
             ? "served reports verified byte-identical (cold vs "
               "cached) for every client count."
             : "!! CACHE MISMATCH — cached report differs from cold "
               "analysis.");

    // Machine-readable block for the committed BENCH_*.json
    // baselines (tools/bench_baselines.sh extracts it).
    std::printf("{\n  \"schema\": \"wmrace-serve-throughput\",\n");
    std::printf("  \"uploads\": %zu,\n", set.size());
    std::printf("  \"upload_bytes\": %llu,\n",
                static_cast<unsigned long long>(uploadBytes));
    std::printf("  \"jobs\": 4,\n");
    std::printf("  \"hardware_concurrency\": %u,\n",
                std::thread::hardware_concurrency());
    std::printf("  \"reports_identical\": %s,\n",
                identical ? "true" : "false");
    std::printf("  \"results\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::printf(
            "    {\"clients\": %u, "
            "\"cold_requests_per_second\": %.1f, "
            "\"cold_mean_latency_ms\": %.3f, "
            "\"cachehit_requests_per_second\": %.1f, "
            "\"cachehit_mean_latency_ms\": %.3f}%s\n",
            r.clients, r.cold.requestsPerSec, r.cold.meanLatencyMs,
            r.cached.requestsPerSec, r.cached.meanLatencyMs,
            i + 1 < rows.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
}

// --- google-benchmark timings ----------------------------------

/** One submission round trip against a warm cache (the serving
 *  fast path: socket + frame codec + cache lookup, no analysis). */
void
BM_SubmitCacheHit(benchmark::State &state)
{
    static BenchServer bs;
    const std::vector<std::uint8_t> bytes = traceBytes(1);
    (void)submitTraceBytes(bs.addr, bytes); // warm the cache
    for (auto _ : state) {
        SubmitResult res = submitTraceBytes(bs.addr, bytes);
        benchmark::DoNotOptimize(res.response.report.size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubmitCacheHit)->Unit(benchmark::kMicrosecond);

/** A status round trip: the minimal protocol cost (no body, no
 *  cache, no analysis). */
void
BM_StatusRoundTrip(benchmark::State &state)
{
    static BenchServer bs;
    for (auto _ : state) {
        SubmitResult res = queryStatus(bs.addr);
        benchmark::DoNotOptimize(res.response.report.size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatusRoundTrip)->Unit(benchmark::kMicrosecond);

} // namespace

WMR_BENCH_MAIN(reproduce)
