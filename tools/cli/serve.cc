/**
 * @file
 * The analysis service commands (docs/SERVE.md): serve, the
 * long-lived daemon, and submit, one client round trip against it.
 */

#include <csignal>
#include <cstdio>
#include <string>

#include "commands.hh"
#include "common/logging.hh"
#include "serve/client.hh"
#include "serve/server.hh"

namespace wmr::cli {

/** The serving daemon a SIGTERM/SIGINT handler must reach.  One
 *  server per process; beginShutdown() is async-signal-safe. */
static serve::Server *gServeInstance = nullptr;

static void
serveSignalHandler(int)
{
    if (gServeInstance != nullptr)
        gServeInstance->beginShutdown();
}

/**
 * `wmrace serve`: run the long-lived analysis service.  Listens on
 * --socket PATH (unix domain) or --tcp PORT (loopback; 0 =
 * kernel-assigned), prints the bound address on stdout once ready,
 * and serves until SIGTERM/SIGINT or a client Shutdown request —
 * then drains queued analyses and exits 0.
 */
static int
cmdServe(const CommandLine &cl)
{
    const TraceOut traceOut(cl);
    serve::ServeOptions sopts;
    sopts.socketPath = cl.text("socket");
    sopts.tcpPort = cl.number("tcp", sopts.tcpPort);
    if (sopts.socketPath.empty() && sopts.tcpPort < 0)
        cl.fail("listen address required: --socket PATH or --tcp PORT "
                "(0 = kernel-assigned)");
    sopts.jobs = cl.number("jobs", sopts.jobs);
    sopts.workers = cl.number("workers", sopts.workers);
    sopts.maxQueue = cl.number("max-queue", sopts.maxQueue);
    sopts.maxInflightBytes =
        cl.number("max-inflight-mb", sopts.maxInflightBytes >> 20) << 20;
    sopts.maxRequestBytes =
        cl.number("max-request-mb", sopts.maxRequestBytes >> 20) << 20;
    sopts.cacheBytes = cl.number("cache-mb", sopts.cacheBytes >> 20)
                       << 20;
    sopts.retryAfterMs = cl.number("retry-after-ms", sopts.retryAfterMs);
    sopts.ioTimeoutSec = cl.number("io-timeout-sec", sopts.ioTimeoutSec);
    sopts.cacheDir = cl.text("cache-dir");
    sopts.spoolDir = cl.text("spool-dir");

    serve::Server server(sopts);
    gServeInstance = &server;
    std::signal(SIGTERM, serveSignalHandler);
    std::signal(SIGINT, serveSignalHandler);

    if (!server.start())
        fatal("serve: %s", server.lastError().c_str());

    // The bound address goes to STDOUT (scripts read it — with
    // --tcp 0 the port is kernel-assigned); status chatter goes to
    // stderr like every other command.
    std::printf("%s\n", server.boundAddress().c_str());
    std::fflush(stdout);
    const serve::ServeStats boot = server.stats();
    std::fprintf(stderr,
                 "wmrace serve: listening on %s  (%llu spooled "
                 "request(s) recovered)\n",
                 server.boundAddress().c_str(),
                 static_cast<unsigned long long>(boot.recovered));

    server.waitDrained();
    gServeInstance = nullptr;
    const serve::ServeStats s = server.stats();
    std::fprintf(
        stderr,
        "wmrace serve: drained  (%llu request(s), %llu "
        "analysis(es), %llu overload rejection(s))\n",
        static_cast<unsigned long long>(s.requests),
        static_cast<unsigned long long>(s.analyses),
        static_cast<unsigned long long>(s.overloaded));
    return 0;
}

const Command kServe{
    .name = "serve",
    .summary = "run the long-lived analysis service",
    .options = {
        text("socket", "PATH", "listen on a unix domain socket"),
        number("tcp", 0, 65535, "listen on a loopback TCP port (0 = "
                                "kernel-assigned; printed on stdout)"),
        number("jobs", 1, 4096, "global analysis thread budget "
                                "(default: hardware concurrency)"),
        number("workers", 0, 4096,
               "concurrent analysis workers (0 = min(jobs, 4))"),
        number("max-queue", 1, 1u << 20,
               "queued requests before overload rejection"),
        number("max-inflight-mb", 0, 1u << 20,
               "MB of uploads admitted at once"),
        number("max-request-mb", 0, 1u << 20, "largest upload, in MB"),
        number("cache-mb", 0, 1u << 20, "result cache size, in MB"),
        text("cache-dir", "DIR", "disk tier of the result cache"),
        text("spool-dir", "DIR", "crash-safe request spool and journal"),
        number("retry-after-ms", 0, 3600000,
               "backoff hint sent with an overload rejection"),
        number("io-timeout-sec", 0, 86400,
               "per-connection socket I/O timeout (0 = none)"),
        traceOutOption(),
    },
    .conflicts = {{"socket", "tcp"}},
    .run = cmdServe,
};

/**
 * `wmrace submit`: one client round trip against a running
 * `wmrace serve` daemon.  The printed report is byte-identical to
 * local `wmrace check` output, and the exit code matches too (1 =
 * data race found); --meta prints the one-line machine-readable
 * summary instead.
 */
static int
cmdSubmit(const CommandLine &cl)
{
    if (!cl.has("server"))
        cl.fail("--server ADDR required (a unix socket path or "
                "tcp:HOST:PORT)");
    serve::ServerAddress addr;
    std::string err;
    if (!serve::parseServerAddress(cl.text("server"), addr, err))
        fatal("submit: %s", err.c_str());

    if (cl.has("status")) {
        const serve::SubmitResult r = serve::queryStatus(addr);
        if (!r.ok)
            fatal("submit: %s", r.error.c_str());
        std::printf("%s\n", r.response.report.c_str());
        return 0;
    }
    if (cl.has("shutdown")) {
        const serve::SubmitResult r = serve::requestShutdown(addr);
        if (!r.ok)
            fatal("submit: %s", r.error.c_str());
        std::fprintf(stderr, "submit: server is draining\n");
        return 0;
    }

    if (cl.operands().empty())
        cl.fail("missing <trace>");
    serve::SubmitOptions sopts;
    sopts.salvage = cl.has("salvage");
    sopts.noCache = cl.has("no-cache");
    sopts.engine = cl.choice("engine");
    sopts.maxAttempts = cl.number("attempts", sopts.maxAttempts);

    const serve::SubmitResult r =
        serve::submitTraceFile(addr, cl.operands()[0], sopts);
    if (!r.ok)
        fatal("submit: %s", r.error.c_str());
    const serve::Response &resp = r.response;
    if (!resp.ok()) {
        std::fprintf(stderr, "submit: server answered %s: %s\n",
                     serve::respStatusName(resp.status),
                     resp.meta.error.c_str());
        // Capacity rejections exit 3 (retryable), bad uploads 2.
        return resp.status == serve::RespStatus::Overloaded ||
                       resp.status == serve::RespStatus::Draining
                   ? 3
                   : 2;
    }
    if (cl.has("meta"))
        std::printf("%s\n", serve::metaJson(resp).c_str());
    else
        std::printf("%s", resp.report.c_str());
    return resp.meta.anyDataRace ? 1 : 0;
}

const Command kSubmit{
    .name = "submit",
    .operands = "[<trace>]",
    .summary = "analyze one trace on a running server",
    .maxOperands = 1,
    .options = {
        text("server", "ADDR",
             "the server: a unix socket path or tcp:HOST:PORT"),
        flag("salvage", "analyze the recovered prefix of a damaged "
                        "segmented trace"),
        flag("no-cache", "bypass the server's result cache"),
        flag("meta", "print the machine-readable response meta line "
                     "instead of the report"),
        number("attempts", 1, 1000, "tries while the server answers "
                                    "overloaded"),
        choice("engine", wireEngineNames(),
               "ask for the detector family report"),
        flag("status", "print the server's status"),
        flag("shutdown", "ask the server to drain and exit"),
    },
    .run = cmdSubmit,
};

} // namespace wmr::cli
