#include "serve/server.hh"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <unordered_set>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/hash64.hh"
#include "common/logging.hh"
#include "fault/fault.hh"
#include "common/string_util.hh"
#include "common/worker_pool.hh"
#include "detect/analysis.hh"
#include "detect/report.hh"
#include "engines/family.hh"
#include "obs/obs.hh"
#include "pipeline/batch_runner.hh"
#include "pipeline/checkpoint.hh"
#include "serve/io_util.hh"
#include "trace/trace_io.hh"

namespace fs = std::filesystem;

namespace wmr::serve {

namespace {

using Clock = std::chrono::steady_clock;

/** Everything one upload's analysis produced. */
struct UploadOutcome
{
    bool ok = false;
    TraceRunResult rr; ///< journal + meta source (error on failure)
    std::string report;
};

/**
 * The serve twin of the batch pipeline's analyzeOneTrace(): parse
 * (either container, optionally salvaging) and analyze an in-memory
 * upload.  The report is provenance + formatReport with default
 * options — EXACTLY what `wmrace check` (no --events) prints, which
 * is the byte-identity contract the golden replay diffs.  A nonzero
 * @p engineWire (validated by readRequest) switches to the detector
 * family: the report becomes provenance + the family report, byte-
 * identical to local `wmrace check --engine NAME`.
 */
UploadOutcome
analyzeUpload(const std::vector<std::uint8_t> &bytes, bool salvage,
              unsigned threads,
              std::uint32_t engineWire = kWireEngineDefault)
{
    UploadOutcome out;
    out.rr.fileBytes = bytes.size();

    TraceReadResult loaded;
    {
        obs::Span parseSpan("serve.parse");
        loaded = tryDeserializeTrace(bytes, salvage);
    }
    if (!loaded.ok()) {
        out.rr.status = TraceRunStatus::FormatError;
        out.rr.error = loaded.error;
        return out;
    }
    out.rr.salvaged = loaded.salvage.salvaged;
    out.rr.unresolvedPairings = loaded.salvage.unresolvedPairings;
    out.rr.droppedDataRecords = loaded.salvage.droppedDataRecords;
    const std::string provenance =
        formatTraceProvenance(loaded.segmented, loaded.salvage);

    obs::Span analyzeSpan("serve.analyze");
    // engineWireName is null for 0/default AND for out-of-range ids
    // (possible only via a mangled spool file name — live requests
    // are validated by readRequest); both take the canonical path.
    if (const char *name = engineWireName(engineWire)) {
        const auto kinds = engines::parseEngineSelection(name);
        wmr_assert(kinds.has_value());
        engines::EngineFamilyOptions fopts;
        fopts.kinds = *kinds;
        fopts.threads = threads;
        const engines::EngineFamilyResult fam =
            engines::runEngineFamily(loaded.trace, fopts);
        out.rr.status = TraceRunStatus::Ok;
        fillFromEngineFamily(fam, out.rr);
        out.report = provenance + engines::formatFamilyReport(fam);
        out.ok = true;
        return out;
    }
    AnalysisOptions aopts;
    aopts.threads = threads;
    const DetectionResult det =
        analyzeTrace(std::move(loaded.trace), aopts);

    out.rr.status = TraceRunStatus::Ok;
    fillFromDetection(det, out.rr);

    out.report = provenance + formatReport(det);
    out.ok = true;
    return out;
}

/** Copy a completed run into the wire meta block. */
ResponseMeta
metaFromRunResult(const TraceRunResult &rr, std::uint64_t hash)
{
    ResponseMeta m;
    m.fileBytes = rr.fileBytes;
    m.events = rr.events;
    m.syncEvents = rr.syncEvents;
    m.ops = rr.ops;
    m.races = rr.races;
    m.dataRaces = rr.dataRaces;
    m.partitions = rr.partitions;
    m.firstPartitions = rr.firstPartitions;
    m.reportedRaces = rr.reportedRaces;
    m.anyDataRace = rr.anyDataRace;
    m.wholeExecutionSc = rr.wholeExecutionSc;
    m.salvaged = rr.salvaged;
    m.unresolvedPairings = rr.unresolvedPairings;
    m.droppedDataRecords = rr.droppedDataRecords;
    m.contentHash = hash;
    m.error = rr.error;
    return m;
}

std::uint32_t
responseFlagsFor(const TraceRunResult &rr)
{
    return (rr.anyDataRace ? kRespAnyDataRace : 0u) |
           (rr.salvaged ? kRespSalvaged : 0u);
}

/** Bucketed request latency counters (a cheap fixed histogram the
 *  obs snapshot exports; percentiles are read off the buckets). */
void
recordLatency(std::uint64_t ns)
{
    static obs::Counter count = obs::counter("serve.latency.count");
    static obs::Counter total =
        obs::counter("serve.latency.total_ns");
    static obs::Counter le1 = obs::counter("serve.latency.le_1ms");
    static obs::Counter le10 = obs::counter("serve.latency.le_10ms");
    static obs::Counter le100 =
        obs::counter("serve.latency.le_100ms");
    static obs::Counter le1s = obs::counter("serve.latency.le_1s");
    static obs::Counter le10s =
        obs::counter("serve.latency.le_10s");
    static obs::Counter inf = obs::counter("serve.latency.inf");
    count.inc();
    total.add(ns);
    const double ms = static_cast<double>(ns) / 1e6;
    if (ms <= 1.0)
        le1.inc();
    else if (ms <= 10.0)
        le10.inc();
    else if (ms <= 100.0)
        le100.inc();
    else if (ms <= 1000.0)
        le1s.inc();
    else if (ms <= 10000.0)
        le10s.inc();
    else
        inf.inc();
}

/** Parse the flags field back out of a spool file name
 *  ("h<16hex>-s<bytes>-f<flags>.req"); 0 when unparseable. */
std::uint32_t
flagsFromSpoolName(const std::string &name)
{
    const std::size_t f = name.rfind("-f");
    if (f == std::string::npos)
        return 0;
    return static_cast<std::uint32_t>(
        std::strtoul(name.c_str() + f + 2, nullptr, 10));
}

} // namespace

Server::Server(ServeOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cacheBytes, opts_.cacheDir),
      queue_(opts_.maxQueue)
{
    const unsigned jobs = resolveThreads(opts_.jobs);
    workerCount_ = opts_.workers != 0 ? opts_.workers
                                      : std::min(jobs, 4u);
    if (workerCount_ == 0)
        workerCount_ = 1;
    // Carve the global budget across concurrent analyses: W workers
    // at J/W threads each never oversubscribe the --jobs cores.
    analysisThreads_ = std::max(1u, jobs / workerCount_);
}

Server::~Server()
{
    if (started_) {
        beginShutdown();
        waitDrained();
    }
    if (wakePipe_[0] >= 0)
        ::close(wakePipe_[0]);
    if (wakePipe_[1] >= 0)
        ::close(wakePipe_[1]);
}

bool
Server::bindListener()
{
    if (opts_.tcpPort >= 0) {
        listenFd_ = ::socket(AF_INET,
                             SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (listenFd_ < 0) {
            error_ = std::string("socket: ") +
                     std::strerror(errno);
            return false;
        }
        const int one = 1;
        ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port =
            htons(static_cast<std::uint16_t>(opts_.tcpPort));
        if (::bind(listenFd_,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            error_ = strformat("bind tcp:127.0.0.1:%d: %s",
                               opts_.tcpPort,
                               std::strerror(errno));
            ::close(listenFd_);
            listenFd_ = -1;
            return false;
        }
        socklen_t len = sizeof(addr);
        ::getsockname(listenFd_,
                      reinterpret_cast<sockaddr *>(&addr), &len);
        boundTcpPort_ = ntohs(addr.sin_port);
    } else {
        if (opts_.socketPath.empty()) {
            error_ = "serve: no socket path and no TCP port";
            return false;
        }
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (opts_.socketPath.size() >= sizeof(addr.sun_path)) {
            error_ = strformat(
                "socket path '%s' exceeds the unix-domain limit "
                "of %zu bytes",
                opts_.socketPath.c_str(),
                sizeof(addr.sun_path) - 1);
            return false;
        }
        std::memcpy(addr.sun_path, opts_.socketPath.c_str(),
                    opts_.socketPath.size() + 1);
        ::unlink(opts_.socketPath.c_str());
        listenFd_ = ::socket(AF_UNIX,
                             SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (listenFd_ < 0) {
            error_ = std::string("socket: ") +
                     std::strerror(errno);
            return false;
        }
        if (::bind(listenFd_,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            error_ = strformat("bind %s: %s",
                               opts_.socketPath.c_str(),
                               std::strerror(errno));
            ::close(listenFd_);
            listenFd_ = -1;
            return false;
        }
    }
    if (::listen(listenFd_, 64) != 0) {
        error_ = std::string("listen: ") + std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    return true;
}

bool
Server::recoverSpool()
{
    if (opts_.spoolDir.empty())
        return true;
    std::error_code ec;
    fs::create_directories(opts_.spoolDir, ec);
    if (ec) {
        error_ = strformat("spool dir %s: %s",
                           opts_.spoolDir.c_str(),
                           ec.message().c_str());
        return false;
    }
    const std::string journalPath =
        opts_.spoolDir + "/journal.wmrck";

    // What the previous incarnation finished: journaled spool paths
    // are complete (response may have been lost, but the analysis
    // was not); anything else on disk was admitted but cut short.
    const CheckpointLoad done = loadCheckpoint(journalPath);
    std::unordered_set<std::string> finished;
    for (const TraceRunResult &e : done.entries)
        finished.insert(e.path);

    const unsigned bootThreads = resolveThreads(opts_.jobs);
    for (const fs::directory_entry &de :
         fs::directory_iterator(opts_.spoolDir, ec)) {
        if (!de.is_regular_file())
            continue;
        const std::string path = de.path().string();
        if (de.path().extension() != ".req")
            continue;
        if (finished.count(path) != 0) {
            fs::remove(de.path(), ec);
            continue;
        }
        std::vector<std::uint8_t> bytes;
        if (!readWholeFile(path, bytes)) {
            warn("serve: cannot read spooled request %s",
                 path.c_str());
            continue;
        }
        const std::uint32_t flags =
            flagsFromSpoolName(de.path().filename().string());
        // Never trust the name for the content address: rehash.
        UploadOutcome out = analyzeUpload(
            bytes, (flags & kReqSalvage) != 0, bootThreads,
            requestEngineWire(flags));
        if (out.ok) {
            CacheKey key{contentHash64(bytes.data(), bytes.size()),
                         bytes.size(), cacheRelevantFlags(flags)};
            CachedResult value;
            value.meta = metaFromRunResult(out.rr, key.hash);
            value.respFlags = responseFlagsFor(out.rr);
            value.report = out.report;
            cache_.put(key, value);
        }
        recovered_.fetch_add(1, std::memory_order_relaxed);
        obs::counter("serve.recovered").inc();
        fs::remove(de.path(), ec);
    }

    // The spool is empty again: restart the journal from scratch so
    // it tracks only this incarnation's in-flight work.
    fs::remove(journalPath, ec);
    journal_ = std::make_unique<CheckpointWriter>();
    if (!journal_->open(journalPath)) {
        error_ = journal_->lastError();
        return false;
    }
    return true;
}

bool
Server::start()
{
    if (::pipe(wakePipe_) != 0) {
        error_ = std::string("pipe: ") + std::strerror(errno);
        return false;
    }
    if (!recoverSpool())
        return false;
    if (!bindListener())
        return false;
    for (unsigned i = 0; i < workerCount_; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
    acceptThread_ = std::thread([this] { acceptLoop(); });
    started_ = true;
    return true;
}

void
Server::waitDrained()
{
    if (acceptThread_.joinable())
        acceptThread_.join();
    for (std::thread &w : workers_)
        if (w.joinable())
            w.join();
    workers_.clear();
    started_ = false;
}

bool
Server::run()
{
    if (!start())
        return false;
    waitDrained();
    return true;
}

void
Server::beginShutdown()
{
    // Async-signal-safe: one write on the pre-opened self-pipe.
    const char byte = 1;
    if (wakePipe_[1] >= 0)
        (void)!::write(wakePipe_[1], &byte, 1);
}

std::string
Server::boundAddress() const
{
    if (opts_.tcpPort >= 0)
        return strformat("tcp:127.0.0.1:%d", boundTcpPort_);
    return opts_.socketPath;
}

ServeStats
Server::stats() const
{
    ServeStats s;
    s.requests = requests_.load(std::memory_order_relaxed);
    s.analyses = analyses_.load(std::memory_order_relaxed);
    s.overloaded = overloaded_.load(std::memory_order_relaxed);
    s.badRequests = badRequests_.load(std::memory_order_relaxed);
    s.drainRejected =
        drainRejected_.load(std::memory_order_relaxed);
    s.recovered = recovered_.load(std::memory_order_relaxed);
    s.queueDepth = queue_.depth();
    s.inflightBytes =
        inflightBytes_.load(std::memory_order_relaxed);
    return s;
}

std::string
Server::statusJson() const
{
    const ServeStats s = stats();
    const CacheStats c = cache_.stats();
    std::string out = "{\"schema\": \"wmrace-serve-status\"";
    out += strformat(", \"address\": \"%s\"",
                     boundAddress().c_str());
    out += strformat(", \"draining\": %s",
                     draining_.load() ? "true" : "false");
    out += strformat(", \"workers\": %u", workerCount_);
    out += strformat(", \"analysis_threads\": %u",
                     analysisThreads_);
    out += strformat(", \"max_queue\": %zu", opts_.maxQueue);
    out += strformat(", \"queue_depth\": %llu",
                     static_cast<unsigned long long>(s.queueDepth));
    out += strformat(
        ", \"inflight_bytes\": %llu",
        static_cast<unsigned long long>(s.inflightBytes));
    out += strformat(", \"requests\": %llu",
                     static_cast<unsigned long long>(s.requests));
    out += strformat(", \"analyses\": %llu",
                     static_cast<unsigned long long>(s.analyses));
    out += strformat(", \"overloaded\": %llu",
                     static_cast<unsigned long long>(s.overloaded));
    out += strformat(
        ", \"bad_requests\": %llu",
        static_cast<unsigned long long>(s.badRequests));
    out += strformat(
        ", \"drain_rejected\": %llu",
        static_cast<unsigned long long>(s.drainRejected));
    out += strformat(", \"recovered\": %llu",
                     static_cast<unsigned long long>(s.recovered));
    out += strformat(
        ", \"cache\": {\"hits\": %llu, \"misses\": %llu, "
        "\"disk_hits\": %llu, \"insertions\": %llu, "
        "\"evictions\": %llu, \"entries\": %llu, "
        "\"bytes\": %llu, \"byte_budget\": %llu}",
        static_cast<unsigned long long>(c.hits),
        static_cast<unsigned long long>(c.misses),
        static_cast<unsigned long long>(c.diskHits),
        static_cast<unsigned long long>(c.insertions),
        static_cast<unsigned long long>(c.evictions),
        static_cast<unsigned long long>(c.entries),
        static_cast<unsigned long long>(c.bytes),
        static_cast<unsigned long long>(c.byteBudget));
    out += "}";
    return out;
}

void
Server::respondAndClose(int fd, const Response &resp)
{
    const std::vector<std::uint8_t> frame =
        encodeResponseFrame(resp);
    // Fault injection: a truncated response — half the frame, then
    // close.  The CLIENT must turn this into a typed transport
    // error (readResponse sees EOF mid-frame), never a hang or a
    // partial report passed off as complete.
    if (fault::at("serve.resp.truncate")) {
        (void)writeAll(fd, frame.data(), frame.size() / 2);
        ::close(fd);
        return;
    }
    (void)writeAll(fd, frame.data(), frame.size());
    ::close(fd);
}

std::string
Server::spoolRequest(const Job &job)
{
    if (opts_.spoolDir.empty() ||
        (job.reqFlags & kReqNoCache) != 0)
        return "";
    const std::string path =
        opts_.spoolDir + "/" +
        strformat("h%s-s%llu-f%u.req",
                  hash64Hex(job.key.hash).c_str(),
                  static_cast<unsigned long long>(job.key.bytes),
                  job.key.flags);
    // A spool-dir write failure (real or injected ENOSPC) is a
    // counted degradation, not an error: the request is still
    // analyzed and answered, it just loses crash-recovery coverage.
    AtomicWriteStatus st = AtomicWriteStatus::Ok;
    if (fault::at("serve.spool.enospc")) {
        obs::counter("serve.disk.enospc").inc();
        st = AtomicWriteStatus::NoSpace;
    } else {
        st = writeFileAtomicStatus(path, job.body);
    }
    if (st != AtomicWriteStatus::Ok) {
        obs::counter("serve.spool.degraded").inc();
        if (st != AtomicWriteStatus::NoSpace)
            warn("serve: cannot spool request to %s", path.c_str());
        return "";
    }
    return path;
}

void
Server::handleAnalyze(int fd, Request &req)
{
    Response resp;
    if (draining_.load(std::memory_order_relaxed)) {
        drainRejected_.fetch_add(1, std::memory_order_relaxed);
        resp.status = RespStatus::Draining;
        resp.retryAfterMs = opts_.retryAfterMs;
        resp.meta.error = "server is draining";
        respondAndClose(fd, resp);
        return;
    }

    Job job;
    job.fd = fd;
    job.reqFlags = req.flags;
    job.body = std::move(req.body);
    job.key = CacheKey{
        contentHash64(job.body.data(), job.body.size()),
        job.body.size(), cacheRelevantFlags(req.flags)};

    // Cache-hit fast path, answered straight from the accept loop:
    // no queueing, no worker, no analysis spans — the acceptance
    // test for "served from cache" keys off exactly that.
    if ((req.flags & kReqNoCache) == 0) {
        CachedResult hit;
        if (cache_.get(job.key, hit)) {
            obs::counter("serve.cache.hit").inc();
            resp.status = RespStatus::Ok;
            resp.flags = hit.respFlags | kRespCacheHit;
            resp.meta = hit.meta;
            resp.report = hit.report;
            respondAndClose(fd, resp);
            return;
        }
        obs::counter("serve.cache.miss").inc();
    }

    // Admission control: a request that does not fit the queue or
    // the in-flight byte budget is refused NOW, with a retry hint —
    // never queued unboundedly, never blocking the accept loop.
    const std::uint64_t bytes = job.body.size();
    // Charge the in-flight budget BEFORE the push: the worker that
    // pops the job subtracts, and charging first keeps the counter
    // from transiently underflowing past the budget check.
    const std::uint64_t charged =
        inflightBytes_.fetch_add(bytes,
                                 std::memory_order_relaxed) +
        bytes;
    const bool fitsBytes = charged <= opts_.maxInflightBytes;
    bool admitted = false;
    if (fitsBytes) {
        job.spoolPath = spoolRequest(job);
        const std::string spooled = job.spoolPath;
        admitted = queue_.tryPush(std::move(job));
        if (!admitted && !spooled.empty())
            ::unlink(spooled.c_str());
    }
    if (!admitted) {
        inflightBytes_.fetch_sub(bytes,
                                 std::memory_order_relaxed);
        overloaded_.fetch_add(1, std::memory_order_relaxed);
        obs::counter("serve.overloaded").inc();
        resp.status = RespStatus::Overloaded;
        resp.retryAfterMs = opts_.retryAfterMs;
        resp.meta.error =
            fitsBytes ? "request queue is full"
                      : "in-flight byte budget is exhausted";
        respondAndClose(fd, resp);
        return;
    }
    obs::gauge("serve.inflight.bytes")
        .set(inflightBytes_.load(std::memory_order_relaxed));
    obs::gauge("serve.queue.depth").max(queue_.depth());
}

void
Server::handleConnection(int fd)
{
    if (opts_.ioTimeoutSec > 0) {
        timeval tv{};
        tv.tv_sec = opts_.ioTimeoutSec;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }

    Request req;
    std::string err;
    // The io timeout doubles as the TOTAL per-request read deadline
    // (x4 for a margin over per-recv stalls): a slow-loris client
    // that keeps each recv() just under SO_RCVTIMEO still cannot
    // hold the accept loop past the deadline.
    const std::uint32_t deadlineMs =
        opts_.ioTimeoutSec > 0
            ? static_cast<std::uint32_t>(opts_.ioTimeoutSec) * 4000u
            : 0;
    const FrameReadStatus rs =
        readRequest(fd, opts_.maxRequestBytes, req, err, deadlineMs);
    if (rs == FrameReadStatus::Eof ||
        rs == FrameReadStatus::IoError) {
        if (errno == ETIMEDOUT || errno == EAGAIN ||
            errno == EWOULDBLOCK)
            obs::counter("serve.read_timeout").inc();
        ::close(fd);
        return;
    }
    // Fault injection: drop the connection after a full request —
    // the client sees a reset mid-frame and must surface a typed
    // transport error, never a hang.
    if (fault::at("serve.conn.reset")) {
        ::close(fd);
        return;
    }
    if (rs == FrameReadStatus::Malformed ||
        rs == FrameReadStatus::TooLarge) {
        badRequests_.fetch_add(1, std::memory_order_relaxed);
        obs::counter("serve.bad_request").inc();
        Response resp;
        resp.status = RespStatus::BadRequest;
        resp.meta.error = err;
        respondAndClose(fd, resp);
        return;
    }

    requests_.fetch_add(1, std::memory_order_relaxed);
    obs::counter("serve.requests").inc();

    switch (req.command) {
      case Command::Status: {
        Response resp;
        resp.status = RespStatus::Ok;
        resp.report = statusJson();
        respondAndClose(fd, resp);
        return;
      }
      case Command::Shutdown: {
        Response resp;
        resp.status = RespStatus::Ok;
        respondAndClose(fd, resp);
        beginShutdown();
        return;
      }
      case Command::Analyze:
        handleAnalyze(fd, req);
        return;
    }
    ::close(fd);
}

void
Server::acceptLoop()
{
    obs::setThreadName("serve.accept");
    for (;;) {
        pollfd fds[2] = {{listenFd_, POLLIN, 0},
                         {wakePipe_[0], POLLIN, 0}};
        const int n = ::poll(fds, 2, -1);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            warn("serve: poll: %s", std::strerror(errno));
            break;
        }
        if (fds[1].revents & POLLIN)
            draining_.store(true, std::memory_order_relaxed);
        if (fds[0].revents & POLLIN) {
            const int fd = ::accept4(listenFd_, nullptr, nullptr,
                                     SOCK_CLOEXEC);
            if (fd >= 0) {
                // Fault injection: accept "failure" — the accepted
                // connection is dropped on the floor (as an fd-
                // exhausted server would).  The loop must keep
                // serving; the client sees a reset and retries.
                if (fault::at("serve.accept.fail")) {
                    ::close(fd);
                    continue;
                }
                handleConnection(fd);
            } else if (errno != EINTR && errno != ECONNABORTED) {
                warn("serve: accept: %s", std::strerror(errno));
            }
        }
        if (draining_.load(std::memory_order_relaxed))
            break;
    }
    ::close(listenFd_);
    listenFd_ = -1;
    if (opts_.tcpPort < 0 && !opts_.socketPath.empty())
        ::unlink(opts_.socketPath.c_str());
    // No new work can arrive: let the workers drain what is queued
    // (every admitted request is still analyzed and answered) and
    // then exit their pop loops.
    queue_.close();
}

void
Server::serveJob(Job &job, unsigned analysisThreads)
{
    const Clock::time_point start = Clock::now();
    obs::Span reqSpan("serve.request");
    reqSpan.annotate(hash64Hex(job.key.hash));

    if (opts_.testAnalysisGate)
        opts_.testAnalysisGate();

    analyses_.fetch_add(1, std::memory_order_relaxed);
    obs::counter("serve.analyses").inc();

    const bool salvage = (job.reqFlags & kReqSalvage) != 0;
    UploadOutcome out =
        analyzeUpload(job.body, salvage, analysisThreads,
                      requestEngineWire(job.reqFlags));

    Response resp;
    if (out.ok) {
        resp.status = RespStatus::Ok;
        resp.flags = responseFlagsFor(out.rr);
        resp.meta = metaFromRunResult(out.rr, job.key.hash);
        resp.report = std::move(out.report);
        if ((job.reqFlags & kReqNoCache) == 0) {
            CachedResult value;
            value.meta = resp.meta;
            value.respFlags = resp.flags;
            value.report = resp.report;
            cache_.put(job.key, value);
        }
    } else {
        resp.status = RespStatus::BadRequest;
        resp.meta = metaFromRunResult(out.rr, job.key.hash);
        badRequests_.fetch_add(1, std::memory_order_relaxed);
        obs::counter("serve.bad_request").inc();
    }

    // Journal BEFORE unlinking the spool entry: a crash between the
    // two re-analyzes at worst one already-finished request.  A
    // failed append degrades the same way: the spool entry is still
    // unlinked (the response IS being sent), we merely lose the
    // crash-dedup for this one request — counted, not fatal.
    if (!job.spoolPath.empty() && journal_) {
        out.rr.path = job.spoolPath;
        if (!journal_->append(out.rr))
            obs::counter("serve.journal.degraded").inc();
        ::unlink(job.spoolPath.c_str());
    }

    inflightBytes_.fetch_sub(job.body.size(),
                             std::memory_order_relaxed);
    obs::gauge("serve.inflight.bytes")
        .set(inflightBytes_.load(std::memory_order_relaxed));

    respondAndClose(job.fd, resp);
    recordLatency(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - start)
            .count()));
}

void
Server::workerLoop(unsigned index)
{
    obs::setThreadName(strformat("serve.worker.%u", index));
    Job job;
    while (queue_.pop(job))
        serveJob(job, analysisThreads_);
}

} // namespace wmr::serve
