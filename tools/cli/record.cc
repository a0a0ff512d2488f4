/**
 * @file
 * The record command: run an annotated program under its runtime
 * tracer (src/rt, docs/RUNTIME.md), then analyze the trace it leaves
 * — after it exits, or live while it runs.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "commands.hh"
#include "common/logging.hh"
#include "detect/analysis.hh"
#include "detect/report.hh"
#include "stream/stream_analyzer.hh"
#include "trace/segmented_io.hh"
#include "trace/trace_io.hh"

namespace wmr::cli {
namespace {

/** How a supervised recording child ended. */
struct ChildOutcome
{
    enum class Kind : std::uint8_t {
        Clean,    ///< exit 0
        Nonzero,  ///< nonzero exit status
        Signaled, ///< killed by a signal (its own crash)
        TimedOut, ///< exceeded --timeout; we SIGKILLed it
    };
    Kind kind = Kind::Clean;
    int code = 0; ///< exit status or signal number

    bool abnormal() const { return kind != Kind::Clean; }

    std::string
    describe(const std::string &child) const
    {
        char buf[256];
        switch (kind) {
          case Kind::Clean:
            std::snprintf(buf, sizeof(buf),
                          "child '%s' exited cleanly",
                          child.c_str());
            break;
          case Kind::Nonzero:
            std::snprintf(buf, sizeof(buf),
                          "child '%s' exited with status %d",
                          child.c_str(), code);
            break;
          case Kind::Signaled:
            std::snprintf(buf, sizeof(buf),
                          "child '%s' died on signal %d (%s)",
                          child.c_str(), code,
                          ::strsignal(code));
            break;
          case Kind::TimedOut:
            std::snprintf(buf, sizeof(buf),
                          "child '%s' timed out after %ds; killed",
                          child.c_str(), code);
            break;
        }
        return buf;
    }
};

} // namespace

/**
 * Run the recording child once: fork, point its tracer at @p out,
 * exec, and supervise.  With @p timeoutSec > 0 a child still running
 * after the deadline is SIGKILLed and classified TimedOut (its
 * incrementally spilled trace survives for salvage).
 */
static ChildOutcome
runRecordChild(const std::string &child, char **childArgv,
               const std::string &out, int timeoutSec)
{
    const pid_t pid = ::fork();
    if (pid < 0)
        fatal("record: fork failed: %s", std::strerror(errno));
    if (pid == 0) {
        ::setenv("WMR_RT_TRACE", out.c_str(), 1);
        ::execvp(child.c_str(), childArgv);
        std::fprintf(stderr, "record: cannot exec '%s': %s\n",
                     child.c_str(), std::strerror(errno));
        std::_Exit(127);
    }

    int status = 0;
    bool timedOut = false;
    if (timeoutSec > 0) {
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::seconds(timeoutSec);
        while (true) {
            const pid_t r = ::waitpid(pid, &status, WNOHANG);
            if (r == pid)
                break;
            if (r < 0 && errno != EINTR)
                fatal("record: waitpid failed: %s",
                      std::strerror(errno));
            if (std::chrono::steady_clock::now() >= deadline) {
                ::kill(pid, SIGKILL);
                if (::waitpid(pid, &status, 0) < 0)
                    fatal("record: waitpid failed: %s",
                          std::strerror(errno));
                timedOut = true;
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
    } else if (::waitpid(pid, &status, 0) < 0) {
        fatal("record: waitpid failed: %s", std::strerror(errno));
    }

    ChildOutcome oc;
    if (timedOut) {
        oc.kind = ChildOutcome::Kind::TimedOut;
        oc.code = timeoutSec;
    } else if (WIFSIGNALED(status)) {
        oc.kind = ChildOutcome::Kind::Signaled;
        oc.code = WTERMSIG(status);
    } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
        oc.kind = ChildOutcome::Kind::Nonzero;
        oc.code = WEXITSTATUS(status);
    }
    return oc;
}

/**
 * `wmrace record [opts] <binary> [args...]`: launch an annotated
 * program with WMR_RT_TRACE set so its runtime tracer (src/rt)
 * records an EVENT trace, then analyze the trace with the regular
 * post-mortem pipeline.  An abnormally terminated child is retried
 * (--retries) and its partial trace salvaged — never a fatal().
 */
static int
cmdRecord(const CommandLine &cl)
{
    const bool live = cl.has("live");
    const int timeoutSec = cl.number("timeout", 0);
    const int retries = cl.number("retries", 0);
    const TraceOut traceOut(cl);
    const std::string &child = cl.operands()[0];
    std::string out = cl.text("out");
    if (out.empty()) {
        const auto slash = child.find_last_of('/');
        out = (slash == std::string::npos
                   ? child
                   : child.substr(slash + 1)) +
              ".trace";
    }

    // --live: a feeder thread tails the spill file and streams
    // segments into the analyzer while the child runs.  It only
    // FEEDS — finalize()/finish() wait for the child outcome, which
    // decides the strictness of the read (clean exit = strict,
    // abnormal = salvage tolerance), exactly like the non-live read
    // below.
    std::unique_ptr<SegmentTailReader> tail;
    std::unique_ptr<StreamAnalyzer> liveAn;
    std::atomic<bool> childAlive{true};
    std::thread feeder;
    if (live) {
        // Never follow a stale file from a previous recording: the
        // child recreates it, but possibly after the first poll.
        ::unlink(out.c_str());
        tail = std::make_unique<SegmentTailReader>();
        liveAn = std::make_unique<StreamAnalyzer>(StreamOptions{});
        feeder = std::thread([&] {
            const auto nap = [] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
            };
            while (!tail->open(out)) {
                if (!childAlive.load()) {
                    if (!tail->open(out))
                        return;
                    break;
                }
                nap();
            }
            std::vector<SegTailSegment> segs;
            for (;;) {
                // Sample liveness BEFORE polling: anything written
                // before the child died reaches this or a later
                // poll.
                const bool wasAlive = childAlive.load();
                segs.clear();
                const TailPollStatus st = tail->poll(segs);
                for (const SegTailSegment &seg : segs)
                    liveAn->addSegment(seg);
                if (st == TailPollStatus::Fin ||
                    st == TailPollStatus::Damaged)
                    return;
                if (st == TailPollStatus::Waiting) {
                    if (!wasAlive && tail->atEof())
                        return;
                    nap();
                }
            }
        });
    }

    ChildOutcome oc;
    for (int attempt = 0; attempt <= retries; ++attempt) {
        if (attempt > 0) {
            // Exponential backoff for flaky children: 200ms, 400ms,
            // 800ms, ... capped at 5s.
            const auto backoff = std::min<std::int64_t>(
                200ll << (attempt - 1), 5000);
            std::fprintf(stderr,
                         "record: retrying (%d/%d) after %lldms\n",
                         attempt, retries,
                         static_cast<long long>(backoff));
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoff));
        }
        oc = runRecordChild(child, cl.tail(), out, timeoutSec);
        std::printf("record: %s\n", oc.describe(child).c_str());
        if (!oc.abnormal())
            break;
    }

    std::printf("recorded '%s' -> %s\n", child.c_str(), out.c_str());

    if (live) {
        childAlive.store(false);
        feeder.join();
        const bool strict = !oc.abnormal();
        if (!tail->isOpen()) {
            std::fprintf(stderr,
                         "record: no analyzable trace: %s\n",
                         tail->error().empty()
                             ? "the child never created the trace "
                               "file"
                             : tail->error().c_str());
            return 3;
        }
        if (!tail->finalize(strict)) {
            std::fprintf(stderr,
                         "record: no analyzable trace: %s\n",
                         tail->error().c_str());
            return 3;
        }
        liveAn->setStrict(strict);
        const StreamResult sr = liveAn->finish(
            tail->finSeen(), tail->fin(), tail->salvage());
        if (!sr.ok) {
            std::fprintf(stderr,
                         "record: no analyzable trace: %s\n",
                         sr.error.c_str());
            return 3;
        }
        std::printf("%s",
                    formatTraceProvenance(true, sr.salvage).c_str());
        std::printf("%s",
                    renderReport(sr.report, nullptr, ReportOptions{})
                        .c_str());
        return sr.anyDataRace ? 1 : 0;
    }

    if (cl.has("no-check")) {
        // --no-check keeps whatever trace the child left, even after
        // an abnormal exit; 0 only when the recording is complete.
        std::ifstream probe(out, std::ios::binary);
        return !probe ? 3 : (oc.abnormal() ? 3 : 0);
    }

    // Strict read after a clean exit; salvage after an abnormal one
    // (the spill file has no FIN segment — that is expected, not an
    // error).
    TraceReadResult lt = tryReadTraceFile(out, oc.abnormal());
    if (!lt.ok()) {
        std::fprintf(stderr,
                     "record: no analyzable trace: %s\n",
                     lt.error.c_str());
        return 3;
    }
    std::printf("%s",
                formatTraceProvenance(lt.segmented, lt.salvage).c_str());
    const DetectionResult det = analyzeTrace(std::move(lt.trace));
    std::printf("%s", formatReport(det, nullptr, {}).c_str());
    return det.anyDataRace() ? 1 : 0;
}

const Command kRecord{
    .name = "record",
    .operands = "<binary> [args...]",
    .summary = "run an annotated program, analyze its trace",
    .minOperands = 1,
    .maxOperands = 1,
    .tail = true,
    .options = {
        text("out", "FILE", "trace file (default: <binary>.trace)"),
        flag("no-check", "just record; skip the analysis"),
        number("timeout", 1, std::numeric_limits<int>::max(),
               "kill the child after N seconds and salvage its trace"),
        number("retries", 0, 100, "re-run an abnormally ended child up "
                                  "to N more times, with backoff"),
        flag("live", "analyze the trace while the child runs, with the "
                     "bounded-memory engine"),
        traceOutOption(),
    },
    .conflicts = {{"live", "retries"}, {"live", "no-check"}},
    .run = cmdRecord,
};

} // namespace wmr::cli
