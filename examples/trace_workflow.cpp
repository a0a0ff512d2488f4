/**
 * @file
 * The post-mortem workflow with real trace files, as Section 4.1
 * prescribes: an instrumented execution phase that writes trace
 * files, and a separate analysis phase that reads them back.
 *
 *   $ ./trace_workflow run   prog.wm trace.bin   # phase 1
 *   $ ./trace_workflow check trace.bin           # phase 2
 *   $ ./trace_workflow demo                      # both, built-in
 *
 * `prog.wm` is a wmrace assembly file (see prog/assembler.hh for the
 * grammar).  The demo mode uses the producer/consumer pattern with
 * an injected bug.
 */

#include <cstdio>
#include <cstring>

#include "common/logging.hh"
#include "detect/analysis.hh"
#include "detect/report.hh"
#include "prog/assembler.hh"
#include "trace/segmented_io.hh"
#include "workload/patterns.hh"

namespace {

using namespace wmr;

int
phaseRun(const Program &prog, const std::string &tracePath)
{
    ExecOptions opts;
    opts.model = ModelKind::WO;
    opts.seed = 2026;
    opts.drainLaziness = 0.8;
    const ExecutionResult res = runProgram(prog, opts);
    if (!res.completed) {
        std::printf("execution truncated (spin without progress?)\n");
        return 1;
    }
    const ExecutionTrace trace = buildTrace(res);
    const std::size_t bytes = writeSegmentedTraceFile(trace, tracePath);
    if (bytes == 0)
        fatal("cannot write trace file '%s'", tracePath.c_str());
    std::printf("phase 1: executed %zu memory operations on %s, "
                "wrote %zu events (%zu bytes) to %s\n",
                res.ops.size(),
                std::string(modelName(opts.model)).c_str(),
                trace.events().size(), bytes, tracePath.c_str());
    return 0;
}

int
phaseCheck(const std::string &tracePath, const Program *prog)
{
    TraceReadResult loaded = tryReadTraceFile(tracePath);
    if (!loaded.ok())
        fatal("%s", loaded.error.c_str());
    const ExecutionTrace &trace = loaded.trace;
    std::printf("phase 2: loaded %zu events (%llu operations) from "
                "%s\n\n",
                trace.events().size(),
                static_cast<unsigned long long>(trace.totalOps()),
                tracePath.c_str());
    const DetectionResult det = analyzeTrace(trace);
    std::printf("%s", formatReport(det, prog).c_str());
    return det.anyDataRace() ? 1 : 0;
}

int
demo()
{
    std::printf("demo: producer/consumer with a racy head index\n\n");
    const Program prog =
        producerConsumer(/*items=*/6, /*slots=*/3, /*racy=*/true);
    const std::string path = "/tmp/wmrace_demo_trace.bin";
    if (phaseRun(prog, path) != 0)
        return 1;
    std::printf("\n");
    const int rc = phaseCheck(path, &prog);
    std::remove(path.c_str());
    std::printf("\nthe racy head publication shows up as the first "
                "partition;\nrun with producerConsumer(...,false) to "
                "see the clean report.\n");
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::strcmp(argv[1], "demo") == 0)
        return demo();
    if (argc == 4 && std::strcmp(argv[1], "run") == 0) {
        const Program prog = assembleFile(argv[2]);
        return phaseRun(prog, argv[3]);
    }
    if (argc == 3 && std::strcmp(argv[1], "check") == 0)
        return phaseCheck(argv[2], nullptr);
    std::printf("usage:\n"
                "  %s run <prog.wm> <trace.bin>   instrumented run\n"
                "  %s check <trace.bin>           post-mortem check\n"
                "  %s demo                        built-in demo\n",
                argv[0], argv[0], argv[0]);
    return demo();
}
