/**
 * @file
 * The commands over a `.wm` program: run, explore, static, disasm,
 * and models.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "commands.hh"
#include "common/logging.hh"
#include "detect/analysis.hh"
#include "detect/dot_export.hh"
#include "detect/report.hh"
#include "detect/robustness.hh"
#include "mc/explorer.hh"
#include "onthefly/first_race_filter.hh"
#include "prog/assembler.hh"
#include "sim/exec_stats.hh"
#include "staticdet/static_analyzer.hh"
#include "trace/segmented_io.hh"
#include "trace/timeline.hh"

namespace wmr::cli {

static std::vector<std::string>
modelNames()
{
    std::vector<std::string> names;
    for (const ModelKind kind : kAllModels)
        names.emplace_back(modelName(kind));
    return names;
}

/** "buffer" is the short spelling of the store-buffer realization. */
static std::vector<std::string>
realizationNames()
{
    std::vector<std::string> names{"buffer"};
    for (const Realization r : kAllRealizations)
        names.emplace_back(realizationName(r));
    return names;
}

static int
cmdRun(const CommandLine &cl)
{
    const Program prog = assembleFile(cl.operands()[0]);

    ExecOptions opts;
    for (const ModelKind kind : kAllModels) {
        if (modelName(kind) == cl.choice("model"))
            opts.model = kind;
    }
    if (cl.choice("realization") == "invalidate")
        opts.realization = Realization::Invalidate;
    opts.seed = cl.number("seed", opts.seed);
    opts.drainLaziness = cl.fraction("laziness", opts.drainLaziness);

    FirstRaceFilter otf(prog.numProcs(), prog.memWords());
    if (cl.has("onthefly"))
        opts.sink = &otf;

    const ExecutionResult res = runProgram(prog, opts);
    std::printf("model %s (%s), seed %llu: %llu instructions, %zu "
                "memory ops, %llu cycles%s\n",
                std::string(modelName(opts.model)).c_str(),
                std::string(realizationName(opts.realization))
                    .c_str(),
                static_cast<unsigned long long>(opts.seed),
                static_cast<unsigned long long>(res.steps),
                res.ops.size(),
                static_cast<unsigned long long>(res.totalCycles),
                res.completed ? "" : "  [TRUNCATED]");

    if (cl.has("trace")) {
        const std::string &path = cl.text("trace");
        const auto trace = buildTrace(res);
        const auto bytes = writeSegmentedTraceFile(trace, path);
        if (bytes == 0)
            fatal("run: cannot write '%s'", path.c_str());
        std::printf("wrote %zu events (%zu bytes) to %s\n",
                    trace.events().size(), bytes, path.c_str());
    }

    if (cl.has("stats")) {
        std::printf("%s",
                    formatStats(summarizeExecution(res), &prog)
                        .c_str());
    }

    if (cl.has("timeline")) {
        const auto trace = buildTrace(res, {.keepMemberOps = true});
        std::printf("%s",
                    renderTimeline(trace, &prog, &res).c_str());
    }

    if (cl.has("robustness")) {
        const RobustnessResult rob = checkRobustness(res);
        std::printf("%s",
                    formatRobustnessReport(rob, res.ops).c_str());
    }

    const DetectionResult det = analyzeExecution(res);
    ReportOptions ropts;
    ropts.showEvents = cl.has("events");
    std::printf("%s", formatReport(det, &prog, ropts).c_str());

    if (cl.has("onthefly")) {
        std::printf("\non-the-fly: %zu race report(s), %zu distinct, "
                    "%zu classified first\n",
                    otf.detector().races().size(),
                    otf.detector().distinctRaces().size(),
                    otf.firstRaces().size());
    }

    if (cl.has("dot")) {
        const std::string &path = cl.text("dot");
        writeDotFile(det, path, &prog);
        std::printf("wrote DOT graph to %s  (render: dot -Tsvg %s)\n",
                    path.c_str(), path.c_str());
    }
    return det.anyDataRace() ? 1 : 0;
}

const Command kRun{
    .name = "run",
    .operands = "<prog.wm>",
    .summary = "simulate on a weak model and detect races",
    .minOperands = 1,
    .maxOperands = 1,
    .options = {
        choice("model", modelNames(), "memory model (default WO)"),
        choice("realization", realizationNames(),
               "hardware flavor (default buffer)"),
        number("seed", 0, std::numeric_limits<std::uint64_t>::max(),
               "scheduler/drain seed (default 1)"),
        fraction("laziness", "drain laziness (default 0.5)"),
        flag("robustness", "print the SC-equivalence verdict first"),
        text("trace", "FILE", "write the WMRSEG01 trace file"),
        text("dot", "FILE", "write the G' graph as DOT"),
        flag("events", "include per-event detail in the report"),
        flag("stats", "print execution statistics"),
        flag("timeline", "print the per-processor timeline"),
        flag("onthefly", "also run the on-the-fly detector"),
    },
    .run = cmdRun,
};

static int
cmdExplore(const CommandLine &cl)
{
    const Program prog = assembleFile(cl.operands()[0]);
    McLimits limits;
    limits.maxExecutions =
        cl.number<std::uint64_t>("max-execs", 100000);
    const auto truth = exploreScExecutions(prog, limits);
    std::printf("explored %llu sequentially consistent execution(s)%s"
                "%s\n",
                static_cast<unsigned long long>(truth.executions),
                truth.exhaustive ? " (exhaustive)" : " (bounded)",
                truth.truncated
                    ? (" [" + std::to_string(truth.truncated) +
                       " truncated paths]")
                          .c_str()
                    : "");
    if (truth.anyDataRace) {
        std::printf("program HAS data races on SC; %zu static race "
                    "pair(s):\n",
                    truth.races.size());
        for (const auto &r : truth.races) {
            std::printf("  P%u:pc%u  <->  P%u:pc%u\n", r.x.proc,
                        r.x.pc, r.y.proc, r.y.pc);
        }
        return 1;
    }
    std::printf("no data races in any explored SC execution%s\n",
                truth.exhaustive
                    ? ": the program is data-race-free; all weak "
                      "models guarantee it sequential consistency"
                    : " (bounded exploration: not a proof)");
    return 0;
}

const Command kExplore{
    .name = "explore",
    .operands = "<prog.wm>",
    .summary = "exhaustive SC model checking",
    .minOperands = 1,
    .maxOperands = 1,
    .options = {
        number("max-execs", 0, std::numeric_limits<std::uint64_t>::max(),
               "stop after N executions (default 100000)"),
    },
    .run = cmdExplore,
};

static int
cmdStatic(const CommandLine &cl)
{
    const Program prog = assembleFile(cl.operands()[0]);
    StaticOptions opts;
    opts.firstDataAddr = cl.number("first-data-addr", opts.firstDataAddr);
    const auto analysis = analyzeStatically(prog, opts);
    std::printf("%s", formatStaticReport(analysis, &prog).c_str());
    return analysis.clean() ? 0 : 1;
}

const Command kStatic{
    .name = "static",
    .operands = "<prog.wm>",
    .summary = "compile-time lockset analysis",
    .minOperands = 1,
    .maxOperands = 1,
    .options = {
        number("first-data-addr", 0, std::numeric_limits<Addr>::max(),
               "addresses below N are sync infrastructure, not data"),
    },
    .run = cmdStatic,
};

static int
cmdDisasm(const CommandLine &cl)
{
    const Program prog = assembleFile(cl.operands()[0]);
    std::printf("%s", prog.disassembleAll().c_str());
    return 0;
}

const Command kDisasm{
    .name = "disasm",
    .operands = "<prog.wm>",
    .summary = "print the assembled program",
    .minOperands = 1,
    .maxOperands = 1,
    .run = cmdDisasm,
};

static int
cmdModels(const CommandLine &)
{
    std::printf("memory models:\n");
    std::printf("  SC    sequential consistency (every op stalls to "
                "completion)\n");
    std::printf("  WO    weak ordering [Dubois/Scheurich/Briggs 86]\n");
    std::printf("  RCsc  release consistency w/ SC sync ops "
                "[Gharachorloo+ 90]\n");
    std::printf("  DRF0  data-race-free-0 [Adve/Hill 90] (pipelined "
                "drains)\n");
    std::printf("  DRF1  data-race-free-1 [Adve/Hill 91] (release/"
                "acquire + pipelined)\n");
    std::printf("  TSO   total store order (x86-style FIFO buffer; "
                "only W->R reordering)\n");
    std::printf("  PSO   partial store order (SPARC-style "
                "per-location FIFO; W->W too)\n");
    std::printf("fences:\n");
    std::printf("  fence   full fence (mfence): drain everything "
                "and stall\n");
    std::printf("  sfence  store-store fence: order stores across "
                "it without stalling\n");
    std::printf("realizations:\n");
    std::printf("  buffer       per-processor unordered store "
                "buffers (delayed visibility)\n");
    std::printf("  invalidate   invalidation queues (delayed death "
                "of stale copies)\n");
    return 0;
}

const Command kModels{
    .name = "models",
    .summary = "describe the memory models",
    .run = cmdModels,
};

} // namespace wmr::cli
