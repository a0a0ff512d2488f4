/**
 * @file
 * Throughput scaling of the batch analysis pipeline (src/pipeline):
 * the same trace corpus analyzed with 1 -> N worker threads.
 *
 * The per-trace analysis (hb1 graph -> G' -> partitions) is
 * share-nothing, so the corpus should scale until memory bandwidth or
 * core count intervenes; the reproduction table prints the measured
 * speedup over one thread.  The corpus is written to a temp directory
 * once and removed at exit.
 */

#include "bench_util.hh"

#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "pipeline/aggregate_report.hh"
#include "pipeline/batch_runner.hh"
#include "sim/executor.hh"
#include "trace/segmented_io.hh"
#include "workload/random_gen.hh"

#include <unistd.h>

namespace fs = std::filesystem;

namespace {

using namespace wmr;
using namespace wmr::benchutil;

/** Corpus size: small in smoke mode so CTest can afford the build. */
std::size_t
corpusTraces()
{
    return smokeMode() ? 4 : 24;
}

/** The corpus directory, created once and removed at process exit. */
class BenchCorpus
{
  public:
    BenchCorpus()
        : dir_(fs::temp_directory_path() /
               ("wmr_bench_batch." + std::to_string(::getpid())))
    {
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        for (std::size_t i = 0; i < corpusTraces(); ++i) {
            RandomProgConfig cfg;
            cfg.seed = 100 + i;
            cfg.procs = 6;
            cfg.blocksPerProc = smokeMode() ? 6 : 24;
            cfg.opsPerBlock = 10;
            cfg.dataWords = 96;
            cfg.numLocks = 8;
            cfg.unlockedProb = 0.05;
            ExecOptions opts;
            opts.model = ModelKind::WO;
            opts.seed = cfg.seed;
            opts.maxSteps = 10'000'000;
            const auto res = runProgram(randomProgram(cfg), opts);
            const auto trace = buildTrace(res);
            char name[32];
            std::snprintf(name, sizeof(name), "t%03zu.trace", i);
            writeSegmentedTraceFile(trace, (dir_ / name).string());
        }
        scan_ = scanCorpus(dir_.string());
    }

    ~BenchCorpus() { fs::remove_all(dir_); }

    const CorpusScan &scan() const { return scan_; }

  private:
    fs::path dir_;
    CorpusScan scan_;
};

const CorpusScan &
corpus()
{
    static BenchCorpus instance;
    return instance.scan();
}

void
reproduce()
{
    section("batch pipeline thread scaling (" +
            std::to_string(corpusTraces()) + "-trace corpus)");
    const unsigned cores = std::thread::hardware_concurrency();
    note("hardware concurrency: " + std::to_string(cores) +
         " core(s) — speedup saturates there; on a single-core "
         "host expect ~1.0x");
    std::printf("  %-8s %12s %12s %10s %12s\n", "jobs", "wall ms",
                "traces/s", "speedup", "peak queue");

    double baseline = 0;
    std::string report1;
    bool identical = true;
    struct Row
    {
        unsigned jobs;
        double wall;
        double tracesPerSec;
    };
    std::vector<Row> rows;
    const std::vector<unsigned> jobCounts =
        smokeMode() ? std::vector<unsigned>{1u, 2u}
                    : std::vector<unsigned>{1u, 2u, 4u, 8u};
    const int reps = smokeMode() ? 1 : 3;
    for (const unsigned jobs : jobCounts) {
        BatchOptions opts;
        opts.jobs = jobs;
        // Best of 3 runs: the corpus is small enough that one
        // scheduler hiccup would otherwise dominate the table.
        double bestWall = 0;
        BatchResult best;
        for (int rep = 0; rep < reps; ++rep) {
            auto batch = runBatch(corpus(), opts);
            if (bestWall == 0 ||
                batch.metrics.wallSeconds < bestWall) {
                bestWall = batch.metrics.wallSeconds;
                best = std::move(batch);
            }
        }
        if (jobs == 1) {
            baseline = bestWall;
            report1 = formatBatchReport(best);
        } else if (formatBatchReport(best) != report1) {
            identical = false;
            note("!! report mismatch vs --jobs 1 (determinism "
                 "violation)");
        }
        std::printf("  %-8u %12.2f %12.1f %9.2fx %12zu\n", jobs,
                    bestWall * 1e3, best.metrics.tracesPerSecond(),
                    baseline / bestWall,
                    best.metrics.peakQueueDepth);
        rows.push_back(
            {jobs, bestWall, best.metrics.tracesPerSecond()});
    }
    note("aggregated report verified byte-identical across job "
         "counts;");
    note("speedup ceiling = min(cores, corpus traces) minus "
         "read/parse serial fraction.");

    // Machine-readable block for the committed BENCH_*.json
    // baselines (tools/bench_baselines.sh extracts it).
    std::printf("{\n  \"schema\": \"wmrace-batch-throughput\",\n");
    std::printf("  \"corpus_traces\": %zu,\n", corpusTraces());
    std::printf("  \"hardware_concurrency\": %u,\n", cores);
    std::printf("  \"reports_identical\": %s,\n",
                identical ? "true" : "false");
    std::printf("  \"results\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::printf("    {\"jobs\": %u, \"wall_seconds\": %.6f, "
                    "\"traces_per_second\": %.1f, \"speedup\": "
                    "%.3f}%s\n",
                    rows[i].jobs, rows[i].wall, rows[i].tracesPerSec,
                    rows[0].wall / rows[i].wall,
                    i + 1 < rows.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
}

void
BM_BatchAnalyze(benchmark::State &state)
{
    BatchOptions opts;
    opts.jobs = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        auto batch = runBatch(corpus(), opts);
        benchmark::DoNotOptimize(batch.metrics.analyzed);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(corpusTraces()));
}
BENCHMARK(BM_BatchAnalyze)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

} // namespace

WMR_BENCH_MAIN(reproduce)
