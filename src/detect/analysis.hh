/**
 * @file
 * The one-call post-mortem analysis pipeline — the public API most
 * users of wmrace want.
 *
 * analyzeTrace() runs the full Section-4 method on a trace:
 * build hb1, enumerate races, build G', partition by SCC, order
 * partitions, identify first partitions, and classify races against
 * the SCP.  analyzeExecution() adds the instrumented-tracing step in
 * front, going straight from a simulated execution.
 */

#ifndef WMR_DETECT_ANALYSIS_HH
#define WMR_DETECT_ANALYSIS_HH

#include <memory>

#include "detect/analysis_stats.hh"
#include "detect/augmented_graph.hh"
#include "detect/partition.hh"
#include "detect/race_finder.hh"
#include "detect/scp.hh"
#include "hb/hb_graph.hh"
#include "hb/reachability.hh"
#include "sim/executor.hh"
#include "trace/execution_trace.hh"

namespace wmr {

/** Options of the full pipeline. */
struct AnalysisOptions
{
    RaceFinderOptions finder;

    /** Trace-construction options (analyzeExecution only). */
    TraceBuildOptions traceOpts{.keepMemberOps = true, .maxCompRun = 0};

    /**
     * Analysis worker budget (0 = hardware concurrency).  Threads
     * shard the race enumeration only; every other stage is serial.
     * Every result — races, partitions, SCP, reports — is
     * byte-identical at every value.
     */
    unsigned threads = 1;
};

/** Everything the post-mortem analysis produced. */
class DetectionResult
{
  public:
    DetectionResult(ExecutionTrace trace, const AnalysisOptions &opts,
                    const std::vector<MemOp> *ops);

    const ExecutionTrace &trace() const { return trace_; }
    const HbGraph &hbGraph() const { return *hb_; }
    const ReachabilityIndex &hbReach() const { return *reach_; }
    const std::vector<DataRace> &races() const { return races_; }
    const AugmentedGraph &augmented() const { return *aug_; }
    const RacePartitions &partitions() const { return parts_; }
    const ScpInfo &scp() const { return scp_; }

    /** @return per-stage timing/counters of this run (not part of
     *  the deterministic analysis output). */
    const AnalysisStats &stats() const { return stats_; }

    /** @return whether any data race was detected (Theorem 4.1 side). */
    bool anyDataRace() const;

    /** @return count of data races (excluding sync-sync races). */
    std::size_t numDataRaces() const;

    /** @return the races the method reports: those of first
     *  partitions (Sec. 4.2's claim: report only first partitions). */
    std::vector<RaceId>
    reportedRaces() const
    {
        return parts_.reportableRaces();
    }

  private:
    ExecutionTrace trace_;
    std::unique_ptr<HbGraph> hb_;
    std::unique_ptr<ReachabilityIndex> reach_;
    std::vector<DataRace> races_;
    std::unique_ptr<AugmentedGraph> aug_;
    RacePartitions parts_;
    ScpInfo scp_;
    AnalysisStats stats_;
};

/** Run the Section-4 method on an existing trace (post-mortem). */
DetectionResult analyzeTrace(ExecutionTrace trace,
                             const AnalysisOptions &opts = {});

/**
 * Trace @p res (Section 4.1 instrumentation) and analyze it.  Member
 * operations are retained by default so SCP classification is exact.
 */
DetectionResult analyzeExecution(const ExecutionResult &res,
                                 const AnalysisOptions &opts = {});

} // namespace wmr

#endif // WMR_DETECT_ANALYSIS_HH
