#include "detect/analysis.hh"

#include <sstream>

#include "common/worker_pool.hh"
#include "obs/obs.hh"

namespace wmr {

DetectionResult::DetectionResult(ExecutionTrace trace,
                                 const AnalysisOptions &opts,
                                 const std::vector<MemOp> *ops)
    : trace_(std::move(trace))
{
    const unsigned threads = resolveThreads(opts.threads);
    stats_.threads = threads;
    stats_.events = trace_.events().size();

    // Every stage is timed by the SAME obs::StagedSpan shim: the
    // seconds land in AnalysisStats (as before), and when span
    // collection is on (WMR_OBS / --trace-out) the six stages show
    // up on the process-wide timeline.  The stage names here are the
    // contract of the Chrome-trace acceptance test.
    obs::StagedSpan total("analysis.run", stats_.totalSeconds);

    {
        obs::StagedSpan s("analysis.graph_build",
                          stats_.graphBuildSeconds);
        hb_ = std::make_unique<HbGraph>(trace_);
    }
    {
        obs::StagedSpan s("analysis.reachability",
                          stats_.reachabilitySeconds);
        reach_ = std::make_unique<ReachabilityIndex>(*hb_, trace_);
    }
    stats_.hbReach = reach_->buildStats();
    stats_.hbComponents = reach_->scc().numComponents;

    {
        obs::StagedSpan s("analysis.race_find",
                          stats_.raceFindSeconds);
        races_ = findRaces(trace_, *reach_, opts.finder, threads,
                           &stats_.finder);
    }
    {
        obs::StagedSpan s("analysis.augment", stats_.augmentSeconds);
        aug_ = std::make_unique<AugmentedGraph>(*hb_, races_, trace_);
    }
    stats_.augReach = aug_->reach().buildStats();
    stats_.augComponents = aug_->reach().scc().numComponents;

    {
        obs::StagedSpan s("analysis.partition",
                          stats_.partitionSeconds);
        parts_ = partitionRaces(races_, *aug_);
    }
    {
        obs::StagedSpan s("analysis.scp", stats_.scpSeconds);
        scp_ = analyzeScp(trace_, races_, ops);
    }

    // Publish the run into the process-wide registry — the one sink
    // `wmrace check`, `batch` workers and annotated programs share.
    static obs::Counter cRuns = obs::counter("analysis.runs");
    static obs::Counter cEvents = obs::counter("analysis.events");
    static obs::Counter cRaces = obs::counter("analysis.races");
    static obs::Counter cCandidates =
        obs::counter("analysis.candidate_pairs");
    static obs::Counter cQueries =
        obs::counter("analysis.reach_queries");
    cRuns.inc();
    cEvents.add(stats_.events);
    cRaces.add(races_.size());
    cCandidates.add(stats_.finder.candidatePairs);
    cQueries.add(stats_.finder.reachQueries);
}

bool
DetectionResult::anyDataRace() const
{
    return numDataRaces() > 0;
}

std::size_t
DetectionResult::numDataRaces() const
{
    std::size_t n = 0;
    for (const auto &r : races_) {
        if (r.isDataRace)
            ++n;
    }
    return n;
}

DetectionResult
analyzeTrace(ExecutionTrace trace, const AnalysisOptions &opts)
{
    return DetectionResult(std::move(trace), opts, nullptr);
}

DetectionResult
analyzeExecution(const ExecutionResult &res, const AnalysisOptions &opts)
{
    ExecutionTrace trace = buildTrace(res, opts.traceOpts);
    return DetectionResult(std::move(trace), opts, &res.ops);
}

std::string
formatAnalysisStats(const AnalysisStats &s)
{
    std::ostringstream os;
    os << "analysis stats (" << s.threads
       << (s.threads == 1 ? " thread)\n" : " threads)\n");
    os << "  events             " << s.events << "\n";
    os << "  hb1 components     " << s.hbComponents << "\n";
    os << "  G' components      " << s.augComponents << "\n";
    os << std::fixed;
    os.precision(6);
    const auto stage = [&os](const char *name, double seconds) {
        os << "  " << name << seconds << " s\n";
    };
    stage("graph build        ", s.graphBuildSeconds);
    stage("reachability       ", s.reachabilitySeconds);
    os << "    scc              " << s.hbReach.sccSeconds << " s, clocks "
       << s.hbReach.clockSeconds << " s\n";
    stage("race finding       ", s.raceFindSeconds);
    os << "    shards " << s.finder.shards << ", words "
       << s.finder.indexedAddrs << ", candidates "
       << s.finder.candidatePairs << " (one oracle query each), ordered "
       << s.finder.orderedPairs << "\n";
    stage("augment (G')       ", s.augmentSeconds);
    os << "    scc              " << s.augReach.sccSeconds << " s, clocks "
       << s.augReach.clockSeconds << " s\n";
    stage("partitioning       ", s.partitionSeconds);
    stage("scp classification ", s.scpSeconds);
    stage("total              ", s.totalSeconds);
    return os.str();
}

} // namespace wmr
