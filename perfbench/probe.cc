/**
 * @file
 * In-process half of the wmrace benchmark (run.py drives it).
 *
 *   wmbench_probe layers --out JSON --work DIR --corpus DIR
 *                        --jobs J --uploads U FILE...
 *       The traced run: call the library's public functions for the
 *       check, --stream and --engine shb paths on every FILE and for
 *       the batch path on the corpus, with a span around each call,
 *       and write the spans plus the per-layer metrics derived from
 *       them to JSON.
 *
 * Spans are recorded here, around calls into the library; nothing
 * inside the library is instrumented.  Span times are CLOCK_MONOTONIC
 * nanoseconds (std::chrono::steady_clock), the clock Python's
 * time.monotonic_ns() reads, so run.py merges them with its own.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/hash64.hh"
#include "detect/analysis.hh"
#include "detect/report.hh"
#include "engines/family.hh"
#include "pipeline/aggregate_report.hh"
#include "pipeline/batch_runner.hh"
#include "pipeline/trace_corpus.hh"
#include "stream/stream_analyzer.hh"
#include "trace/segmented_io.hh"

namespace {

using namespace wmr;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

[[noreturn]] void
die(const std::string &why)
{
    std::fprintf(stderr, "wmbench_probe: %s\n", why.c_str());
    std::exit(2);
}

/** --key value flags plus positionals. */
struct Flags
{
    std::map<std::string, std::string> kv;
    std::vector<std::string> positional;

    Flags(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            const std::string a = argv[i];
            if (a.rfind("--", 0) == 0 && i + 1 < argc)
                kv[a.substr(2)] = argv[++i];
            else if (a.rfind("--", 0) == 0)
                die("flag " + a + " needs a value");
            else
                positional.push_back(a);
        }
    }

    std::string
    str(const std::string &key) const
    {
        const auto it = kv.find(key);
        if (it == kv.end())
            die("missing --" + key);
        return it->second;
    }

    std::uint64_t
    uint(const std::string &key, std::uint64_t dflt) const
    {
        return kv.count(key) ? std::strtoull(str(key).c_str(), nullptr, 10)
                             : dflt;
    }
};

// ---------------------------------------------------------------- spans

struct SpanRec
{
    std::string name;
    std::string path; ///< the CLI path the span belongs to
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;
    bool leaf = true;
};

/** In-memory span tree; written out once the run ends. */
class Recorder
{
  public:
    int
    begin(const std::string &name, const std::string &path)
    {
        const int parent = open_.empty() ? -1 : open_.back();
        if (parent >= 0)
            spans_[parent].leaf = false;
        spans_.push_back(SpanRec{name, path, nowNs(), 0, parent, true});
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    double
    end(int id)
    {
        spans_[id].endNs = nowNs();
        open_.pop_back();
        return (spans_[id].endNs - spans_[id].startNs) * 1e-9;
    }

    /** Seconds covered by the leaf spans of @p path: the attributed
     *  part of that path's wall time. */
    double
    leafSeconds(const std::string &path) const
    {
        std::int64_t ns = 0;
        for (const SpanRec &s : spans_) {
            if (s.leaf && s.path == path)
                ns += s.endNs - s.startNs;
        }
        return ns * 1e-9;
    }

    const std::vector<SpanRec> &spans() const { return spans_; }

  private:
    std::vector<SpanRec> spans_;
    std::vector<int> open_;
};

Recorder gRec;
std::map<std::string, double> gMetrics;

/** One span: opens on construction, closes on stop() or scope exit
 *  and adds its seconds to the metric named @p metric, if any. */
class Scope
{
  public:
    Scope(const std::string &name, const std::string &path,
          const char *metric = nullptr)
        : id_(gRec.begin(name, path)), metric_(metric)
    {
    }

    ~Scope() { stop(); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    double
    stop()
    {
        if (!open_)
            return seconds_;
        open_ = false;
        seconds_ = gRec.end(id_);
        if (metric_ != nullptr)
            gMetrics[metric_] += seconds_;
        return seconds_;
    }

  private:
    int id_;
    const char *metric_;
    bool open_ = true;
    double seconds_ = 0;
};

void
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        die("cannot write " + path);
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (std::fclose(f) != 0 || !ok)
        die("short write to " + path);
}

std::string
jsonString(const std::string &s)
{
    return "\"" + jsonEscape(s) + "\"";
}

// --------------------------------------------------------------- layers

struct PathOutcome
{
    std::uint64_t hash = 0;
    std::uint64_t races = 0;
};

/** `wmrace check FILE`, layer by layer. */
PathOutcome
checkPath(const std::string &file, const std::string &work)
{
    const std::string path = "check";
    Scope whole("check", path);
    SegTraceReadResult res;
    {
        Scope s("trace.read", path, "trace.read_s");
        res = tryReadSegmentedTraceFile(file);
    }
    if (!res.ok())
        die(res.error);
    gMetrics["trace.read_mb"] +=
        std::filesystem::file_size(file) / (1024.0 * 1024.0);

    // The layers one call at a time, then the same work in one
    // untraced analyzeTrace(): the difference is the cost of tracing,
    // and the DetectionResult feeds the report layers.
    double tracedWall = 0;
    {
        Scope layers("detect.layers", path);
        std::unique_ptr<HbGraph> hb;
        {
            Scope s("hb.graph", path, "hb.graph_s");
            hb = std::make_unique<HbGraph>(res.trace);
        }
        std::unique_ptr<ReachabilityIndex> reach;
        {
            Scope s("hb.reach", path, "hb.reach_s");
            reach = std::make_unique<ReachabilityIndex>(*hb, res.trace, 1);
        }
        RaceFinderStats st;
        std::vector<DataRace> races;
        {
            Scope s("detect.race_find", path, "detect.race_find_s");
            races = findRaces(res.trace, *reach, {}, 1, &st);
        }
        gMetrics["detect.candidate_pairs"] += st.candidatePairs;
        gMetrics["detect.reach_queries"] += st.reachQueries;
        gMetrics["detect.races"] += races.size();
        std::unique_ptr<AugmentedGraph> aug;
        {
            Scope s("detect.augment", path, "detect.augment_s");
            aug = std::make_unique<AugmentedGraph>(*hb, races, res.trace,
                                                   1);
        }
        {
            Scope s("detect.partition", path, "detect.partition_s");
            (void)partitionRaces(races, *aug);
        }
        {
            Scope s("detect.scp", path, "detect.scp_s");
            (void)analyzeScp(res.trace, races, nullptr);
        }
        tracedWall = layers.stop();
    }
    const std::int64_t t0 = nowNs();
    const DetectionResult det = analyzeTrace(std::move(res.trace));
    gMetrics["tracing.overhead_s"] += tracedWall - (nowNs() - t0) * 1e-9;

    ReportModel model;
    {
        Scope s("detect.report_model", path, "detect.report_model_s");
        model = buildReportModel(det);
    }
    std::string text;
    {
        Scope s("detect.render", path, "detect.render_s");
        text = formatTraceProvenance(true, res.salvage) +
               renderReport(model, nullptr, ReportOptions{});
    }
    gMetrics["detect.report_bytes"] += text.size();
    {
        Scope s("io.write", path, "io.write_s");
        writeFile(work + "/probe_check.out", text);
    }
    return {contentHash64(text.data(), text.size()),
            det.races().size()};
}

/** `wmrace check FILE --stream`, layer by layer. */
PathOutcome
streamPath(const std::string &file, const std::string &work)
{
    const std::string path = "stream";
    Scope whole("stream", path);
    SegmentTailReader tail;
    StreamAnalyzer an(StreamOptions{});
    {
        Scope s("stream.open", path);
        if (!tail.open(file))
            die(tail.error());
    }
    std::vector<SegTailSegment> segs;
    for (;;) {
        segs.clear();
        TailPollStatus st;
        {
            Scope s("stream.poll", path, "stream.poll_s");
            st = tail.poll(segs);
        }
        for (const SegTailSegment &seg : segs) {
            Scope s("stream.add_segment", path, "stream.add_segment_s");
            an.addSegment(seg);
        }
        if (st != TailPollStatus::Progress)
            break;
    }
    StreamResult sr;
    {
        Scope s("stream.finish", path, "stream.finish_s");
        if (!tail.finalize(true))
            die(tail.error());
        sr = an.finish(tail.finSeen(), tail.fin(), tail.salvage());
    }
    if (!sr.ok)
        die(sr.error);
    gMetrics["stream.peak_resident_events"] =
        std::max<double>(gMetrics["stream.peak_resident_events"],
                         sr.peakResident);
    gMetrics["stream.windows_retired"] += sr.windowsRetired;
    std::string text;
    {
        Scope s("stream.render", path, "stream.render_s");
        text = formatTraceProvenance(true, sr.salvage) +
               renderReport(sr.report, nullptr, ReportOptions{});
    }
    {
        Scope s("io.write", path);
        writeFile(work + "/probe_stream.out", text);
    }
    return {contentHash64(text.data(), text.size()), sr.races};
}

/** `wmrace check FILE --engine shb`, layer by layer. */
PathOutcome
shbPath(const std::string &file, const std::string &work)
{
    const std::string path = "shb";
    Scope whole("shb", path);
    SegTraceReadResult res;
    {
        Scope s("trace.read", path);
        res = tryReadSegmentedTraceFile(file);
    }
    if (!res.ok())
        die(res.error);
    engines::EngineFamilyResult fam;
    {
        Scope s("engines.shb_run", path, "engines.shb_run_s");
        engines::EngineFamilyOptions opts;
        opts.kinds = {engines::EngineKind::Shb};
        fam = engines::runEngineFamily(res.trace, opts);
    }
    std::string text;
    {
        Scope s("engines.render", path, "engines.render_s");
        text = formatTraceProvenance(true, res.salvage) +
               engines::formatFamilyReport(fam);
    }
    {
        Scope s("io.write", path);
        writeFile(work + "/probe_shb.out", text);
    }
    return {contentHash64(text.data(), text.size()),
            fam.verdicts.at(0).races.size()};
}

/** `wmrace batch DIR --jobs J --json F --summary`, layer by layer. */
void
batchPath(const std::string &dir, unsigned jobs)
{
    const std::string path = "batch";
    Scope whole("batch", path);
    CorpusScan corpus;
    {
        Scope s("pipeline.scan", path, "pipeline.scan_s");
        corpus = scanCorpus(dir);
    }
    if (!corpus.ok())
        die(corpus.error);
    BatchResult batch;
    {
        Scope s("pipeline.batch", path, "pipeline.batch_s");
        BatchOptions opts;
        opts.jobs = jobs;
        batch = runBatch(corpus, opts);
    }
    {
        Scope s("pipeline.aggregate", path, "pipeline.aggregate_s");
        BatchReportOptions ropts;
        ropts.showPerTrace = false;
        (void)formatBatchReport(batch, ropts);
        (void)batchReportJson(batch);
    }
    gMetrics["pipeline.failed"] += batch.numFailed();
}

/** What a served miss costs without the socket: analyzeTrace plus
 *  formatReport of each upload, median in ms. */
void
serveAnalyze(const std::string &dir, std::uint64_t uploads)
{
    const CorpusScan corpus = scanCorpus(dir);
    if (!corpus.ok())
        die(corpus.error);
    std::vector<double> ms;
    for (std::size_t i = 0; i < corpus.files.size() && i < uploads; ++i) {
        SegTraceReadResult res = tryReadSegmentedTraceFile(corpus.files[i]);
        if (!res.ok())
            die(res.error);
        Scope s("serve.analyze", "serve");
        const DetectionResult det = analyzeTrace(std::move(res.trace));
        (void)formatReport(det);
        ms.push_back(s.stop() * 1e3);
    }
    if (ms.empty())
        die("serve: no uploads to analyze");
    std::sort(ms.begin(), ms.end());
    gMetrics["serve.analyze_ms"] = ms.size() % 2 != 0
                                       ? ms[ms.size() / 2]
                                       : (ms[ms.size() / 2 - 1] +
                                          ms[ms.size() / 2]) / 2;
}

int
cmdLayers(const Flags &f)
{
    if (f.positional.empty())
        die("layers: expected at least one trace file");
    const std::string work = f.str("work");
    bool correct = true;
    for (const std::string &file : f.positional) {
        const PathOutcome check = checkPath(file, work);
        const PathOutcome stream = streamPath(file, work);
        const PathOutcome shb = shbPath(file, work);
        correct = correct && check.hash == stream.hash &&
                  check.races == stream.races && check.races == shb.races;
    }
    batchPath(f.str("corpus"), static_cast<unsigned>(f.uint("jobs", 1)));
    serveAnalyze(f.str("corpus"), f.uint("uploads", 8));
    correct = correct && gMetrics["pipeline.failed"] == 0;

    for (const char *path : {"check", "stream", "shb"})
        gMetrics[std::string(path) + ".spans_s"] =
            gRec.leafSeconds(path);

    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, value] : gMetrics) {
        char num[64];
        std::snprintf(num, sizeof(num), "%.9g", value);
        out += (first ? "" : ", ") + jsonString(name) + ": " + num;
        first = false;
    }
    out += "}, \"spans\": [";
    first = true;
    for (const SpanRec &s : gRec.spans()) {
        char nums[96];
        std::snprintf(nums, sizeof(nums),
                      ", \"start_ns\": %lld, \"end_ns\": %lld, "
                      "\"parent\": %d}",
                      static_cast<long long>(s.startNs),
                      static_cast<long long>(s.endNs), s.parent);
        out += (first ? "{\"name\": " : ", {\"name\": ") +
               jsonString(s.name) + ", \"path\": " + jsonString(s.path) +
               nums;
        first = false;
    }
    out += "]}\n";
    writeFile(f.str("out"), out);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 || std::string(argv[1]) != "layers")
        die("usage: wmbench_probe layers ...");
    return cmdLayers(Flags(argc, argv, 2));
}
