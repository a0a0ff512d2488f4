#include "engines/family.hh"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/string_util.hh"
#include "detect/analysis.hh"
#include "engines/otf_engine.hh"
#include "engines/shb_engine.hh"
#include "engines/wcp_engine.hh"
#include "obs/obs.hh"

namespace wmr::engines {

namespace {

std::uint64_t
pairKey(EventId a, EventId b)
{
    return (static_cast<std::uint64_t>(a) << 32) | b;
}

/** Index a verdict's races by canonical pair. */
std::unordered_map<std::uint64_t, std::uint32_t>
indexRaces(const EngineVerdict &v)
{
    std::unordered_map<std::uint64_t, std::uint32_t> out;
    out.reserve(v.races.size());
    for (std::uint32_t i = 0; i < v.races.size(); ++i)
        out.emplace(pairKey(v.races[i].a, v.races[i].b), i);
    return out;
}

std::string
raceStr(const EngineRace &r)
{
    std::string addrs;
    for (std::size_t i = 0; i < r.addrs.size() && i < 8; ++i) {
        if (i)
            addrs += ",";
        addrs += std::to_string(r.addrs[i]);
    }
    if (r.addrs.size() > 8)
        addrs += ",...";
    return strformat("events %u <-> %u on words [%s] (%s)", r.a,
                     r.b, addrs.c_str(),
                     r.isDataRace ? "data" : "general");
}

/**
 * Check "every race of @p sub appears in @p super with the same
 * address list"; violations are counted and noted (first few).
 */
bool
subsetOf(const EngineVerdict &sub, const EngineVerdict &super,
         const char *relation, ContainmentSummary &sum)
{
    const auto superIdx = indexRaces(super);
    bool ok = true;
    for (const EngineRace &r : sub.races) {
        const auto it = superIdx.find(pairKey(r.a, r.b));
        bool bad = it == superIdx.end();
        if (!bad) {
            const EngineRace &s = super.races[it->second];
            bad = s.addrs != r.addrs ||
                  s.isDataRace != r.isDataRace;
        }
        if (bad) {
            ok = false;
            ++sum.violations;
            if (sum.notes.size() < 8) {
                sum.notes.push_back(strformat(
                    "%s violated by %s", relation,
                    raceStr(r).c_str()));
            }
        }
    }
    return ok;
}

const EngineVerdict *
findVerdict(const std::vector<EngineVerdict> &verdicts,
            const char *name)
{
    for (const auto &v : verdicts) {
        if (v.engine == name)
            return &v;
    }
    return nullptr;
}

/** The hb1 verdict: the races, first partitions and counts of the
 *  paper's method, as analyzeTrace() found them. */
EngineVerdict
hb1Verdict(const DetectionResult &det)
{
    static obs::Counter racesCtr = obs::counter("engine.hb1.races");

    EngineVerdict v;
    v.engine = "hb1";
    v.semantics = "happens-before (Def. 2.2), reports first "
                  "partitions (Sec. 4.2)";
    v.races.reserve(det.races().size());
    for (const DataRace &r : det.races())
        v.races.push_back({r.a, r.b, r.addrs, r.isDataRace});
    racesCtr.add(v.races.size());
    v.numDataRaces = det.numDataRaces();
    v.anyDataRace = det.anyDataRace();
    v.reported = det.reportedRaces();
    v.hasPartitions = true;
    v.partitions = det.partitions().partitions.size();
    v.firstPartitions = det.partitions().firstPartitions.size();
    return v;
}

} // namespace

const EngineVerdict *
EngineFamilyResult::verdict(const char *name) const
{
    return findVerdict(verdicts, name);
}

EngineFamilyResult
runEngineFamily(ExecutionTrace trace, const EngineFamilyOptions &opts)
{
    static obs::Counter runs = obs::counter("engine.family.runs");
    static obs::Counter violations =
        obs::counter("engine.family.containment_violations");
    runs.inc();
    obs::Span span("engine.family");

    EngineFamilyResult out;
    out.info.procs = trace.numProcs();
    out.info.numEvents = trace.events().size();
    out.info.numSyncEvents = trace.numSyncEvents();
    out.info.totalOps = trace.totalOps();
    out.info.firstStaleRead = trace.firstStaleRead();
    out.info.joinSources.assign(out.info.numEvents, false);
    for (const Event &ev : trace.events()) {
        if (ev.pairedRelease < out.info.numEvents)
            out.info.joinSources[ev.pairedRelease] = true;
    }

    // Canonical engine order, deduplicated.
    std::vector<EngineKind> kinds = opts.kinds;
    std::sort(kinds.begin(), kinds.end());
    kinds.erase(std::unique(kinds.begin(), kinds.end()),
                kinds.end());

    bool runHb1 = false;
    for (const EngineKind k : kinds) {
        switch (k) {
        case EngineKind::Hb1:
            runHb1 = true;
            break;
        case EngineKind::Shb:
            out.verdicts.push_back(runShb(trace, out.info));
            break;
        case EngineKind::Wcp:
            out.verdicts.push_back(runWcp(trace, out.info));
            break;
        case EngineKind::Vc:
        case EngineKind::Epoch:
        case EngineKind::Lockset:
            out.verdicts.push_back(runOpLevel(k, trace, out.info));
            break;
        }
    }
    // hb1 goes last, taking the trace; it sorts first.
    if (runHb1) {
        AnalysisOptions aopts;
        aopts.threads = opts.threads;
        out.verdicts.insert(
            out.verdicts.begin(),
            hb1Verdict(analyzeTrace(std::move(trace), aopts)));
    }

    for (const auto &v : out.verdicts)
        out.anyDataRace = out.anyDataRace || v.anyDataRace;

    // Pairwise containment over whichever chain engines ran.
    ContainmentSummary &sum = out.containment;
    const EngineVerdict *hb1 = findVerdict(out.verdicts, "hb1");
    const EngineVerdict *shb = findVerdict(out.verdicts, "shb");
    const EngineVerdict *wcp = findVerdict(out.verdicts, "wcp");

    if (hb1 && shb) {
        sum.checkedReportedInShb = true;
        EngineVerdict reportedOnly;
        for (const std::uint32_t i : hb1->reported)
            reportedOnly.races.push_back(hb1->races[i]);
        sum.reportedInShb = subsetOf(reportedOnly, *shb,
                                     "reported(hb1) in races(shb)",
                                     sum);

        sum.checkedShbMatchesHb1 = true;
        sum.shbMatchesHb1 =
            subsetOf(*shb, *hb1, "races(shb) in races(hb1)", sum) &&
            subsetOf(*hb1, *shb, "races(hb1) in races(shb)", sum);
    }
    if (shb && wcp) {
        sum.checkedShbInWcp = true;
        sum.shbInWcp = subsetOf(*shb, *wcp,
                                "races(shb) in races(wcp)", sum);
    }
    violations.add(sum.violations);
    return out;
}

std::string
familyAgreementJson(const EngineFamilyResult &r)
{
    std::string names, races, data;
    for (const auto &v : r.verdicts) {
        if (!names.empty()) {
            names += ",";
            races += ",";
            data += ",";
        }
        names += "\"" + v.engine + "\"";
        const std::uint64_t n =
            v.opLevel ? v.opRacesDistinct : v.races.size();
        races += strformat("\"%s\":%llu", v.engine.c_str(),
                           static_cast<unsigned long long>(n));
        data += strformat(
            "\"%s\":%llu", v.engine.c_str(),
            static_cast<unsigned long long>(v.numDataRaces));
    }

    std::string cont;
    const auto flag = [&](const char *key, bool checked, bool ok) {
        if (!checked)
            return;
        if (!cont.empty())
            cont += ",";
        cont += strformat("\"%s\":%s", key, ok ? "true" : "false");
    };
    const ContainmentSummary &s = r.containment;
    flag("reported_hb1_in_shb", s.checkedReportedInShb,
         s.reportedInShb);
    flag("shb_eq_hb1", s.checkedShbMatchesHb1, s.shbMatchesHb1);
    flag("shb_in_wcp", s.checkedShbInWcp, s.shbInWcp);

    std::string reported;
    if (const EngineVerdict *hb1 = r.verdict("hb1")) {
        reported = strformat(
            ",\"reported\":{\"hb1\":%llu}",
            static_cast<unsigned long long>(hb1->reported.size()));
    }

    return strformat(
        "{\"schema\":\"wmrace-engine-agreement\",\"events\":%llu,"
        "\"syncEvents\":%llu,\"ops\":%llu,\"engines\":[%s],"
        "\"races\":{%s},\"dataRaces\":{%s}%s,"
        "\"containment\":{%s},\"violations\":%llu}",
        static_cast<unsigned long long>(r.info.numEvents),
        static_cast<unsigned long long>(r.info.numSyncEvents),
        static_cast<unsigned long long>(r.info.totalOps),
        names.c_str(), races.c_str(), data.c_str(),
        reported.c_str(), cont.c_str(),
        static_cast<unsigned long long>(s.violations));
}

std::string
formatFamilyReport(const EngineFamilyResult &r)
{
    std::string out;
    out += "=== wmrace detector family report ===\n";
    out += strformat(
        "events: %zu (%u sync), operations: %llu\n",
        r.info.numEvents, r.info.numSyncEvents,
        static_cast<unsigned long long>(r.info.totalOps));
    std::string names;
    for (const auto &v : r.verdicts) {
        if (!names.empty())
            names += ", ";
        names += v.engine;
    }
    out += "engines: " + names + "\n";

    const EngineVerdict *shb = r.verdict("shb");

    for (const auto &v : r.verdicts) {
        out += strformat("\n--- engine %s ---\n", v.engine.c_str());
        out += "semantics: " + v.semantics + "\n";
        if (v.opLevel) {
            out += strformat(
                "op races: %llu reported (%llu distinct)\n",
                static_cast<unsigned long long>(v.opRacesReported),
                static_cast<unsigned long long>(v.opRacesDistinct));
            out += "note: op-level approximation; outside the "
                   "containment chain\n";
        } else if (v.hasPartitions) {
            out += strformat(
                "races: %zu (%zu data races) in %zu partitions\n",
                v.races.size(), v.numDataRaces, v.partitions);
            out += strformat(
                "reported: %zu race(s) in %zu FIRST partition(s)\n",
                v.reported.size(), v.firstPartitions);
        } else {
            out += strformat("races: %zu (%zu data races)\n",
                             v.races.size(), v.numDataRaces);
            if (v.engine == "shb") {
                out += strformat(
                    "first races: %zu variable(s)\n",
                    v.firstRacePerVar.size());
                std::size_t shown = 0;
                for (const auto &[addr, idx] : v.firstRacePerVar) {
                    if (shown++ >= 4) {
                        out += strformat(
                            "  ... and %zu more\n",
                            v.firstRacePerVar.size() - 4);
                        break;
                    }
                    out += strformat(
                        "  first race on word %llu: %s\n",
                        static_cast<unsigned long long>(addr),
                        raceStr(v.races[idx]).c_str());
                }
            }
            if (v.engine == "wcp" && shb != nullptr) {
                const auto shbIdx = indexRaces(*shb);
                std::vector<const EngineRace *> beyond;
                for (const EngineRace &race : v.races) {
                    if (!shbIdx.count(pairKey(race.a, race.b)))
                        beyond.push_back(&race);
                }
                out += strformat("predicted beyond hb1: %zu\n",
                                 beyond.size());
                for (std::size_t i = 0;
                     i < beyond.size() && i < 4; ++i) {
                    out += "  predicted: " + raceStr(*beyond[i]) +
                           "\n";
                }
                if (beyond.size() > 4) {
                    out += strformat("  ... and %zu more\n",
                                     beyond.size() - 4);
                }
            }
        }
        out += std::string("verdict: ") +
               (v.anyDataRace ? "DATA RACES detected"
                              : "no data races detected") +
               "\n";
    }

    const ContainmentSummary &s = r.containment;
    if (s.checkedReportedInShb || s.checkedShbInWcp) {
        out += "\n--- containment ---\n";
        const EngineVerdict *hb1 = r.verdict("hb1");
        const EngineVerdict *wcp = r.verdict("wcp");
        if (s.checkedReportedInShb && hb1 && shb) {
            out += strformat(
                "reported(hb1) (%zu) in races(shb) (%zu): %s\n",
                hb1->reported.size(), shb->races.size(),
                s.reportedInShb ? "yes" : "NO");
        }
        if (s.checkedShbMatchesHb1 && hb1 && shb) {
            out += strformat(
                "races(shb) (%zu) == races(hb1) (%zu): %s\n",
                shb->races.size(), hb1->races.size(),
                s.shbMatchesHb1 ? "yes" : "NO");
        }
        if (s.checkedShbInWcp && shb && wcp) {
            out += strformat(
                "races(shb) (%zu) in races(wcp) (%zu): %s\n",
                shb->races.size(), wcp->races.size(),
                s.shbInWcp ? "yes" : "NO");
        }
        for (const std::string &note : s.notes)
            out += "  violation: " + note + "\n";
        out += "agreement: " + familyAgreementJson(r) + "\n";
    }
    return out;
}

} // namespace wmr::engines
