/**
 * @file
 * The detector family: run the selected engines over one trace,
 * cross-check their verdicts, and render the per-engine report with
 * a machine-readable agreement summary.
 *
 * The containment chain reported(hb1) ⊆ races(shb) ⊆ races(wcp)
 * holds by construction (see engine.hh); the family VERIFIES it on
 * every run and reports violations — a violation means an engine
 * implementation bug, and the differential harness fails on any.
 */

#ifndef WMR_ENGINES_FAMILY_HH
#define WMR_ENGINES_FAMILY_HH

#include <string>
#include <vector>

#include "engines/engine.hh"
#include "trace/execution_trace.hh"

namespace wmr::engines {

/** Options of one family run. */
struct EngineFamilyOptions
{
    /** Engines to run, in canonical order. */
    std::vector<EngineKind> kinds;

    /** Analysis worker budget of hb1's analyzeTrace() (0 = hardware
     *  concurrency).  Verdicts are identical at every value. */
    unsigned threads = 1;
};

/** Outcome of the pairwise containment checks. */
struct ContainmentSummary
{
    /** Whether the full hb1+shb+wcp chain ran (else fields below
     *  only cover the pairs that did). */
    bool checkedReportedInShb = false;
    bool checkedShbMatchesHb1 = false;
    bool checkedShbInWcp = false;

    bool reportedInShb = true; ///< reported(hb1) ⊆ races(shb)
    bool shbMatchesHb1 = true; ///< races(shb) == races(hb1) exactly
    bool shbInWcp = true;      ///< races(shb) ⊆ races(wcp)

    /** Total containment/agreement violations (0 on a correct
     *  build; any nonzero fails the differential harness). */
    std::size_t violations = 0;

    /** First few violations, for the report (deterministic). */
    std::vector<std::string> notes;
};

/** Everything one family run produced. */
struct EngineFamilyResult
{
    EngineTraceInfo info;
    std::vector<EngineVerdict> verdicts;
    ContainmentSummary containment;

    /** Whether any selected engine reported a data race (drives the
     *  CLI exit code, like DetectionResult::anyDataRace). */
    bool anyDataRace = false;

    const EngineVerdict *verdict(const char *name) const;
};

/**
 * Run the selected engines over @p trace.  The other engines read
 * the trace first; hb1 then takes it into analyzeTrace(), so a
 * caller done with its trace should move it in.  Verdicts come back
 * in canonical engine order.
 */
EngineFamilyResult runEngineFamily(ExecutionTrace trace,
                                   const EngineFamilyOptions &opts);

/**
 * Render the family report: the shared header, one verdict block
 * per engine, and (when at least two chain engines ran) the
 * containment block with the one-line JSON agreement summary
 * (schema "wmrace-engine-agreement").  Byte-stable: the golden
 * corpus diffs this output.
 */
std::string formatFamilyReport(const EngineFamilyResult &r);

/** The JSON agreement line alone (also embedded in the report). */
std::string familyAgreementJson(const EngineFamilyResult &r);

} // namespace wmr::engines

#endif // WMR_ENGINES_FAMILY_HH
