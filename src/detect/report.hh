/**
 * @file
 * Human-readable race reports.
 *
 * Renders a DetectionResult the way Section 4.2 prescribes reporting:
 * first partitions (and their races) prominently, non-first
 * partitions listed as affected follow-ups, SCP classification and
 * the Theorem 4.1 conclusion ("no data races ⇒ execution was
 * sequentially consistent") spelled out.  When the originating
 * Program is supplied, addresses print with their symbolic names and
 * races carry static instruction attribution.
 *
 * The rendering itself lives in report_model.hh: this header adapts
 * the whole-trace DetectionResult onto the engine-neutral ReportModel
 * so the streaming engine shares the exact same formatter.
 */

#ifndef WMR_DETECT_REPORT_HH
#define WMR_DETECT_REPORT_HH

#include <string>

#include "detect/analysis.hh"
#include "detect/report_model.hh"
#include "prog/program.hh"

namespace wmr {

/** Build the engine-neutral report model from a detection result. */
ReportModel buildReportModel(const DetectionResult &result);

/** Render the full report. */
std::string formatReport(const DetectionResult &result,
                         const Program *prog = nullptr,
                         const ReportOptions &opts = {});

} // namespace wmr

#endif // WMR_DETECT_REPORT_HH
