/**
 * @file
 * SHB engine: single-pass, sound beyond the first race.
 *
 * Motivated by "What Happens-After the First Race?" (PAPERS.md): a
 * detector that reports only the first race leaves everything after
 * it unvetted, while naively reporting later hb-races risks
 * artifacts.  This engine walks the events once maintaining the hb1
 * order with vector clocks (po ticks the issuing processor, a paired
 * acquire joins the release's clock snapshot) and runs the shared
 * forward race test (hb/access_history.hh) on every event; every
 * hb1-unordered conflicting pair is reported, together with
 * per-variable first-race attribution (the earliest race on each
 * variable, the anchor SHB's soundness argument is stated against),
 * which firstRacePerVariable() derives from the race list.
 *
 * Deliberate adaptation: textbook SHB additionally joins a
 * variable's last-write clock into a reader's clock (reads-from
 * edges).  The Section-4.1 trace records no per-operation
 * reads-from for data operations — computation events carry only
 * READ/WRITE sets — and such joins would ORDER pairs that hb1
 * reports (breaking the reported(hb1) ⊆ races(shb) guarantee this
 * family asserts), so the engine keeps no last-write clocks.  The
 * race SET therefore equals hb1's full race set exactly — which is
 * what makes this engine a true differential twin of the
 * graph-based finder — while the REPORTING policy (everything,
 * first-per-variable annotated) is SHB's, sound past the first
 * partition.  See docs/DETECTORS.md.
 */

#ifndef WMR_ENGINES_SHB_ENGINE_HH
#define WMR_ENGINES_SHB_ENGINE_HH

#include "engines/engine.hh"
#include "trace/execution_trace.hh"

namespace wmr::engines {

/**
 * The shb verdict over a race set (each address list canonical):
 * every race reported in canonical order, with per-variable
 * first-race attribution.  runShb() and `check --stream --engine
 * shb` both build their block with it, so the same races print the
 * same bytes.
 */
EngineVerdict shbVerdict(std::vector<EngineRace> races);

/** Run SHB over the events of @p trace in event-id order. */
EngineVerdict runShb(const ExecutionTrace &trace,
                     const EngineTraceInfo &info);

} // namespace wmr::engines

#endif // WMR_ENGINES_SHB_ENGINE_HH
