/**
 * @file
 * WCP engine: weak-causal precedence, single pass, linear time.
 *
 * Motivated by "Dynamic Race Prediction in Linear Time" (PAPERS.md):
 * an order strictly weaker than happens-before whose unordered
 * conflicting pairs are PREDICTED races — pairs some other feasible
 * interleaving can make simultaneous even when this execution's
 * sync pairing ordered them.
 *
 * Adaptation to the Section-4.1 event model (no lock regions, only
 * individual acquire/release sync operations): sync addresses play
 * the role of locks, and the "critical region" of a sync event is
 * the run of computation events since its processor's previous sync
 * event.  The order is po plus a CONDITIONAL so1 edge — a paired
 * release→acquire edge is honored only against the acquirer's
 * region accesses that CONFLICT with the releaser's region
 * footprint (WCP rule (a): release-join over conflicting critical
 * sections).  Operationally: a paired acquire does not join; it
 * parks the release's clock + data footprint as the processor's
 * pending join, and the first subsequent computation event that
 * conflicts with the footprint performs the join (later region
 * events inherit it by po); the pending join expires at the
 * processor's next sync event.
 *
 * Every WCP edge is an hb1 edge, so C_wcp ≤ C_hb1 componentwise and
 * races(wcp) ⊇ races(hb1) by construction — the containment the
 * family asserts and tests/test_race_oracle.cc's brute-force WCP
 * closure oracle verifies.  The race test itself is the one shb
 * runs (hb/access_history.hh).  See docs/DETECTORS.md.
 */

#ifndef WMR_ENGINES_WCP_ENGINE_HH
#define WMR_ENGINES_WCP_ENGINE_HH

#include "engines/engine.hh"
#include "trace/execution_trace.hh"

namespace wmr::engines {

/** Run WCP over the events of @p trace in event-id order. */
EngineVerdict runWcp(const ExecutionTrace &trace,
                     const EngineTraceInfo &info);

} // namespace wmr::engines

#endif // WMR_ENGINES_WCP_ENGINE_HH
