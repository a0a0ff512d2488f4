/**
 * @file
 * Adapter driving the on-the-fly op-level detectors (src/onthefly)
 * from the events of a Section-4.1 trace.
 *
 * The on-the-fly detectors consume a per-operation stream (OpSink);
 * the event trace only keeps per-event READ/WRITE sets.  The
 * adapter re-synthesizes a representative operation sequence — the
 * sync operation itself for sync events, one read/write per set
 * word for computation events — so the detectors run in the same
 * family as the other engines.  Their verdicts are op-level
 * approximations (bounded history, last-access metadata) and sit
 * OUTSIDE the hb1 ⊆ shb ⊆ wcp containment chain; the family report
 * labels them as such.
 *
 * The adapter numbers words densely in the order they first occur,
 * so the detectors' per-word state follows the words the trace
 * touches, not its highest word or declared universe.  The renaming
 * is injective and the verdicts are race counts, so they do not
 * change.
 */

#ifndef WMR_ENGINES_OTF_ENGINE_HH
#define WMR_ENGINES_OTF_ENGINE_HH

#include "engines/engine.hh"
#include "trace/execution_trace.hh"

namespace wmr::engines {

/**
 * Run the op-level detector @p kind (Vc, Epoch or Lockset) over the
 * operations synthesized from the events of @p trace.
 */
EngineVerdict runOpLevel(EngineKind kind, const ExecutionTrace &trace,
                         const EngineTraceInfo &info);

} // namespace wmr::engines

#endif // WMR_ENGINES_OTF_ENGINE_HH
