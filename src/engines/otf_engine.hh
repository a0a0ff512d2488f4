/**
 * @file
 * Adapter driving the on-the-fly op-level detectors (src/onthefly)
 * from the Section-4.1 event stream.
 *
 * The on-the-fly detectors consume a per-operation stream (OpSink);
 * the event trace only keeps per-event READ/WRITE sets.  The
 * adapter re-synthesizes a representative operation sequence — the
 * sync operation itself for sync events, one read/write per set
 * word for computation events — so the detectors plug into the same
 * DetectorEngine family.  Their verdicts are op-level
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

#include <memory>
#include <unordered_map>

#include "engines/engine.hh"
#include "onthefly/onthefly.hh"

namespace wmr::engines {

/** Which op-level detector the adapter drives. */
enum class OtfKind : std::uint8_t { Vc, Epoch, Lockset };

/** Event-stream adapter around one OnTheFlyDetector. */
class OtfEngine : public DetectorEngine
{
  public:
    explicit OtfEngine(OtfKind kind)
        : kind_(kind)
    {
    }

    const char *name() const override;

    void begin(const EngineTraceInfo &info) override;
    void feed(const Event &ev) override;
    EngineVerdict finish() override;

  private:
    /** @return the detector's dense number of word @p a. */
    Addr denseWord(Addr a);

    OtfKind kind_;
    std::unique_ptr<OnTheFlyDetector> det_;
    std::unordered_map<Addr, Addr> dense_;
};

} // namespace wmr::engines

#endif // WMR_ENGINES_OTF_ENGINE_HH
