/**
 * @file
 * The pluggable detector-engine interface.
 *
 * A DetectorEngine consumes the Section-4.1 event stream — the
 * events of one ExecutionTrace, fed once, in event-id order — and
 * produces an EngineVerdict: the set of event pairs the engine
 * predicts as races plus the subset its reporting policy surfaces.
 * The family (family.hh) runs several engines over ONE pass of the
 * stream and cross-checks their verdicts:
 *
 *   hb1   the paper's post-mortem method (Def. 2.2 happens-before,
 *         Sec. 4.2 first-partition reporting), wrapped behind the
 *         interface; its verdict is the canonical baseline.
 *   shb   single-pass vector-clock detection over the same hb1
 *         order; sound BEYOND the first race (reports every
 *         hb1-unordered conflicting pair, with per-variable
 *         first-race attribution), unlike hb1's first-partition
 *         policy.
 *   wcp   weak-causal precedence adapted to the event model: a
 *         paired release→acquire edge is honored only when the two
 *         adjacent critical regions conflict on data, so the order
 *         is weaker than hb1 and the engine *predicts* races other
 *         feasible interleavings exhibit.
 *   vc/epoch/lockset
 *         the on-the-fly op-level detectors (src/onthefly) driven
 *         from the event stream through an operation-synthesizing
 *         adapter; approximations outside the containment chain.
 *
 * The construction guarantees reported(hb1) ⊆ races(shb) ⊆
 * races(wcp): shb enumerates the full hb1-unordered set (a superset
 * of the first partitions) and wcp's edge set is a subset of hb1's,
 * so its clocks order no pair hb1 leaves unordered.  shb and wcp
 * (and `check --stream`) share one race test,
 * hb/access_history.hh, and differ only in their clocks.  The
 * differential harness (tests/test_detector_diff.cc) and the
 * brute-force oracles (tests/test_race_oracle.cc) verify the
 * implementations against that containment chain.  See
 * docs/DETECTORS.md.
 */

#ifndef WMR_ENGINES_ENGINE_HH
#define WMR_ENGINES_ENGINE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "trace/event.hh"

namespace wmr::engines {

/** The selectable engines. */
enum class EngineKind : std::uint8_t {
    Hb1,
    Shb,
    Wcp,
    Vc,      ///< on-the-fly vector-clock detector (op-level)
    Epoch,   ///< on-the-fly epoch detector (op-level)
    Lockset, ///< on-the-fly lockset detector (op-level)
};

/** @return the stable lowercase name of @p kind. */
const char *engineName(EngineKind kind);

/**
 * Parse an `--engine` argument: one engine name, or "all" for the
 * containment family {hb1, shb, wcp}.  @return std::nullopt on an
 * unknown name (callers turn that into a typed error, never a
 * crash).
 */
std::optional<std::vector<EngineKind>>
parseEngineSelection(std::string_view name);

/** @return the names parseEngineSelection accepts, for messages. */
const char *engineSelectionHelp();

/** One race prediction: an event pair and its conflict addresses
 *  (same canonical form as detect/race.hh: a < b, addrs sorted and
 *  deduplicated). */
struct EngineRace
{
    EventId a = kNoEvent;
    EventId b = kNoEvent;
    std::vector<Addr> addrs;
    bool isDataRace = true;
};

/** Shape facts of the stream an engine is about to consume. */
struct EngineTraceInfo
{
    ProcId procs = 0;

    /** One past the largest word an event accesses; the trace's
     *  declared universe may be far larger. */
    Addr memWords = 0;

    std::size_t numEvents = 0;
    std::uint32_t numSyncEvents = 0;
    std::uint64_t totalOps = 0;
    OpId firstStaleRead = kNoOp;

    /** By event id: whether some event names it as its
     *  pairedRelease, i.e. it is an so1 join source.  Only these
     *  clocks are ever joined, so only these are snapshotted. */
    std::vector<bool> joinSources;
};

/** Everything one engine concluded about the stream. */
struct EngineVerdict
{
    std::string engine;

    /** One-line semantics note (printed in the verdict block). */
    std::string semantics;

    /** All races the engine predicts, canonical order (a, b). */
    std::vector<EngineRace> races;

    std::size_t numDataRaces = 0;
    bool anyDataRace = false;

    /** Indices into races the engine's policy reports (hb1: the
     *  first-partition subset; shb/wcp: everything). */
    std::vector<std::uint32_t> reported;

    // hb1 extras (partition structure of the canonical method).
    bool hasPartitions = false;
    std::size_t partitions = 0;
    std::size_t firstPartitions = 0;

    // shb extras: per-variable first race, (addr, race index),
    // ascending by addr.
    std::vector<std::pair<Addr, std::uint32_t>> firstRacePerVar;

    // Op-level adapter engines: no event pairs, just counts.
    bool opLevel = false;
    std::uint64_t opRacesReported = 0;
    std::uint64_t opRacesDistinct = 0;
};

/**
 * The verdict of an engine that reports every race it predicts (shb,
 * wcp): @p races (each address list canonical) sorted into
 * canonical (a, b) order, all of them reported.
 */
EngineVerdict reportEveryRace(std::string engine,
                              std::string semantics,
                              std::vector<EngineRace> races);

/**
 * One engine.  Lifecycle: begin() once, feed() each event in
 * event-id order exactly once, finish() once.
 */
class DetectorEngine
{
  public:
    virtual ~DetectorEngine() = default;

    virtual const char *name() const = 0;

    virtual void begin(const EngineTraceInfo &info) { (void)info; }

    /** Consume one event of the stream. */
    virtual void feed(const Event &ev) = 0;

    /** Close the stream and produce the verdict. */
    virtual EngineVerdict finish() = 0;
};

} // namespace wmr::engines

#endif // WMR_ENGINES_ENGINE_HH
