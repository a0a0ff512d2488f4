#include "detect/scp.hh"

#include "common/logging.hh"

namespace wmr {

namespace {

/**
 * Is op @p o inside the op-level SCP?
 *
 * An operation belongs to the SCP when it also occurs — same program
 * point, same address — in the SC witness Eseq (operation identity
 * ignores values, Sec. 2.1).  The executor marks the operations that
 * do NOT as `divergent` (address through a tainted register, or
 * control flow already diverged).  Note a stale read itself is in
 * the SCP: Figure 2(b) draws "End of SCP" AFTER read(Q,37).
 */
bool
opInScp(const MemOp &o)
{
    return !o.divergent;
}

/** Collect the member op ids of @p ev (sync events carry one). */
std::vector<OpId>
memberIds(const Event &ev)
{
    if (ev.kind == EventKind::Sync)
        return {ev.syncOp.id};
    return ev.memberOps;
}

/**
 * Exact op-level SCP test for a race: does a conflicting pair of
 * lower-level operations (≥1 data op) lie inside the SCP?
 */
bool
lowerLevelRaceInScp(const Event &ea, const Event &eb,
                    const std::vector<MemOp> &ops)
{
    for (const OpId oa : memberIds(ea)) {
        if (!opInScp(ops[oa]))
            continue;
        for (const OpId ob : memberIds(eb)) {
            if (!opInScp(ops[ob]))
                continue;
            const MemOp &x = ops[oa];
            const MemOp &y = ops[ob];
            if (!conflict(x, y))
                continue;
            if (x.sync && y.sync)
                continue; // not a data pair
            return true;
        }
    }
    return false;
}

} // namespace

ScpMembership
prefixMembership(OpId firstOp, OpId lastOp, OpId scpEndOp)
{
    if (lastOp < scpEndOp)
        return ScpMembership::Full;
    if (firstOp < scpEndOp)
        return ScpMembership::Partial;
    return ScpMembership::Outside;
}

RaceScp
raceScpOf(ScpMembership a, ScpMembership b)
{
    RaceScp out;
    out.maybe =
        a != ScpMembership::Outside && b != ScpMembership::Outside;
    out.in = a == ScpMembership::Full && b == ScpMembership::Full;
    return out;
}

ScpInfo
analyzeScp(const ExecutionTrace &trace,
           const std::vector<DataRace> &races,
           const std::vector<MemOp> *ops)
{
    ScpInfo info;
    info.wholeExecutionSc = trace.firstStaleRead() == kNoOp;
    info.scpEndOp =
        info.wholeExecutionSc ? trace.totalOps() : trace.firstStaleRead();

    const auto &events = trace.events();
    info.eventScp.resize(events.size(), ScpMembership::Outside);

    // Per-event membership.  With the op stream we classify exactly
    // by divergence; otherwise conservatively by the base prefix
    // boundary (ops before the first stale read are never divergent).
    for (const auto &ev : events) {
        const bool haveMembers =
            ops != nullptr &&
            (ev.kind == EventKind::Sync || !ev.memberOps.empty() ||
             ev.opCount == 0);
        if (haveMembers) {
            std::size_t in = 0, total = 0;
            for (const OpId o : memberIds(ev)) {
                ++total;
                in += opInScp((*ops)[o]);
            }
            if (total == 0 || in == total)
                info.eventScp[ev.id] = ScpMembership::Full;
            else if (in == 0)
                info.eventScp[ev.id] = ScpMembership::Outside;
            else
                info.eventScp[ev.id] = ScpMembership::Partial;
        } else {
            info.eventScp[ev.id] =
                prefixMembership(ev.firstOp, ev.lastOp, info.scpEndOp);
        }
    }

    info.raceInScp.resize(races.size(), false);
    info.raceMaybeInScp.resize(races.size(), false);
    for (RaceId r = 0; r < races.size(); ++r) {
        const Event &ea = events[races[r].a];
        const Event &eb = events[races[r].b];
        const RaceScp bound =
            raceScpOf(info.eventScp[ea.id], info.eventScp[eb.id]);
        if (!bound.maybe)
            continue;
        const bool haveMembers =
            ops != nullptr &&
            (ea.kind == EventKind::Sync || !ea.memberOps.empty() ||
             ea.opCount == 0) &&
            (eb.kind == EventKind::Sync || !eb.memberOps.empty() ||
             eb.opCount == 0);
        if (haveMembers) {
            const bool in = lowerLevelRaceInScp(ea, eb, *ops);
            info.raceInScp[r] = in;
            info.raceMaybeInScp[r] = in;
        } else {
            info.raceInScp[r] = bound.in;
            info.raceMaybeInScp[r] = bound.maybe;
        }
    }
    return info;
}

std::vector<RaceId>
checkCondition34(const std::vector<DataRace> &races, const ScpInfo &scp,
                 const AugmentedGraph &aug)
{
    std::vector<RaceId> violations;
    for (RaceId r = 0; r < races.size(); ++r) {
        if (!races[r].isDataRace)
            continue;
        if (scp.raceMaybeInScp[r])
            continue;
        bool covered = false;
        for (RaceId s = 0; s < races.size() && !covered; ++s) {
            if (s == r || !races[s].isDataRace || !scp.raceInScp[s])
                continue;
            if (aug.raceAffectsRace(races[s], races[r]))
                covered = true;
        }
        if (!covered)
            violations.push_back(r);
    }
    return violations;
}

} // namespace wmr
