#include "stream/stream_analyzer.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>
#include <map>
#include <thread>

#include "common/logging.hh"
#include "common/string_util.hh"
#include "detect/scp.hh"
#include "hb/scc.hh"
#include "obs/obs.hh"

namespace wmr {

StreamAnalyzer::StreamAnalyzer(StreamOptions opts)
    : opts_(std::move(opts))
{
    if (opts_.windowSegments == 0)
        opts_.windowSegments = 1;
}

StreamAnalyzer::~StreamAnalyzer() = default;

StreamAnalyzer::ProcState &
StreamAnalyzer::procAt(ProcId p)
{
    if (p >= procs_.size())
        procs_.resize(static_cast<std::size_t>(p) + 1);
    return procs_[p];
}

bool
StreamAnalyzer::streamFail(const std::string &message)
{
    if (!failed_) {
        failed_ = true;
        error_ = message;
    }
    return false;
}

bool
StreamAnalyzer::addSegment(const SegTailSegment &seg)
{
    if (failed_ || finished_)
        return !failed_;

    for (const SegFileEvent &fe : seg.events)
        ingest(fe);
    droppedSoFar_ = seg.droppedSoFar;

    ++segments_;
    obs::counter("stream.segments").inc();

    popIdFrontier(/*flushAll=*/false);
    if (segments_ % opts_.windowSegments == 0) {
        gcWindow(/*final=*/false);
        if (opts_.onWindow) {
            StreamProgress p;
            p.segments = segments_;
            p.events = eventsTotal_;
            p.racesSoFar = races_.size();
            p.eventsResident = live_.size();
            p.watermarkLag = watermarkLag_;
            p.windowsRetired = windowsRetired_;
            opts_.onWindow(p);
        }
    }
    updateGauges();
    return true;
}

void
StreamAnalyzer::ingest(const SegFileEvent &fe)
{
    static obs::Counter eventsCtr = obs::counter("stream.events");
    static obs::Counter racesCtr = obs::counter("stream.races");
    const std::uint64_t ord = nextOrdinal_++;
    const bool isSync = fe.kind == EventKind::Sync;
    syncByOrdinal_.push_back(isSync);

    // Shape tracking (the strict FIN-shape check runs at finish()).
    const ProcId evProcs = static_cast<ProcId>(fe.proc + 1);
    Addr evWords = 0;
    if (isSync) {
        evWords = fe.syncOp.addr + 1;
    } else {
        if (!fe.readWords.empty())
            evWords = fe.readWords.back() + 1;
        if (!fe.writeWords.empty())
            evWords = std::max(evWords, fe.writeWords.back() + 1);
    }
    needProcs_ = std::max(needProcs_, evProcs);
    needWords_ = std::max(needWords_, evWords);

    ++eventsTotal_;
    opsSeen_ += fe.opCount;
    if (isSync)
        ++syncEvents_;
    eventsCtr.inc();

    // The id frontier assumed no future key could undercut what it
    // already ranked; an op range landing below an assigned rank
    // breaks stable_sort equivalence (no wmrace writer interleaves
    // op ranges out of file order, but a foreign one could).
    if (fe.firstOp != kNoOp && fe.firstOp < maxPoppedFirstOp_) {
        exact_ = false;
        obs::counter("stream.order_violations").inc();
    }

    const bool newProc =
        fe.proc >= procs_.size() || procs_[fe.proc].epochs == 0;
    ProcState &ps = procAt(fe.proc);

    auto owned = std::make_unique<LiveEvent>();
    LiveEvent *e = owned.get();
    e->ordinal = ord;
    e->proc = fe.proc;
    e->kind = fe.kind;
    e->firstOp = fe.firstOp;
    e->lastOp = fe.lastOp;
    e->opCount = fe.opCount;
    e->syncOp = fe.syncOp;
    e->reads4 = WordPrefix(fe.readWords);
    e->writes4 = WordPrefix(fe.writeWords);

    // so1: join the paired release's clock snapshot.  A retired
    // release's snapshot is dominated by every live processor's
    // clock — ours included — so the join would be a no-op and the
    // snapshot is safe to have dropped.
    if (isSync && fe.pairing != 0) {
        const std::uint64_t target = fe.pairing - 1;
        const bool resolvable = target < ord && syncByOrdinal_[target];
        if (resolvable) {
            const auto it = live_.find(target);
            if (it != live_.end())
                ps.clock.join(it->second->clock);
        } else {
            ++unresolvedPairings_;
            obs::counter("stream.unresolved_pairings").inc();
            if (target >= ord) {
                // A forward/self reference: the whole-trace reader
                // (which sees the full file) could resolve it; a
                // stream cannot.  No wmrace writer emits one.
                exact_ = false;
                obs::counter("stream.order_violations").inc();
            }
            // Recorded regardless of the current strictness: a live
            // recording decides strict vs. salvage only after the
            // child exits (setStrict()), so the evidence must exist
            // either way.
            if (pairingError_.empty()) {
                pairingError_ = strformat(
                    "segmented trace: event pairing %llu unresolvable",
                    static_cast<unsigned long long>(fe.pairing));
            }
        }
    }

    const std::uint32_t epoch = ++ps.epochs;
    e->epoch = epoch;
    ps.clock.set(fe.proc, epoch);
    e->clock = ps.clock;

    // Retire fence: a processor born after retirement started must
    // be hb1-after everything already retired, or retired events may
    // have raced it behind our back.
    if (newProc) {
        for (ProcId p = 0; p < procs_.size(); ++p) {
            if (procs_[p].retiredEpochs > 0 &&
                e->clock.get(p) < procs_[p].retiredEpochs) {
                exact_ = false;
                obs::counter("stream.unsafe_proc_birth").inc();
                break;
            }
        }
    }

    // Race detection against the resident history (the forward test
    // of hb/access_history.hh; history keys are file ordinals).  The
    // event enters the history only afterwards (no self-pairs).
    splitAccesses(fe.kind, fe.syncOp, fe.readWords, fe.writeWords,
                  acc_);
    for (AccessHistory::Partner &u : hist_.races(acc_, fe.proc,
                                                 e->clock)) {
        live_.at(u.key)->racy = true;
        e->racy = true;
        races_.push_back({u.key, ord, std::move(u.addrs)});
        racesCtr.inc();
    }
    hist_.record(acc_, ord, fe.proc, epoch);
    e->histAddrs.reserve(acc_.writes.size() + acc_.reads.size());
    e->histAddrs.assign(acc_.writes.begin(), acc_.writes.end());
    e->histAddrs.insert(e->histAddrs.end(), acc_.reads.begin(),
                        acc_.reads.end());

    idHeap_.push({fe.firstOp, ord});
    if (fe.lastOp != kNoOp)
        ps.maxLastOp = std::max(ps.maxLastOp, fe.lastOp);
    ps.window.push_back(e);
    live_.emplace(ord, std::move(owned));
    peakResident_ =
        std::max<std::uint64_t>(peakResident_, live_.size());
}

void
StreamAnalyzer::popIdFrontier(bool flushAll)
{
    // An id is final once no processor can still produce a smaller
    // (firstOp, ordinal) key: every future event of processor p has
    // firstOp > maxLastOp_p, and a future equal firstOp would carry
    // a larger ordinal (stable order preserved).
    OpId bound = kNoOp;
    if (!flushAll) {
        bool any = false;
        for (const ProcState &ps : procs_) {
            if (ps.epochs == 0)
                continue;
            any = true;
            bound = std::min(bound, ps.maxLastOp + 1);
        }
        if (!any)
            return;
    }
    while (!idHeap_.empty()) {
        const auto [firstOp, ord] = idHeap_.top();
        if (!flushAll && (firstOp == kNoOp || firstOp > bound))
            break;
        idHeap_.pop();
        if (firstOp != kNoOp)
            maxPoppedFirstOp_ = std::max(maxPoppedFirstOp_, firstOp);
        const auto it = live_.find(ord);
        wmr_assert(it != live_.end());
        LiveEvent *e = it->second.get();
        e->finalId = nextId_++;
        e->popped = true;
        if (e->retired && !e->racy)
            live_.erase(it);
    }
}

void
StreamAnalyzer::gcWindow(bool final)
{
    const std::size_t np = procs_.size();
    if (np == 0)
        return;

    // Watermark: W[p] = the least any live processor's clock has
    // advanced past p.  Every event at or under it is hb1-before
    // every future event (a future event extends some processor's
    // current clock).
    std::vector<std::uint64_t> wm(
        np, std::numeric_limits<std::uint64_t>::max());
    bool anyProc = false;
    for (const ProcState &q : procs_) {
        if (q.epochs == 0)
            continue;
        anyProc = true;
        for (ProcId p = 0; p < np; ++p)
            wm[p] = std::min(wm[p], q.clock.get(p));
    }
    if (!anyProc)
        return;

    std::uint64_t lag = 0;
    for (ProcId p = 0; p < np; ++p) {
        if (procs_[p].epochs == 0)
            continue;
        lag = std::max<std::uint64_t>(lag, procs_[p].epochs - wm[p]);
    }
    watermarkLag_ = final ? 0 : lag;
    if (final)
        wm.assign(np, std::numeric_limits<std::uint64_t>::max());

    std::vector<std::uint64_t> toFree;
    std::vector<Addr> touched;
    bool anyRetired = false;
    for (ProcId p = 0; p < np; ++p) {
        ProcState &ps = procs_[p];
        while (!ps.window.empty() &&
               ps.window.front()->epoch <= wm[p]) {
            LiveEvent *e = ps.window.front();
            ps.window.pop_front();
            e->retired = true;
            ps.retiredEpochs = e->epoch;
            anyRetired = true;
            touched.insert(touched.end(), e->histAddrs.begin(),
                           e->histAddrs.end());
            std::vector<Addr>().swap(e->histAddrs);
            if (e->popped && !e->racy)
                toFree.push_back(e->ordinal);
        }
    }

    if (anyRetired) {
        // The window held every unretired event, so the history
        // entries at or under the limits are exactly the retiring
        // events'.  Only the addresses they occupy are compacted: GC
        // cost tracks retired work, not the address universe.
        hist_.retire(std::move(touched), wm);
        for (const std::uint64_t ord : toFree)
            live_.erase(ord);
        ++windowsRetired_;
        obs::counter("stream.windows_retired").inc();
    }
}

void
StreamAnalyzer::updateGauges()
{
    obs::gauge("stream.events_resident").set(live_.size());
    obs::gauge("stream.peak_resident").max(peakResident_);
    obs::gauge("stream.watermark_lag").set(watermarkLag_);
}

StreamResult
StreamAnalyzer::finish(bool finSeen, const SegShape &fin,
                       const SalvageInfo &scanSalvage)
{
    StreamResult res;
    finished_ = true;
    if (failed_) {
        res.error = error_;
        return res;
    }

    // Strict checks in the whole-trace reader's precedence: shape
    // first, pairing second (scan-level errors were the caller's).
    if (opts_.strict && finSeen &&
        (needProcs_ > fin.procs || needWords_ > fin.memWords)) {
        res.error = strformat(
            "segmented trace: event exceeds the FIN shape "
            "(%u procs, %u words)",
            static_cast<unsigned>(fin.procs),
            static_cast<unsigned>(fin.memWords));
        return res;
    }
    if (opts_.strict && !pairingError_.empty()) {
        res.error = pairingError_;
        return res;
    }

    popIdFrontier(/*flushAll=*/true);
    gcWindow(/*final=*/true);
    updateGauges();

    const std::uint64_t totalOps = finSeen ? fin.totalOps : opsSeen_;
    const OpId firstStale = finSeen ? fin.firstStaleRead : kNoOp;

    // After the final GC only pinned racy events remain resident.
    std::vector<LiveEvent *> racy;
    racy.reserve(live_.size());
    for (const auto &[ord, e] : live_) {
        if (e->racy)
            racy.push_back(e.get());
    }
    std::sort(racy.begin(), racy.end(),
              [](const LiveEvent *a, const LiveEvent *b) {
                  return a->ordinal < b->ordinal;
              });
    for (std::uint32_t i = 0; i < racy.size(); ++i)
        racy[i]->node = i;

    // Canonical race list: endpoints by final event id, ordered by
    // (a, b) — findRaces()'s contract (the race test already gave
    // each race its words ascending).  Every race is a data race:
    // the race test never pairs two sync events.
    struct FinalRace
    {
        EventId a = kNoEvent;
        EventId b = kNoEvent;
        const LiveEvent *ea = nullptr;
        const LiveEvent *eb = nullptr;
        std::vector<Addr> addrs;
    };
    std::vector<FinalRace> finals;
    finals.reserve(races_.size());
    for (StreamRace &sr : races_) {
        const LiveEvent *x = live_.at(sr.ordA).get();
        const LiveEvent *y = live_.at(sr.ordB).get();
        FinalRace fr;
        if (x->finalId <= y->finalId) {
            fr.ea = x;
            fr.eb = y;
        } else {
            fr.ea = y;
            fr.eb = x;
        }
        fr.a = fr.ea->finalId;
        fr.b = fr.eb->finalId;
        fr.addrs = std::move(sr.addrs);
        finals.push_back(std::move(fr));
    }
    std::sort(finals.begin(), finals.end(),
              [](const FinalRace &x, const FinalRace &y) {
                  return x.a != y.a ? x.a < y.a : x.b < y.b;
              });

    // Summary graph over the racy events only.  The clock snapshots
    // answer transitive hb1 exactly, so any G' path between racy
    // nodes maps to a summary path (its hb1 stretches compress to
    // single edges; race edges connect racy nodes by definition):
    // SCCs and reachability of G' restricted to racy nodes carry
    // over, which is all partitioning reads.
    //
    // A transitive reduction of the hb edges keeps the graph linear:
    // u's EARLIEST hb1-successor among each processor's racy nodes
    // reaches every later one through that processor's po chain
    // (whose edges are in the graph too), so per-node out-degree is
    // O(procs) instead of O(racy) — all-pairs edges made partitioning
    // quadratic in racy events on long traces.
    AdjList g(racy.size());
    std::vector<std::vector<std::uint32_t>> byProcNodes(
        procs_.size());
    for (std::uint32_t i = 0; i < racy.size(); ++i)
        byProcNodes[racy[i]->proc].push_back(i);
    for (std::uint32_t i = 0; i < racy.size(); ++i) {
        const LiveEvent *u = racy[i];
        for (ProcId p = 0; p < byProcNodes.size(); ++p) {
            const auto &nodes = byProcNodes[p];
            // Processor p's clock component for u->proc is
            // non-decreasing along p's events, so the first node
            // hb1-after u is found by binary search.
            auto it = std::lower_bound(
                nodes.begin(), nodes.end(), u->epoch,
                [&](std::uint32_t j, std::uint64_t epoch) {
                    return racy[j]->clock.get(u->proc) < epoch;
                });
            if (p == u->proc) {
                // The search finds u itself; its chain successor is
                // one past it.
                while (it != nodes.end() && *it <= i)
                    ++it;
            }
            if (it != nodes.end())
                g[i].push_back(*it);
        }
    }
    for (const FinalRace &fr : finals) {
        g[fr.ea->node].push_back(fr.eb->node);
        g[fr.eb->node].push_back(fr.ea->node);
    }
    const SccResult scc = stronglyConnectedComponents(g);

    // Partitions grouped by component, labelled by their smallest
    // racy event id, ordered by label — partitionRaces()'s contract.
    struct Part
    {
        std::uint32_t comp = 0;
        std::uint32_t label = kNoEvent;
        std::vector<RaceId> races;
        bool first = false;
    };
    std::map<std::uint32_t, std::vector<RaceId>> byComp;
    for (RaceId r = 0; r < finals.size(); ++r) {
        const std::uint32_t ca = scc.componentOf[finals[r].ea->node];
        wmr_assert(ca == scc.componentOf[finals[r].eb->node]);
        byComp[ca].push_back(r);
    }
    std::vector<Part> parts;
    parts.reserve(byComp.size());
    for (const auto &[comp, rs] : byComp) {
        Part part;
        part.comp = comp;
        part.races = rs;
        for (const RaceId r : rs)
            part.label = std::min(part.label, finals[r].a);
        parts.push_back(std::move(part));
    }
    std::sort(parts.begin(), parts.end(),
              [](const Part &x, const Part &y) {
                  return x.label < y.label;
              });

    // First-partition rule: a data-race partition (here: every
    // partition) is first iff no OTHER partition reaches its
    // component.  One pass in topological order (components are
    // numbered in REVERSE topological order, so descending ids)
    // propagates the set of partitions reaching each component,
    // capped at two distinct labels — enough to answer "does any
    // label other than mine reach me" without an O(components²)
    // reachability matrix.
    const std::uint32_t nc = scc.numComponents;
    constexpr std::uint32_t kNoLabel =
        std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> ownLabel(nc, kNoLabel);
    for (std::size_t i = 0; i < parts.size(); ++i)
        ownLabel[parts[i].comp] = static_cast<std::uint32_t>(i);
    std::vector<std::array<std::uint32_t, 2>> reachedBy(
        nc, {kNoLabel, kNoLabel});
    const auto mergeLabel = [&](std::array<std::uint32_t, 2> &dst,
                                std::uint32_t label) {
        if (label == kNoLabel || dst[0] == label || dst[1] == label)
            return;
        if (dst[0] == kNoLabel)
            dst[0] = label;
        else if (dst[1] == kNoLabel)
            dst[1] = label;
    };
    for (std::uint32_t c = nc; c-- > 0;) {
        std::array<std::uint32_t, 2> out = reachedBy[c];
        mergeLabel(out, ownLabel[c]);
        for (const std::uint32_t s : scc.condensation[c]) {
            mergeLabel(reachedBy[s], out[0]);
            mergeLabel(reachedBy[s], out[1]);
        }
    }
    std::vector<std::uint32_t> firstParts;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        Part &pi = parts[i];
        const auto self = static_cast<std::uint32_t>(i);
        const auto &rb = reachedBy[pi.comp];
        pi.first = (rb[0] == kNoLabel || rb[0] == self) &&
                   (rb[1] == kNoLabel || rb[1] == self);
        if (pi.first)
            firstParts.push_back(self);
    }

    // Conservative SCP classification (the ops==nullptr path).
    const bool wholeSc = firstStale == kNoOp;
    const std::uint64_t scpEndOp = wholeSc ? totalOps : firstStale;

    ReportModel m;
    std::uint64_t reportedRaces = 0;
    {
        obs::Span span("report.model");
        m.numEvents = static_cast<std::size_t>(eventsTotal_);
        m.numSyncEvents = static_cast<std::uint32_t>(syncEvents_);
        m.totalOps = totalOps;
        m.wholeExecutionSc = wholeSc;
        m.scpEndOp = scpEndOp;

        // One summary per racy event, in node (file) order.
        m.events.reserve(racy.size());
        for (const LiveEvent *e : racy) {
            ReportEventInfo info;
            info.id = e->finalId;
            info.proc = e->proc;
            info.isSync = e->kind == EventKind::Sync;
            info.syncOp = e->syncOp;
            info.opCount = e->opCount;
            info.reads = e->reads4;
            info.writes = e->writes4;
            m.events.push_back(info);
        }
        m.races.reserve(finals.size());
        for (FinalRace &fr : finals) {
            ReportRaceModel rm;
            rm.a = fr.ea->node;
            rm.b = fr.eb->node;
            rm.addrs = std::move(fr.addrs);
            const RaceScp scp = raceScpOf(
                prefixMembership(fr.ea->firstOp, fr.ea->lastOp, scpEndOp),
                prefixMembership(fr.eb->firstOp, fr.eb->lastOp, scpEndOp));
            rm.maybeInScp = scp.maybe;
            rm.inScp = scp.in;
            m.races.push_back(std::move(rm));
        }
        m.numDataRaces = finals.size();
        m.anyDataRace = !finals.empty();

        m.partitions.reserve(parts.size());
        for (Part &part : parts) {
            ReportPartitionModel pm;
            pm.label = part.label;
            pm.first = part.first;
            if (part.first)
                reportedRaces += part.races.size();
            pm.races = std::move(part.races);
            m.partitions.push_back(std::move(pm));
        }
        m.firstPartitions = firstParts;
    }

    res.ok = true;
    res.exact = exact_;
    res.events = eventsTotal_;
    res.syncEvents = syncEvents_;
    res.ops = totalOps;
    res.races = finals.size();
    res.dataRaces = finals.size();
    res.partitions = parts.size();
    res.firstPartitions = firstParts.size();
    res.reportedRaces = reportedRaces;
    res.anyDataRace = m.anyDataRace;
    res.wholeExecutionSc = wholeSc;
    res.segments = segments_;
    res.peakResident = peakResident_;
    res.windowsRetired = windowsRetired_;
    res.salvage = scanSalvage;
    res.salvage.unresolvedPairings = unresolvedPairings_;
    res.report = std::move(m);
    return res;
}

StreamResult
streamAnalyzeFollow(const std::string &path, const StreamOptions &opts,
                    const std::function<bool()> &producerAlive,
                    unsigned pollMs)
{
    const auto alive = [&]() {
        return producerAlive && producerAlive();
    };
    const auto nap = [&]() {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(pollMs ? pollMs : 1));
    };

    obs::Span span("stream.analyze");
    obs::counter("stream.runs").inc();

    SegmentTailReader tail;
    while (!tail.open(path)) {
        // The recorder may not have created the file yet.
        if (!alive()) {
            if (tail.open(path))
                break;
            StreamResult res;
            res.error = tail.error();
            return res;
        }
        nap();
    }

    StreamAnalyzer an(opts);
    std::vector<SegTailSegment> segs;
    for (;;) {
        // Sample liveness BEFORE polling: anything written before
        // the producer died is visible to this or a later poll.
        const bool wasAlive = alive();
        segs.clear();
        const TailPollStatus st = tail.poll(segs);
        for (const SegTailSegment &seg : segs)
            an.addSegment(seg);
        if (st == TailPollStatus::Fin ||
            st == TailPollStatus::Damaged)
            break;
        if (st == TailPollStatus::Waiting) {
            if (!wasAlive && tail.atEof())
                break;
            nap();
        }
    }

    if (!tail.finalize(opts.strict)) {
        StreamResult res;
        res.error = tail.error();
        res.salvage = tail.salvage();
        return res;
    }
    return an.finish(tail.finSeen(), tail.fin(), tail.salvage());
}

StreamResult
streamAnalyzeFile(const std::string &path, const StreamOptions &opts)
{
    return streamAnalyzeFollow(path, opts, nullptr, 0);
}

} // namespace wmr
