#include "trace/execution_trace.hh"

#include <algorithm>
#include <unordered_map>

#include "common/logging.hh"

namespace wmr {

namespace {

/** Sort @p words ascending and drop duplicates. */
void
normalizeWords(std::vector<Addr> &words)
{
    if (!std::is_sorted(words.begin(), words.end()))
        std::sort(words.begin(), words.end());
    words.erase(std::unique(words.begin(), words.end()), words.end());
}

} // namespace

void
ExecutionTrace::setShape(ProcId procs, Addr words)
{
    perProc_.assign(procs, {});
    memWords_ = words;
}

EventId
ExecutionTrace::addEvent(Event ev)
{
    wmr_assert(ev.proc < perProc_.size());
    ev.id = static_cast<EventId>(events_.size());
    ev.indexInProc =
        static_cast<std::uint32_t>(perProc_[ev.proc].size());
    perProc_[ev.proc].push_back(ev.id);
    normalizeWords(ev.readSet);
    normalizeWords(ev.writeSet);
    if (ev.kind == EventKind::Sync) {
        syncOrder_[ev.syncOp.addr].push_back(ev.id);
        ++numSync_;
    }
    events_.push_back(std::move(ev));
    return events_.back().id;
}

ExecutionTrace
buildTrace(const ExecutionResult &res, const TraceBuildOptions &opts)
{
    // Universe size: cover every address any op touched.
    Addr words = 0;
    ProcId procs = 0;
    for (const auto &op : res.ops) {
        words = std::max(words, op.addr + 1);
        procs = std::max<ProcId>(procs, op.proc + 1);
    }
    if (procs == 0)
        procs = 1;

    ExecutionTrace trace;
    trace.setShape(procs, words);
    trace.setFirstStaleRead(res.firstStaleRead);
    trace.setTotalOps(res.ops.size());

    // Per-processor op id lists, in program order (= issue order
    // restricted to the processor).
    std::vector<std::vector<OpId>> perProcOps(procs);
    for (const auto &op : res.ops)
        perProcOps[op.proc].push_back(op.id);

    // Emit events per processor, then register them in global
    // first-op order so event ids are roughly chronological (useful
    // for human-readable reports; nothing depends on it).
    std::vector<Event> staging;

    for (ProcId p = 0; p < procs; ++p) {
        Event comp;                // accumulating computation event
        bool open = false;

        const auto flush = [&]() {
            if (open) {
                staging.push_back(std::move(comp));
                comp = Event();
                open = false;
            }
        };

        for (const OpId oid : perProcOps[p]) {
            const MemOp &op = res.ops[oid];
            if (op.sync) {
                flush();
                Event ev;
                ev.kind = EventKind::Sync;
                ev.proc = p;
                ev.firstOp = ev.lastOp = oid;
                ev.opCount = 1;
                ev.syncOp = op;
                staging.push_back(std::move(ev));
                continue;
            }
            if (open && opts.maxCompRun != 0 &&
                comp.opCount >= opts.maxCompRun) {
                flush();
            }
            if (!open) {
                comp.kind = EventKind::Computation;
                comp.proc = p;
                comp.firstOp = oid;
                open = true;
            }
            comp.lastOp = oid;
            ++comp.opCount;
            if (op.kind == OpKind::Read)
                comp.readSet.push_back(op.addr);
            else
                comp.writeSet.push_back(op.addr);
            if (opts.keepMemberOps)
                comp.memberOps.push_back(oid);
        }
        flush();
    }

    std::sort(staging.begin(), staging.end(),
              [](const Event &a, const Event &b) {
                  return a.firstOp < b.firstOp;
              });

    // Map from sync-op id to its event id, for so1 pairing.
    std::unordered_map<OpId, EventId> syncWriteEvent;
    for (auto &ev : staging) {
        const EventId id = trace.addEvent(std::move(ev));
        const Event &stored = trace.event(id);
        if (stored.kind == EventKind::Sync &&
            stored.syncOp.kind == OpKind::Write) {
            syncWriteEvent[stored.syncOp.id] = id;
        }
    }

    // Resolve release→acquire pairing: an acquire read pairs with the
    // RELEASE write whose value it returned (Defs. 2.1-2.2).
    for (std::size_t i = 0; i < trace.events().size(); ++i) {
        const Event &ev = trace.events()[i];
        if (ev.kind != EventKind::Sync || !ev.syncOp.acquire)
            continue;
        const OpId writer = ev.syncOp.observedWrite;
        if (writer == kNoOp)
            continue;
        const MemOp &wop = res.ops[writer];
        if (!wop.sync || !wop.release)
            continue;
        const auto it = syncWriteEvent.find(writer);
        wmr_assert(it != syncWriteEvent.end());
        trace.mutableEvent(static_cast<EventId>(i)).pairedRelease =
            it->second;
    }

    return trace;
}

} // namespace wmr
