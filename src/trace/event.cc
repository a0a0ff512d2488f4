#include "trace/event.hh"

#include <iterator>

namespace wmr {

namespace {

/** Append the words of sorted lists @p a and @p b have in common. */
void
appendCommon(const std::vector<Addr> &a, const std::vector<Addr> &b,
             std::vector<Addr> &out)
{
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(out));
}

} // namespace

bool
eventsConflict(const Event &a, const Event &b)
{
    return !conflictAddrs(a, b).empty();
}

std::vector<Addr>
conflictAddrs(const Event &a, const Event &b)
{
    std::vector<Addr> out;
    if (a.kind == EventKind::Sync && b.kind == EventKind::Sync) {
        if (conflict(a.syncOp, b.syncOp))
            out.push_back(a.syncOp.addr);
        return out;
    }
    if (a.kind == EventKind::Sync)
        return conflictAddrs(b, a);

    if (b.kind == EventKind::Sync) {
        const Addr addr = b.syncOp.addr;
        if (b.syncOp.kind == OpKind::Write
                ? (a.reads(addr) || a.writes(addr))
                : a.writes(addr)) {
            out.push_back(addr);
        }
        return out;
    }

    appendCommon(a.writeSet, b.writeSet, out);
    appendCommon(a.writeSet, b.readSet, out);
    appendCommon(a.readSet, b.writeSet, out);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

} // namespace wmr
