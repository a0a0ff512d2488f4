#include "hb/access_history.hh"

#include <algorithm>
#include <iterator>

namespace wmr {

void
splitAccesses(EventKind kind, const MemOp &syncOp,
              const std::vector<Addr> &readSet,
              const std::vector<Addr> &writeSet, AccessSplit &out)
{
    out.sync = kind == EventKind::Sync;
    out.writes.clear();
    out.reads.clear();
    if (out.sync) {
        (syncOp.kind == OpKind::Write ? out.writes : out.reads)
            .push_back(syncOp.addr);
        return;
    }
    out.writes = writeSet;
    std::set_difference(readSet.begin(), readSet.end(),
                        writeSet.begin(), writeSet.end(),
                        std::back_inserter(out.reads));
}

std::vector<AccessHistory::Partner>
AccessHistory::races(const AccessSplit &acc, ProcId proc,
                     const VectorClock &clock)
{
    hits_.clear();
    const auto scan = [&](const std::vector<Entry> &entries, Addr a) {
        for (const Entry &h : entries) {
            if (h.proc != proc && clock.get(h.proc) < h.epoch)
                hits_.emplace_back(h.key, a);
        }
    };
    for (const Addr a : acc.writes) {
        const auto it = words_.find(a);
        if (it == words_.end())
            continue;
        scan(it->second.dataWrites, a);
        scan(it->second.dataReads, a);
        if (!acc.sync) {
            scan(it->second.syncWrites, a);
            scan(it->second.syncReads, a);
        }
    }
    for (const Addr a : acc.reads) {
        const auto it = words_.find(a);
        if (it == words_.end())
            continue;
        scan(it->second.dataWrites, a);
        if (!acc.sync)
            scan(it->second.syncWrites, a);
    }

    // An earlier event sits in one list per word, so (key, word)
    // hits are distinct; sorting groups them by key.
    std::vector<Partner> out;
    std::sort(hits_.begin(), hits_.end());
    for (const auto &[key, a] : hits_) {
        if (out.empty() || out.back().key != key)
            out.push_back({key, {}});
        out.back().addrs.push_back(a);
    }
    return out;
}

void
AccessHistory::record(const AccessSplit &acc, std::uint64_t key,
                      ProcId proc, std::uint64_t epoch)
{
    const Entry me{key, epoch, proc};
    for (const Addr a : acc.writes) {
        Word &w = words_[a];
        (acc.sync ? w.syncWrites : w.dataWrites).push_back(me);
    }
    for (const Addr a : acc.reads) {
        Word &w = words_[a];
        (acc.sync ? w.syncReads : w.dataReads).push_back(me);
    }
}

void
AccessHistory::retire(std::vector<Addr> addrs,
                      const std::vector<std::uint64_t> &limit)
{
    const auto retired = [&](const Entry &h) {
        return h.proc < limit.size() && h.epoch <= limit[h.proc];
    };
    std::sort(addrs.begin(), addrs.end());
    addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
    for (const Addr a : addrs) {
        const auto it = words_.find(a);
        if (it == words_.end())
            continue;
        Word &w = it->second;
        bool empty = true;
        for (std::vector<Entry> *list :
             {&w.dataWrites, &w.dataReads, &w.syncWrites,
              &w.syncReads}) {
            list->erase(
                std::remove_if(list->begin(), list->end(), retired),
                list->end());
            empty = empty && list->empty();
        }
        if (empty)
            words_.erase(it);
    }
}

} // namespace wmr
