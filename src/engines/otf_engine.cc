#include "engines/otf_engine.hh"

#include <memory>
#include <unordered_map>

#include "common/logging.hh"
#include "obs/obs.hh"
#include "onthefly/epoch_detector.hh"
#include "onthefly/lockset_detector.hh"
#include "onthefly/vc_detector.hh"

namespace wmr::engines {

EngineVerdict
runOpLevel(EngineKind kind, const ExecutionTrace &trace,
           const EngineTraceInfo &info)
{
    static obs::Counter synthOps =
        obs::counter("engine.otf.synth_ops");

    EngineVerdict v;
    v.engine = engineName(kind);
    v.opLevel = true;

    // The detectors grow their per-word state on demand, over the
    // dense word numbers.
    const ProcId procs = info.procs ? info.procs : 1;
    std::unique_ptr<OnTheFlyDetector> det;
    switch (kind) {
    case EngineKind::Vc:
        det = std::make_unique<VcDetector>(procs, 0);
        v.semantics = "on-the-fly vector clocks (op-level, "
                      "last-access metadata); approximation";
        break;
    case EngineKind::Epoch:
        det = std::make_unique<EpochDetector>(procs, 0);
        v.semantics = "on-the-fly FastTrack epochs (op-level, "
                      "adaptive); approximation";
        break;
    case EngineKind::Lockset:
        det = std::make_unique<LocksetDetector>(procs, 0);
        v.semantics = "on-the-fly Eraser lockset discipline "
                      "(op-level); approximation";
        break;
    default:
        wmr_assert(false && "not an op-level engine");
    }

    std::unordered_map<Addr, Addr> dense;
    const auto denseWord = [&dense](Addr a) {
        const auto next = static_cast<Addr>(dense.size());
        return dense.try_emplace(a, next).first->second;
    };

    std::uint64_t ops = 0;
    for (const Event &ev : trace.events()) {
        if (ev.kind == EventKind::Sync) {
            MemOp op = ev.syncOp;
            op.addr = denseWord(op.addr);
            det->onOp(op);
            ++ops;
            continue;
        }

        // Re-synthesize one representative op per accessed word.
        // The op ids stay inside the event's [firstOp, lastOp] range
        // so the detectors' attribution remains roughly
        // chronological.
        MemOp op;
        op.proc = ev.proc;
        op.sync = false;
        op.acquire = false;
        op.release = false;
        op.id = ev.firstOp;
        for (const Addr a : ev.readSet) {
            op.kind = OpKind::Read;
            op.addr = denseWord(a);
            op.pc = a;
            det->onOp(op);
        }
        op.id = ev.lastOp;
        for (const Addr a : ev.writeSet) {
            op.kind = OpKind::Write;
            op.addr = denseWord(a);
            op.pc = a;
            det->onOp(op);
        }
        ops += ev.readSet.size() + ev.writeSet.size();
    }
    synthOps.add(ops);

    v.opRacesReported = det->races().size();
    v.opRacesDistinct = det->distinctRaces().size();
    v.anyDataRace = v.opRacesReported != 0;
    v.numDataRaces = v.opRacesDistinct;
    return v;
}

} // namespace wmr::engines
