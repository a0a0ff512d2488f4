#include "engines/otf_engine.hh"

#include "obs/obs.hh"
#include "onthefly/epoch_detector.hh"
#include "onthefly/lockset_detector.hh"
#include "onthefly/vc_detector.hh"

namespace wmr::engines {

const char *
OtfEngine::name() const
{
    switch (kind_) {
    case OtfKind::Vc:
        return "vc";
    case OtfKind::Epoch:
        return "epoch";
    case OtfKind::Lockset:
        return "lockset";
    }
    return "otf";
}

void
OtfEngine::begin(const EngineTraceInfo &info)
{
    // The detectors grow their per-word state on demand, over the
    // dense word numbers.
    const ProcId procs = info.procs ? info.procs : 1;
    switch (kind_) {
    case OtfKind::Vc:
        det_ = std::make_unique<VcDetector>(procs, 0);
        break;
    case OtfKind::Epoch:
        det_ = std::make_unique<EpochDetector>(procs, 0);
        break;
    case OtfKind::Lockset:
        det_ = std::make_unique<LocksetDetector>(procs, 0);
        break;
    }
    dense_.clear();
}

Addr
OtfEngine::denseWord(Addr a)
{
    const auto next = static_cast<Addr>(dense_.size());
    return dense_.try_emplace(a, next).first->second;
}

void
OtfEngine::feed(const Event &ev)
{
    static obs::Counter synthOps =
        obs::counter("engine.otf.synth_ops");
    if (!det_)
        return;

    if (ev.kind == EventKind::Sync) {
        MemOp op = ev.syncOp;
        op.addr = denseWord(op.addr);
        det_->onOp(op);
        synthOps.inc();
        return;
    }

    // Re-synthesize one representative op per accessed word.  The
    // op ids stay inside the event's [firstOp, lastOp] range so the
    // detectors' attribution remains roughly chronological.
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
        det_->onOp(op);
        synthOps.inc();
    }
    op.id = ev.lastOp;
    for (const Addr a : ev.writeSet) {
        op.kind = OpKind::Write;
        op.addr = denseWord(a);
        op.pc = a;
        det_->onOp(op);
        synthOps.inc();
    }
}

EngineVerdict
OtfEngine::finish()
{
    EngineVerdict v;
    v.engine = name();
    switch (kind_) {
    case OtfKind::Vc:
        v.semantics = "on-the-fly vector clocks (op-level, "
                      "last-access metadata); approximation";
        break;
    case OtfKind::Epoch:
        v.semantics = "on-the-fly FastTrack epochs (op-level, "
                      "adaptive); approximation";
        break;
    case OtfKind::Lockset:
        v.semantics = "on-the-fly Eraser lockset discipline "
                      "(op-level); approximation";
        break;
    }
    v.opLevel = true;
    if (det_) {
        v.opRacesReported = det_->races().size();
        v.opRacesDistinct = det_->distinctRaces().size();
        v.anyDataRace = v.opRacesReported != 0;
        v.numDataRaces = v.opRacesDistinct;
    }
    return v;
}

} // namespace wmr::engines
