#include "rt/tracer.hh"

#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "fault/fault.hh"
#include "obs/obs.hh"
#include "onthefly/epoch_detector.hh"
#include "onthefly/vc_detector.hh"

namespace wmr::rt {

namespace {

// --- Fatal-signal crash flush -----------------------------------
//
// At most one tracer registers for crash flushing (the global one
// `wmrace record` children run).  The handler seals + fsyncs the
// pending spill segment with async-signal-safe calls only, restores
// the default disposition, and re-raises so the process still dies
// with the original signal (the parent's waitpid classification and
// core dumps stay truthful).

constexpr int kCrashSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE};
constexpr std::size_t kNumCrashSignals =
    sizeof(kCrashSignals) / sizeof(kCrashSignals[0]);

std::atomic<Tracer *> gCrashTracer{nullptr};
std::atomic<bool> gCrashFlushDone{false};
struct sigaction gOldActions[kNumCrashSignals];

void
crashSignalHandler(int sig)
{
    if (!gCrashFlushDone.exchange(true)) {
        if (Tracer *t =
                gCrashTracer.load(std::memory_order_acquire)) {
            t->crashFlush();
        }
    }
    for (std::size_t i = 0; i < kNumCrashSignals; ++i) {
        if (kCrashSignals[i] == sig) {
            ::sigaction(sig, &gOldActions[i], nullptr);
            ::raise(sig);
            return;
        }
    }
}

bool
installCrashHandlers(Tracer *t)
{
    Tracer *expected = nullptr;
    if (!gCrashTracer.compare_exchange_strong(expected, t))
        return false; // another tracer already owns the handlers
    gCrashFlushDone.store(false);
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = crashSignalHandler;
    ::sigemptyset(&sa.sa_mask);
    for (std::size_t i = 0; i < kNumCrashSignals; ++i)
        ::sigaction(kCrashSignals[i], &sa, &gOldActions[i]);
    return true;
}

void
uninstallCrashHandlers(Tracer *t)
{
    Tracer *expected = t;
    if (!gCrashTracer.compare_exchange_strong(expected, nullptr))
        return;
    for (std::size_t i = 0; i < kNumCrashSignals; ++i)
        ::sigaction(kCrashSignals[i], &gOldActions[i], nullptr);
}

/** Calling thread's registration with (at most one) tracer.  The
 *  channel is stored untyped because Tracer::Channel is private.
 *  The epoch guards against a new Tracer reusing a dead one's
 *  address and validating a stale channel pointer. */
struct ThreadReg
{
    Tracer *owner = nullptr;
    std::uint64_t epoch = 0;
    void *channel = nullptr;
};

thread_local ThreadReg tlsReg;

std::atomic<std::uint64_t> gTracerEpoch{0};

/** Shared-memory granule: the tracer maps memory at 8-byte (word)
 *  granularity, matching the paper's word-addressed universe. */
inline const void *
granuleOf(std::uintptr_t p)
{
    return reinterpret_cast<const void *>(p & ~std::uintptr_t{7});
}

} // namespace

Tracer::Tracer(TracerConfig cfg)
    : cfg_(std::move(cfg)), syncs_(cfg_.syncCapacity),
      epoch_(gTracerEpoch.fetch_add(1,
                                    std::memory_order_relaxed) +
             1)
{
    if (cfg_.mode == RtMode::Inline) {
        if (cfg_.detector == RtDetector::VectorClock) {
            detector_ = std::make_unique<VcDetector>(
                cfg_.maxThreads, 0);
        } else {
            detector_ = std::make_unique<EpochDetector>(
                cfg_.maxThreads, 0);
        }
    }
    parseFault();
    if (cfg_.mode == RtMode::Record && cfg_.spillSegmentBytes > 0 &&
        !cfg_.tracePath.empty()) {
        auto spill = std::make_unique<SegmentSpillWriter>();
        if (spill->open(cfg_.tracePath)) {
            spill_ = std::move(spill);
            if (cfg_.crashHandlers)
                crashHandlersInstalled_ =
                    installCrashHandlers(this);
        } else {
            // Degrade to the whole-trace write at stop().
            warn("wmr-rt: spill disabled: %s",
                 spill->lastError().c_str());
            spillFailures_ += 1;
        }
    }
    if (cfg_.backgroundDrain)
        drainThread_ = std::thread(&Tracer::drainLoop, this);
}

Tracer::~Tracer()
{
    stop();
    if (tlsReg.owner == this)
        tlsReg = {};
}

// ---------------------------------------------------------------
// Producer side (annotated threads).
// ---------------------------------------------------------------

ProcId
Tracer::threadBegin()
{
    if (tlsReg.owner == this && tlsReg.epoch == epoch_ &&
        tlsReg.channel) {
        return static_cast<Channel *>(tlsReg.channel)->proc;
    }
    std::lock_guard<std::mutex> lk(channelsMu_);
    wmr_assert(channels_.size() < kNoProc);
    const auto proc = static_cast<ProcId>(channels_.size());
    channels_.push_back(
        std::make_unique<Channel>(proc, cfg_.ringCapacity));
    tlsReg = {this, epoch_, channels_.back().get()};
    return proc;
}

void
Tracer::threadEnd()
{
    if (tlsReg.owner != this || tlsReg.epoch != epoch_ ||
        !tlsReg.channel) {
        return;
    }
    static_cast<Channel *>(tlsReg.channel)
        ->finished.store(true, std::memory_order_release);
    tlsReg = {};
}

Tracer::Channel *
Tracer::channelOfCallingThread()
{
    if (tlsReg.owner == this && tlsReg.epoch == epoch_ &&
        tlsReg.channel) {
        return static_cast<Channel *>(tlsReg.channel);
    }
    threadBegin(); // lazy registration
    return static_cast<Channel *>(tlsReg.channel);
}

void
Tracer::push(Channel &ch, const RtRecord &rec)
{
    if (ch.ring.tryPush(rec)) {
        ch.captured.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    const bool isData =
        rec.kind == RecKind::Read || rec.kind == RecKind::Write;
    // Sync records are never dropped: a hole in a per-object
    // sequence would stall the drain's ordering gate forever.
    if (cfg_.overflow == RtOverflowPolicy::Drop && isData) {
        ch.dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    ch.blocked.fetch_add(1, std::memory_order_relaxed);
    while (!ch.ring.tryPush(rec))
        std::this_thread::yield();
    ch.captured.fetch_add(1, std::memory_order_relaxed);
}

void
Tracer::onData(const void *addr, std::size_t size, bool isWrite)
{
    if (size == 0)
        return;
    Channel *ch = channelOfCallingThread();
    RtRecord rec;
    rec.kind = isWrite ? RecKind::Write : RecKind::Read;
    rec.addr = addr;
    rec.size = static_cast<std::uint32_t>(
        std::min<std::size_t>(size, 1u << 20));
    push(*ch, rec);
}

void
Tracer::onAcquire(const void *obj)
{
    Channel *ch = channelOfCallingThread();
    RtRecord rec;
    rec.kind = RecKind::Acquire;
    rec.addr = obj;
    if (SyncSlot *slot = syncs_.findOrInsert(obj)) {
        // Load the pairing token BEFORE taking a sequence number:
        // seeing release token t proves t's publisher already took
        // its (smaller) sequence number, so draining in sequence
        // order processes the release first.
        rec.token = slot->lastToken.load(std::memory_order_acquire);
        rec.seq = slot->seq.fetch_add(1, std::memory_order_acq_rel);
    } else {
        registryFull_.fetch_add(1, std::memory_order_relaxed);
    }
    push(*ch, rec);
}

void
Tracer::onRelease(const void *obj)
{
    Channel *ch = channelOfCallingThread();
    RtRecord rec;
    rec.kind = RecKind::Release;
    rec.addr = obj;
    rec.token =
        releaseTokens_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (SyncSlot *slot = syncs_.findOrInsert(obj)) {
        rec.seq = slot->seq.fetch_add(1, std::memory_order_acq_rel);
        slot->lastToken.store(rec.token,
                              std::memory_order_release);
    } else {
        registryFull_.fetch_add(1, std::memory_order_relaxed);
    }
    push(*ch, rec);
}

// ---------------------------------------------------------------
// Consumer side (drain thread / foreground drain).
// ---------------------------------------------------------------

void
Tracer::drainLoop()
{
    obs::setThreadName("rt.drain");
    obs::Span loopSpan("rt.drain_loop");
    while (!stopping_.load(std::memory_order_acquire)) {
        if (!drainPass(false)) {
            // Quiescent: everything drained so far is sealed to
            // disk, so a SIGKILL during the lull loses nothing.
            maybeSealSpill(/*force=*/true);
            std::this_thread::sleep_for(
                std::chrono::microseconds(50));
        } else {
            maybeSealSpill(/*force=*/false);
        }
    }
    drainToQuiescence();
}

void
Tracer::drainToQuiescence()
{
    obs::Span span("rt.drain_quiescence");
    // Normal passes until nothing moves, then force the ordering
    // gate so a thread killed mid-annotation can't wedge shutdown.
    bool progress = true;
    while (progress) {
        progress = false;
        while (drainPass(false))
            progress = true;
        while (drainPass(true))
            progress = true;
    }
}

bool
Tracer::drainPass(bool force)
{
    drainStats_.drainPasses += 1;
    std::vector<Channel *> chans;
    {
        std::lock_guard<std::mutex> lk(channelsMu_);
        chans.reserve(channels_.size());
        for (const auto &c : channels_)
            chans.push_back(c.get());
    }
    bool progress = false;
    for (Channel *ch : chans) {
        for (std::size_t n = 0; n < cfg_.drainBatch; ++n) {
            const RtRecord *rec = ch->ring.peek();
            if (!rec)
                break;
            const bool isSync = rec->kind == RecKind::Acquire ||
                                rec->kind == RecKind::Release;
            if (isSync && rec->seq != kNoSeq) {
                const auto it = nextSeq_.find(rec->addr);
                const std::uint64_t next =
                    it == nextSeq_.end() ? 0 : it->second;
                if (rec->seq != next) {
                    if (!force) {
                        // An earlier sync op on this object is
                        // still in some other ring; revisit later.
                        drainStats_.syncStalls += 1;
                        break;
                    }
                    drainStats_.forcedSync += 1;
                }
            }
            processRecord(*ch, *rec);
            ch->ring.popFront();
            drainStats_.drainedRecords += 1;
            maybeFaultInDrain();
            progress = true;
        }
    }
    return progress;
}

void
Tracer::processRecord(Channel &ch, const RtRecord &rec)
{
    if (detector_ && ch.proc >= cfg_.maxThreads) {
        // Inline detectors size their clocks for maxThreads procs;
        // later threads are dropped (visibly) rather than UB'd.
        drainStats_.recordsDropped += 1;
        return;
    }

    if (rec.kind == RecKind::Acquire ||
        rec.kind == RecKind::Release) {
        if (rec.seq != kNoSeq) {
            auto &next = nextSeq_[rec.addr];
            if (rec.seq + 1 > next)
                next = rec.seq + 1;
        }
        emitSync(ch, rec);
        return;
    }

    // Data access: one MemOp per touched 8-byte word.
    const bool isWrite = rec.kind == RecKind::Write;
    const auto base = reinterpret_cast<std::uintptr_t>(rec.addr);
    const std::uintptr_t first = base >> 3;
    const std::uintptr_t last = (base + rec.size - 1) >> 3;
    for (std::uintptr_t g = first; g <= last; ++g) {
        const Addr a = mapGranule(granuleOf(g << 3));
        const OpId oid = nextOp_++;
        drainStats_.opsEmitted += 1;
        if (detector_) {
            MemOp op;
            op.id = oid;
            op.proc = ch.proc;
            op.poIndex = ch.poIndex;
            op.pc = ch.poIndex;
            op.kind = isWrite ? OpKind::Write : OpKind::Read;
            op.addr = a;
            op.tick = oid;
            op.step = oid;
            feedInline(op);
        } else {
            if (ch.openValid && cfg_.maxCompRun != 0 &&
                ch.open.opCount >= cfg_.maxCompRun) {
                flushOpenEvent(ch);
            }
            if (!ch.openValid) {
                ch.open = StagedEvent{};
                ch.open.kind = EventKind::Computation;
                ch.open.proc = ch.proc;
                ch.open.firstOp = oid;
                ch.openValid = true;
            }
            ch.open.lastOp = oid;
            ch.open.opCount += 1;
            (isWrite ? ch.open.writeWords : ch.open.readWords)
                .push_back(a);
        }
        ch.poIndex += 1;
    }
}

void
Tracer::emitSync(Channel &ch, const RtRecord &rec)
{
    flushOpenEvent(ch);

    MemOp op;
    op.id = nextOp_++;
    op.proc = ch.proc;
    op.poIndex = ch.poIndex;
    op.pc = ch.poIndex;
    op.sync = true;
    op.addr = mapGranule(granuleOf(
        reinterpret_cast<std::uintptr_t>(rec.addr)));
    op.value = static_cast<Value>(rec.token);
    op.tick = op.id;
    op.step = op.id;
    if (rec.kind == RecKind::Acquire) {
        op.kind = OpKind::Read;
        op.acquire = true;
        if (rec.token != 0) {
            const auto it = releaseOpByToken_.find(rec.token);
            if (it != releaseOpByToken_.end())
                op.observedWrite = it->second;
            else
                drainStats_.unresolvedPairings += 1;
        }
    } else {
        op.kind = OpKind::Write;
        op.release = true;
        releaseOpByToken_[rec.token] = op.id;
    }
    ch.poIndex += 1;
    drainStats_.opsEmitted += 1;
    drainStats_.syncEvents += 1;

    if (detector_) {
        feedInline(op);
        return;
    }

    StagedEvent ev;
    ev.kind = EventKind::Sync;
    ev.proc = ch.proc;
    ev.firstOp = ev.lastOp = op.id;
    ev.opCount = 1;
    ev.syncOp = op;
    ev.pairedToken =
        rec.kind == RecKind::Acquire ? rec.token : 0;
    ch.staged.push_back(std::move(ev));
    spillStaged(ch.staged.back());
    drainStats_.eventsEmitted += 1;
}

void
Tracer::flushOpenEvent(Channel &ch)
{
    if (!ch.openValid)
        return;
    ch.staged.push_back(std::move(ch.open));
    ch.open = StagedEvent{};
    ch.openValid = false;
    spillStaged(ch.staged.back());
    drainStats_.eventsEmitted += 1;
}

// ---------------------------------------------------------------
// Spill path (drain thread only).
// ---------------------------------------------------------------

void
Tracer::spillStaged(const StagedEvent &sev)
{
    if (!spill_)
        return;
    SegEvent ev;
    ev.kind = sev.kind;
    ev.proc = sev.proc;
    ev.firstOp = sev.firstOp;
    ev.lastOp = sev.lastOp;
    ev.opCount = sev.opCount;
    if (sev.kind == EventKind::Sync) {
        ev.syncOp = sev.syncOp;
        // The release token rides in the sync op's value field; the
        // drain's per-object ordering gate guarantees a release is
        // spilled before any acquire that observed it, so the writer
        // can always resolve the pairing to an earlier ordinal.
        if (sev.syncOp.release)
            ev.releaseToken =
                static_cast<std::uint64_t>(sev.syncOp.value);
        ev.pairedToken = sev.pairedToken;
    } else {
        ev.readWords = sev.readWords;
        ev.writeWords = sev.writeWords;
    }
    spill_->addEvent(ev);
}

std::uint64_t
Tracer::currentDropped() const
{
    std::uint64_t dropped = drainStats_.recordsDropped;
    std::lock_guard<std::mutex> lk(channelsMu_);
    for (const auto &c : channels_)
        dropped += c->dropped.load(std::memory_order_relaxed);
    return dropped;
}

void
Tracer::maybeSealSpill(bool force)
{
    if (!spill_ || spill_->pendingEvents() == 0)
        return;
    if (!force && spill_->pendingBytes() < cfg_.spillSegmentBytes)
        return;
    if (fault_ == Fault::CrashMidSegment &&
        spill_->segmentsWritten() >= faultParam_) {
        fault::noteFired("rt.crash-mid-segment");
        spill_->writeTornFrame();
        ::_exit(86);
    }
    spill_->setCounters(drainStats_.opsEmitted, currentDropped());
    obs::Span span("rt.spill_seal");
    obs::counter("rt.spill_seals").inc();
    if (!spill_->sealSegment()) {
        warn("wmr-rt: spill write failed: %s",
             spill_->lastError().c_str());
        spillFailures_ += 1;
        spill_.reset(); // fall back to the whole-trace write at stop()
    }
}

bool
Tracer::crashFlush()
{
    // Async-signal-safe: crashSeal() frames the pre-encoded pending
    // payload with stack buffers and raw write()/fsync() only.  If
    // the drain thread was mid-append the final frame may be torn;
    // the CRC makes salvage drop exactly that segment.
    SegmentSpillWriter *w = spill_.get();
    return w && w->crashSeal();
}

void
Tracer::parseFault()
{
    if (cfg_.faultSpec.empty())
        return;
    std::string name = cfg_.faultSpec;
    std::uint64_t param = 0;
    bool haveParam = false;
    const auto at = name.find('@');
    if (at != std::string::npos) {
        param = std::strtoull(name.c_str() + at + 1, nullptr, 10);
        haveParam = true;
        name.resize(at);
    }
    if (name == "crash-in-drain") {
        fault_ = Fault::CrashInDrain;
        faultParam_ = haveParam ? param : 50;
    } else if (name == "crash-mid-segment") {
        fault_ = Fault::CrashMidSegment;
        faultParam_ = haveParam ? param : 1;
    } else if (name == "slow-child") {
        fault_ = Fault::SlowChild;
        faultParam_ = haveParam ? param : 30;
    } else {
        warn("wmr-rt: ignoring unknown fault spec '%s'",
             cfg_.faultSpec.c_str());
    }
}

void
Tracer::maybeFaultInDrain()
{
    if (fault_ == Fault::CrashInDrain &&
        drainStats_.drainedRecords >= faultParam_) {
        fault_ = Fault::None; // don't re-fire from the handler path
        fault::noteFired("rt.crash-in-drain");
        ::raise(SIGSEGV);
    }
}

void
Tracer::feedInline(const MemOp &op)
{
    detector_->onOp(op);
}

Addr
Tracer::mapGranule(const void *granule)
{
    const auto next = static_cast<Addr>(nativeOfDense_.size());
    const auto [it, inserted] = addrMap_.try_emplace(granule, next);
    if (inserted)
        nativeOfDense_.push_back(granule);
    return it->second;
}

// ---------------------------------------------------------------
// Lifecycle.
// ---------------------------------------------------------------

void
Tracer::drainAll()
{
    wmr_assert(!cfg_.backgroundDrain);
    while (drainPass(false)) {
    }
}

void
Tracer::stop()
{
    if (stopped_.exchange(true))
        return;
    if (fault_ == Fault::SlowChild) {
        // Wedged-shutdown fault: everything already drained has been
        // sealed to disk by the idle spill, so a supervisor killing
        // us now still finds a salvageable trace.
        fault::noteFired("rt.slow-child");
        std::this_thread::sleep_for(
            std::chrono::seconds(faultParam_));
    }
    stopping_.store(true, std::memory_order_release);
    {
        obs::Span span("rt.stop");
        if (drainThread_.joinable())
            drainThread_.join(); // runs drainToQuiescence() on exit
        else
            drainToQuiescence();
        finalize();
    }
    if (crashHandlersInstalled_) {
        uninstallCrashHandlers(this);
        crashHandlersInstalled_ = false;
    }

    // Mirror the final RtStats into the shared registry so a single
    // WMR_OBS export shows recorder and analysis side by side.
    const RtStats s = stats();
    obs::counter("rt.records_captured").add(s.recordsCaptured);
    obs::counter("rt.records_drained").add(s.drainedRecords);
    obs::counter("rt.records_dropped").add(s.recordsDropped);
    obs::counter("rt.ops_emitted").add(s.opsEmitted);
    obs::counter("rt.drain_passes").add(s.drainPasses);
    obs::counter("rt.sync_stalls").add(s.syncStalls);
    obs::counter("rt.blocked_pushes").add(s.blockedPushes);
    obs::gauge("rt.threads_traced").set(s.threadsTraced);
    obs::gauge("rt.words_mapped").set(s.wordsMapped);
}

void
Tracer::finalize()
{
    if (finalized_)
        return;
    finalized_ = true;
    obs::Span span("rt.finalize");

    for (const auto &c : channels_)
        flushOpenEvent(*c);

    if (cfg_.mode != RtMode::Record)
        return;

    const auto words = static_cast<Addr>(nativeOfDense_.size());
    const auto procs = static_cast<ProcId>(
        std::max<std::size_t>(channels_.size(), 1));
    built_ = ExecutionTrace();
    built_.setShape(procs, words);
    built_.setFirstStaleRead(kNoOp);
    built_.setTotalOps(drainStats_.opsEmitted);

    // Merge the per-thread staged streams into global first-op
    // order.  Op ids are assigned in drain order, which respects
    // both program order per thread and the per-object sync order
    // (the drain's ordering gate), so this insertion order yields a
    // valid per-processor sequence AND per-location sync order.
    std::vector<StagedEvent *> staging;
    for (const auto &c : channels_) {
        for (auto &ev : c->staged)
            staging.push_back(&ev);
    }
    std::sort(staging.begin(), staging.end(),
              [](const StagedEvent *a, const StagedEvent *b) {
                  return a->firstOp < b->firstOp;
              });

    std::unordered_map<std::uint64_t, EventId> releaseEventByToken;
    std::vector<std::pair<EventId, std::uint64_t>> acquires;
    for (StagedEvent *sev : staging) {
        Event ev;
        ev.kind = sev->kind;
        ev.proc = sev->proc;
        ev.firstOp = sev->firstOp;
        ev.lastOp = sev->lastOp;
        ev.opCount = sev->opCount;
        if (sev->kind == EventKind::Sync) {
            ev.syncOp = sev->syncOp;
        } else {
            ev.readSet = std::move(sev->readWords);
            ev.writeSet = std::move(sev->writeWords);
        }
        const EventId id = built_.addEvent(std::move(ev));
        if (sev->kind == EventKind::Sync) {
            if (sev->syncOp.release) {
                releaseEventByToken[static_cast<std::uint64_t>(
                    sev->syncOp.value)] = id;
            } else if (sev->pairedToken != 0) {
                acquires.emplace_back(id, sev->pairedToken);
            }
        }
    }
    for (const auto &[id, token] : acquires) {
        const auto it = releaseEventByToken.find(token);
        if (it != releaseEventByToken.end())
            built_.mutableEvent(id).pairedRelease = it->second;
    }

    if (spill_) {
        // The spill file already holds every event (flushOpenEvent
        // above spilled the stragglers); seal the remainder and
        // stamp the FIN segment that marks a clean shutdown.
        maybeSealSpill(/*force=*/true);
    }
    if (spill_) {
        SegShape shape;
        shape.procs = procs;
        shape.memWords = words;
        shape.firstStaleRead = kNoOp;
        shape.totalOps = drainStats_.opsEmitted;
        shape.droppedRecords = currentDropped();
        spill_->setCounters(shape.totalOps, shape.droppedRecords);
        if (!spill_->finish(shape)) {
            warn("wmr-rt: spill finish failed: %s",
                 spill_->lastError().c_str());
            spillFailures_ += 1;
            spill_.reset();
        }
    }
    if (!spill_ && !cfg_.tracePath.empty() &&
        writeSegmentedTraceFile(built_, cfg_.tracePath) == 0)
        warn("wmr-rt: cannot write trace file '%s'",
             cfg_.tracePath.c_str());
}

ExecutionTrace
Tracer::takeTrace()
{
    wmr_assert(stopped_.load() && cfg_.mode == RtMode::Record);
    return std::move(built_);
}

// ---------------------------------------------------------------
// Introspection.
// ---------------------------------------------------------------

RtStats
Tracer::stats() const
{
    RtStats s = drainStats_;
    std::lock_guard<std::mutex> lk(channelsMu_);
    s.threadsTraced = channels_.size();
    for (const auto &c : channels_) {
        s.recordsCaptured +=
            c->captured.load(std::memory_order_relaxed);
        s.recordsDropped +=
            c->dropped.load(std::memory_order_relaxed);
        s.blockedPushes +=
            c->blocked.load(std::memory_order_relaxed);
    }
    s.registryFull +=
        registryFull_.load(std::memory_order_relaxed);
    s.wordsMapped = nativeOfDense_.size();
    if (detector_)
        s.inlineRaces = detector_->stats().racesReported;
    if (spill_) {
        s.segmentsSpilled = spill_->segmentsWritten();
        s.spillBytes = spill_->bytesWritten();
    }
    s.spillFailures = spillFailures_;
    return s;
}

std::vector<Tracer::RaceReport>
Tracer::inlineRaces() const
{
    std::vector<RaceReport> out;
    if (!detector_)
        return out;
    for (const auto &r : detector_->races())
        out.push_back({r, nativeAddrOf(r.addr)});
    return out;
}

const void *
Tracer::nativeAddrOf(Addr a) const
{
    if (a >= nativeOfDense_.size())
        return nullptr;
    return nativeOfDense_[a];
}

Addr
Tracer::denseAddrOf(const void *addr) const
{
    const auto it = addrMap_.find(granuleOf(
        reinterpret_cast<std::uintptr_t>(addr)));
    return it == addrMap_.end() ? kNoAddr : it->second;
}

} // namespace wmr::rt
