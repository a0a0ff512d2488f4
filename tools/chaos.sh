#!/usr/bin/env bash
# Chaos soak harness: replay the golden corpus through the six
# analysis paths (serve/submit, check --stream, batch, record, the
# detector family via check --engine all, and the weak-model
# simulator via run --model/--robustness) under
# seeded random fault schedules (docs/FAULTS.md) and check the one
# invariant on every run:
#
#   the command either produces the byte-identical golden report, or
#   fails with a clean typed error (exit status, not signal) — never
#   a crash, a hang (per-run timeout), or a wrong report.
#
# Damage-class schedules (bit flips, torn tails) may legitimately
# yield a salvage-marked report instead; byte-comparison is then
# skipped but the exit must still be clean.  Every failing run prints
# the WMR_FAULT schedule and WMR_FAULT_SEED that reproduce it.
#
# Usage:
#   tools/chaos.sh WMRACE_BIN [GOLDEN_DIR] [--smoke] [--runs N] [--seed S]
#
#   --smoke   fixed seed, 16 runs — the chaos_smoke CTest entry
#   --runs N  number of soak runs (default 200)
#   --seed S  master seed (default: current epoch, always printed)
set -u

die() { echo "chaos: $*" >&2; exit 2; }

[ $# -ge 1 ] || die "usage: chaos.sh WMRACE_BIN [GOLDEN_DIR] [--smoke] [--runs N] [--seed S]"
WMRACE=$1; shift
[ -x "$WMRACE" ] || die "not executable: $WMRACE"

GOLDEN="$(dirname "$0")/../tests/data/golden"
RUNS=200
SEED=$(date +%s)
SMOKE=0
while [ $# -gt 0 ]; do
    case "$1" in
        --smoke) SMOKE=1; RUNS=16; SEED=1; shift ;;
        --runs) RUNS=$2; shift 2 ;;
        --seed) SEED=$2; shift 2 ;;
        *) GOLDEN=$1; shift ;;
    esac
done
[ -d "$GOLDEN" ] || die "no golden dir: $GOLDEN"
GOLDEN=$(cd "$GOLDEN" && pwd)

DEMO="$(dirname "$WMRACE")/../examples/rt_demo_racy"
[ -x "$DEMO" ] || DEMO=""

WORK=$(mktemp -d /tmp/wmrchaos.XXXXXX) || die "mktemp failed"
trap 'rm -rf "$WORK"' EXIT

# --- deterministic PRNG (64-bit LCG, same constants as PCG's state
# --- step) so --seed replays the exact mode + schedule sequence.
RNG=0
srand() { RNG=$1; }
rand() { # rand BOUND -> 0..BOUND-1
    RNG=$(( (RNG * 6364136223846793005 + 1442695040888963407) & 0x7FFFFFFFFFFFFFFF ))
    echo $(( (RNG >> 17) % $1 ))
}

# Fault pools per path.  Field 2 is the outcome class:
#   benign    degradation must be invisible: byte-identical report
#   transport the client may see a typed error (exit 2) instead
#   damage    a salvage-marked report or typed refusal is also legal
SERVE_POOL=(
    "serve.io.eintr|benign"
    "serve.read.short|benign"
    "serve.spool.enospc|benign"
    "serve.cache.torn|benign"
    "pipeline.checkpoint.fail|benign"
    "serve.accept.fail|transport"
    "serve.conn.reset|transport"
    "serve.resp.truncate|transport"
    "serve.client.truncate|transport"
)
# check --stream goes through the tail reader, so only the tail
# sites are reachable here; trace.read.* lands on the loader's
# whole-file read, which check, batch and record share.
STREAM_POOL=(
    "stream.tail.stall|benign"
    "stream.tail.damage|damage"
)
BATCH_POOL=(
    "pipeline.checkpoint.fail|benign"
    "trace.read.short|damage"
    "trace.read.bitflip|damage"
)
# The detector family (`check --engine all`) loads through the same
# loader batch uses; its blessed reports are the
# *.engines.expected.txt twins.
ENGINE_POOL=(
    "trace.read.short|damage"
    "trace.read.bitflip|damage"
)
# The model replay re-simulates a blessed (program, model, seed)
# fixture with --robustness and re-checks the written trace: the
# write-side faults must be invisible (simulation is a pure function
# of its seed), the read-side damage may surface as a typed error or
# salvage — never as a silently different report.
MODEL_POOL=(
    "trace.seg.write.eintr|benign"
    "trace.seg.write.short|benign"
    "trace.read.short|damage"
    "trace.read.bitflip|damage"
)
RECORD_POOL=(
    "trace.seg.write.eintr|benign"
    "trace.seg.write.short|benign"
    "trace.seg.write.enospc|crash"
    "rt.crash-in-drain|crash"
    "rt.crash-mid-segment|crash"
    "rt.slow-child|crash"
)

# randomTrigger SITE -> echoes "@..." (or "" = fire on every hit).
# rt.* sites keep the legacy one-param spelling; a bare trigger-less
# stream.tail.stall would starve the tail reader forever, so it always
# gets a bounded trigger.
randomTrigger() {
    local site=$1
    case "$site" in
        rt.crash-in-drain)    echo "@$(( 10 + $(rand 80) ))"; return ;;
        rt.crash-mid-segment) echo "@$(( 1 + $(rand 2) ))"; return ;;
        rt.slow-child)        echo "@1"; return ;;
        trace.read.bitflip)
            # trigger on an early hit, flip a byte past the magic
            echo "@n$(( 1 + $(rand 2) )):$(( 9 + $(rand 400) ))"; return ;;
        stream.tail.stall)    echo "@n$(( 1 + $(rand 3) ))"; return ;;
    esac
    case "$(rand 4)" in
        0) echo "@once" ;;
        1) echo "@n$(( 1 + $(rand 4) ))" ;;
        2) echo "@p0.$(( 2 + $(rand 5) ))" ;;
        3) echo "" ;;
    esac
}

# buildSchedule POOLNAME[@] -> sets SCHED and CLASS ("benign" unless
# any picked entry escalates it).
buildSchedule() {
    local -n pool=$1
    local count=$(( 1 + $(rand 2) ))
    SCHED=""
    CLASS="benign"
    local i pick site cls
    for (( i = 0; i < count; i++ )); do
        pick=${pool[$(rand ${#pool[@]})]}
        site=${pick%%|*}
        cls=${pick##*|}
        case "$SCHED" in *"$site"*) continue ;; esac
        SCHED="${SCHED:+$SCHED,}$site$(randomTrigger "$site")"
        [ "$cls" != "benign" ] && CLASS=$cls
    done
}

FAILS=0
declare -A MODE_RUNS=([serve]=0 [stream]=0 [batch]=0 [record]=0
                      [engine]=0 [model]=0)

fail() { # fail RUN MODE MSG [LOGFILE...]
    local run=$1 mode=$2 msg=$3; shift 3
    echo "chaos: FAIL run=$run mode=$mode: $msg" >&2
    echo "chaos:   repro: WMR_FAULT='$SCHED' WMR_FAULT_SEED=$RUNSEED" >&2
    local f
    for f in "$@"; do
        [ -s "$f" ] && { echo "chaos:   --- $f"; tail -10 "$f"; } >&2
    done
    FAILS=$(( FAILS + 1 ))
}

# crashed STATUS -> 0 (true) when the status means signal/core/hang.
crashed() { [ "$1" -ge 124 ]; }

TRACES=("$GOLDEN"/*.trace)
[ -e "${TRACES[0]}" ] || die "no traces in $GOLDEN"

# The WMRSEG01 fixtures: everything but the frozen legacy_* WMRTRC01
# files.  Read-damage schedules run on these only — WMRTRC01 has no
# checksum, so a flipped bit can decode into a different trace, and
# `check --stream` reads only WMRSEG01.
SEG_TRACES=()
for t in "${TRACES[@]}"; do
    case "$(basename "$t")" in legacy_*) ;; *) SEG_TRACES+=("$t") ;; esac
done
[ ${#SEG_TRACES[@]} -gt 0 ] || die "no WMRSEG01 traces in $GOLDEN"
printf '%s\n' "${SEG_TRACES[@]}" > "$WORK/seg.manifest"

# Pre-flight canary: prove env-driven injection is ALIVE before
# soaking — a schedule that never fires soaks nothing and proves
# nothing.  A giant injected short read must make the strict check
# refuse the trace.
if [ -f "$GOLDEN/synth_seg.trace" ]; then
    WMR_FAULT=trace.read.short@n1:100000000 timeout 20 \
        "$WMRACE" check "$GOLDEN/synth_seg.trace" \
        > "$WORK/canary.out" 2> "$WORK/canary.err"
    [ -s "$WORK/canary.out" ] &&
        die "canary: WMR_FAULT did not fire — env injection is dead, soaking would prove nothing"
else
    echo "chaos: note: no synth_seg.trace in corpus; env canary skipped" >&2
fi

runServe() {
    local run=$1
    local sdir="$WORK/r$run"
    mkdir -p "$sdir/spool" "$sdir/cache"
    WMR_FAULT="$SCHED" WMR_FAULT_SEED=$RUNSEED \
        "$WMRACE" serve --socket "$sdir/serve.sock" --jobs 2 \
        --spool-dir "$sdir/spool" --cache-dir "$sdir/cache" \
        > "$sdir/addr.txt" 2> "$sdir/serve.log" &
    local spid=$! addr="" _
    for _ in $(seq 1 100); do
        addr=$(cat "$sdir/addr.txt" 2>/dev/null)
        [ -n "$addr" ] && break
        kill -0 "$spid" 2>/dev/null || break
        sleep 0.05
    done
    if [ -z "$addr" ]; then
        fail "$run" serve "server never came up" "$sdir/serve.log"
        kill -KILL "$spid" 2>/dev/null; wait "$spid" 2>/dev/null
        return
    fi

    # submit a random sample of the corpus through the faulty server
    local n=$(( 2 + $(rand 3) )) i t base expected salvage got status
    for (( i = 0; i < n; i++ )); do
        t=${TRACES[$(rand ${#TRACES[@]})]}
        base=$(basename "$t" .trace)
        expected="$GOLDEN/$base.expected.txt"
        salvage=""
        case "$base" in *damaged*) salvage="--salvage" ;; esac
        got="$sdir/$base.out"
        WMR_FAULT="$SCHED" WMR_FAULT_SEED=$RUNSEED \
            timeout 30 "$WMRACE" submit "$t" --server "$addr" $salvage \
            > "$got" 2> "$sdir/$base.err"
        status=$?
        if crashed "$status"; then
            fail "$run" serve "submit $base: status $status (hang/signal)" \
                "$sdir/$base.err" "$sdir/serve.log"
        elif [ $status -eq 2 ]; then
            # typed transport refusal — legal only when the schedule
            # contains a fault that may surface to the client
            [ "$CLASS" = "benign" ] &&
                fail "$run" serve "submit $base: typed error under a benign-only schedule" \
                    "$sdir/$base.err"
        elif [ $status -le 1 ]; then
            # successful analysis must be the byte-identical report —
            # no serve-pool fault is allowed to corrupt a result
            cmp -s "$expected" "$got" ||
                fail "$run" serve "submit $base: report differs" "$got"
        else
            fail "$run" serve "submit $base: unexpected exit $status" \
                "$sdir/$base.err"
        fi
    done

    # shutdown fault-free; a stubborn server gets TERM, never lingers
    timeout 10 "$WMRACE" submit --server "$addr" --shutdown >/dev/null 2>&1
    local waited=0
    while kill -0 "$spid" 2>/dev/null; do
        if [ $waited -eq 40 ]; then kill -TERM "$spid" 2>/dev/null; fi
        if [ $waited -ge 80 ]; then kill -KILL "$spid" 2>/dev/null; break; fi
        sleep 0.05; waited=$(( waited + 1 ))
    done
    wait "$spid" 2>/dev/null
    status=$?
    case "$status" in
        0|143) : ;;  # clean exit or answered our SIGTERM
        *) fail "$run" serve "server exited $status" "$sdir/serve.log" ;;
    esac
    rm -rf "$sdir"
}

runStream() {
    local run=$1 t base salvage got status
    t=${SEG_TRACES[$(rand ${#SEG_TRACES[@]})]}
    base=$(basename "$t" .trace)
    salvage=""
    case "$base" in *damaged*) salvage="--salvage" ;; esac
    got="$WORK/stream.$run.out"
    WMR_FAULT="$SCHED" WMR_FAULT_SEED=$RUNSEED \
        timeout 30 "$WMRACE" check "$t" --stream $salvage \
        > "$got" 2> "$WORK/stream.$run.err"
    status=$?
    if crashed "$status"; then
        fail "$run" stream "check --stream $base: status $status (hang/signal)" \
            "$WORK/stream.$run.err"
    elif [ $status -gt 1 ]; then
        [ "$CLASS" = "benign" ] &&
            fail "$run" stream "check --stream $base: typed error under a benign-only schedule" \
                "$WORK/stream.$run.err"
    elif ! cmp -s "$GOLDEN/$base.expected.txt" "$got"; then
        # a damaged read may legally shrink to a salvage-marked
        # prefix — but never to a silently different full report
        if [ "$CLASS" = "benign" ] || ! grep -q "^SALVAGED trace:" "$got"; then
            fail "$run" stream "check --stream $base: report differs, not salvage-marked" "$got"
        fi
    fi
    rm -f "$got" "$WORK/stream.$run.err"
}

runBatch() {
    local run=$1 status
    WMR_FAULT="$SCHED" WMR_FAULT_SEED=$RUNSEED \
        timeout 60 "$WMRACE" batch "$WORK/seg.manifest" --jobs 2 --salvage \
        --checkpoint "$WORK/batch.$run.ck" \
        > "$WORK/batch.$run.out" 2> "$WORK/batch.$run.err"
    status=$?
    if crashed "$status"; then
        fail "$run" batch "status $status (hang/signal)" "$WORK/batch.$run.err"
    elif [ $status -gt 2 ]; then
        fail "$run" batch "unexpected exit $status" "$WORK/batch.$run.err"
    elif ! grep -q "^totals:" "$WORK/batch.$run.out"; then
        fail "$run" batch "no totals line — batch did not complete" \
            "$WORK/batch.$run.out" "$WORK/batch.$run.err"
    fi
    rm -f "$WORK/batch.$run".*
}

runRecord() {
    local run=$1 status
    WMR_FAULT="$SCHED" WMR_FAULT_SEED=$RUNSEED \
        timeout 60 "$WMRACE" record --out "$WORK/rec.$run.trace" --timeout 5 \
        "$DEMO" > "$WORK/rec.$run.out" 2> "$WORK/rec.$run.err"
    status=$?
    if crashed "$status"; then
        fail "$run" record "status $status (hang/signal)" "$WORK/rec.$run.err"
    elif [ $status -eq 2 ]; then
        fail "$run" record "usage error" "$WORK/rec.$run.err"
    elif [ $status -eq 3 ] && [ "$CLASS" = "benign" ]; then
        fail "$run" record "no analyzable trace under a benign-only schedule" \
            "$WORK/rec.$run.err"
    fi  # 0/1 = analysis (possibly of a salvaged prefix) — the goal
    rm -f "$WORK/rec.$run."*
}

runEngine() {
    local run=$1 t base salvage got status
    t=${SEG_TRACES[$(rand ${#SEG_TRACES[@]})]}
    base=$(basename "$t" .trace)
    salvage=""
    case "$base" in *damaged*) salvage="--salvage" ;; esac
    got="$WORK/engine.$run.out"
    WMR_FAULT="$SCHED" WMR_FAULT_SEED=$RUNSEED \
        timeout 30 "$WMRACE" check "$t" --engine all $salvage \
        > "$got" 2> "$WORK/engine.$run.err"
    status=$?
    if crashed "$status"; then
        fail "$run" engine "check --engine all $base: status $status (hang/signal)" \
            "$WORK/engine.$run.err"
    elif [ $status -gt 1 ]; then
        [ "$CLASS" = "benign" ] &&
            fail "$run" engine "check --engine all $base: typed error under a benign-only schedule" \
                "$WORK/engine.$run.err"
    elif ! cmp -s "$GOLDEN/$base.engines.expected.txt" "$got"; then
        # a damaged read may shrink to a salvage-marked prefix, but
        # the containment summary must never report a violation
        if [ "$CLASS" = "benign" ] || ! grep -q "^SALVAGED trace:" "$got"; then
            fail "$run" engine "check --engine all $base: report differs, not salvage-marked" "$got"
        elif grep -q '"violations":[1-9]' "$got"; then
            fail "$run" engine "check --engine all $base: containment violation under faults" "$got"
        fi
    fi
    rm -f "$got" "$WORK/engine.$run.err"
}

# The committed TSO/PSO sim fixtures: base / program / model / seed
# (regen.sh is the source of truth for these tuples).
MODEL_FIXTURES=(
    "tso_fig1a_s7 figure1a TSO 7"
    "tso_dekker_s2 dekker TSO 2"
    "pso_fig1b_s3 figure1b PSO 3"
    "pso_queue_s5 queue_buggy PSO 5"
)
PROGRAMS="$(dirname "$0")/../programs"

runModel() {
    local run=$1 pick base prog model seed status
    pick=${MODEL_FIXTURES[$(rand ${#MODEL_FIXTURES[@]})]}
    read -r base prog model seed <<< "$pick"
    local got="$WORK/model.$run"

    # Re-simulate the fixture under faults, robustness check inline.
    WMR_FAULT="$SCHED" WMR_FAULT_SEED=$RUNSEED \
        timeout 30 "$WMRACE" run "$PROGRAMS/$prog.wm" \
        --model "$model" --seed "$seed" --robustness \
        --trace "$got.trace" > "$got.out" 2> "$got.err"
    status=$?
    if crashed "$status"; then
        fail "$run" model "run $base: status $status (hang/signal)" "$got.err"
    elif [ $status -gt 1 ]; then
        [ "$CLASS" = "benign" ] &&
            fail "$run" model "run $base: typed error under a benign-only schedule" \
                "$got.err"
    else
        # The simulation is a pure function of (program, model,
        # seed): no injected I/O fault may perturb the verdict or
        # the recorded trace.
        grep -q "^robustness: " "$got.out" ||
            fail "$run" model "run $base: no robustness verdict in output" "$got.out"
        cmp -s "$GOLDEN/$base.trace" "$got.trace" ||
            fail "$run" model "run $base: written trace differs from golden" "$got.err"

        # Re-check the freshly written trace under the same schedule:
        # byte-identical blessed report or a clean typed error.
        WMR_FAULT="$SCHED" WMR_FAULT_SEED=$RUNSEED \
            timeout 30 "$WMRACE" check "$got.trace" \
            > "$got.check.out" 2> "$got.check.err"
        status=$?
        if crashed "$status"; then
            fail "$run" model "check $base: status $status (hang/signal)" "$got.check.err"
        elif [ $status -gt 1 ]; then
            [ "$CLASS" = "benign" ] &&
                fail "$run" model "check $base: typed error under a benign-only schedule" \
                    "$got.check.err"
        elif ! cmp -s "$GOLDEN/$base.expected.txt" "$got.check.out"; then
            if [ "$CLASS" = "benign" ] ||
               ! grep -q "^SALVAGED trace:" "$got.check.out"; then
                fail "$run" model "check $base: report differs, not salvage-marked" \
                    "$got.check.out"
            fi
        fi
    fi
    rm -f "$got".*
}

echo "chaos: $RUNS run(s), master seed $SEED$( [ $SMOKE -eq 1 ] && echo ' (smoke)')"
for (( run = 0; run < RUNS; run++ )); do
    RUNSEED=$(( (SEED + run * 2654435761) & 0x7FFFFFFFFFFFFFFF ))
    srand "$RUNSEED"
    case "$(rand 6)" in
        0) MODE=serve ;;
        1) MODE=stream ;;
        2) MODE=batch ;;
        3) MODE=record ;;
        4) MODE=engine ;;
        5) MODE=model ;;
    esac
    [ "$MODE" = record ] && [ -z "$DEMO" ] && MODE=batch
    case "$MODE" in
        serve)  buildSchedule SERVE_POOL;  runServe "$run" ;;
        stream) buildSchedule STREAM_POOL; runStream "$run" ;;
        batch)  buildSchedule BATCH_POOL;  runBatch "$run" ;;
        record) buildSchedule RECORD_POOL; runRecord "$run" ;;
        engine) buildSchedule ENGINE_POOL; runEngine "$run" ;;
        model)  buildSchedule MODEL_POOL;  runModel "$run" ;;
    esac
    MODE_RUNS[$MODE]=$(( MODE_RUNS[$MODE] + 1 ))
done

echo "chaos: $RUNS run(s) (serve=${MODE_RUNS[serve]} stream=${MODE_RUNS[stream]}" \
     "batch=${MODE_RUNS[batch]} record=${MODE_RUNS[record]}" \
     "engine=${MODE_RUNS[engine]} model=${MODE_RUNS[model]}), $FAILS failure(s)"
[ $FAILS -eq 0 ]
