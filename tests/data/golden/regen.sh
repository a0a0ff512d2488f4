#!/bin/sh
# Regenerate the golden-report regression corpus IN PLACE — the one
# command referenced by tests/CMakeLists.txt and docs/OBSERVABILITY.md:
#
#   tests/data/golden/regen.sh [path/to/wmrace]
#
# (default tool: build/tools/wmrace relative to the repo root).
# Every trace here is a deterministic WMRSEG01 artifact: simulator
# traces are a pure function of (program, model, seed), synthetic
# traces of their gen-trace options, so regeneration is byte-stable —
# rerunning this script on an unchanged tree produces an empty git
# diff.  Commit BOTH the .trace and .expected.txt files and review the
# diff of the .expected.txt reports like source code: they are the
# detector's contract.
#
# The legacy_*.trace inputs are frozen WMRTRC01 files, the container
# older recordings used; no writer emits it any more, so this script
# regenerates their reports but never their inputs.
set -eu
cd "$(dirname "$0")"
REPO=../../..
WMRACE=${1:-$REPO/build/tools/wmrace}

# `run` and `check` exit 1 when the input HAS data races — that is a
# valid golden outcome, not an error (errors exit 2).
races_ok() {
    if "$@"; then :; else
        rc=$?
        if [ "$rc" -ne 1 ]; then
            echo "regen.sh: $* exited $rc" >&2
            exit "$rc"
        fi
    fi
}

check_to() {
    out=$1
    shift
    races_ok "$WMRACE" check "$@" >"$out"
}

sim() { # name prog model seed
    races_ok "$WMRACE" run "$REPO/programs/$2.wm" --model "$3" \
        --seed "$4" --trace "$1.trace" >/dev/null
    check_to "$1.expected.txt" "$1.trace"
}

# --- simulator traces: the paper's figures + the larger demos ------
sim fig1a_wo_s7 figure1a WO 7        # the Fig.1a race, weak ordering
sim fig1a_rcsc_s4 figure1a RCsc 4    # same program, RCsc hardware
sim fig1b_drf1_s3 figure1b DRF1 3    # properly labeled: race-free
sim dekker_sc_s1 dekker SC 1         # Dekker under SC
sim dekker_wo_s2 dekker WO 2         # Dekker broken by weak order
sim queue_wo_s5 queue_buggy WO 5     # the buggy work-queue
sim tso_fig1a_s7 figure1a TSO 7      # Fig.1a on x86-style TSO
sim tso_dekker_s2 dekker TSO 2       # Dekker on TSO (SB relaxation)
sim pso_fig1b_s3 figure1b PSO 3      # race-free stays clean on PSO
sim pso_queue_s5 queue_buggy PSO 5   # work-queue with split buffers

# --- synthetic traces: analysis-side shapes the programs can't ----
"$WMRACE" gen-trace synth_p2.trace --procs 2 --events 120 \
    --words 96 --seed 21 >/dev/null
check_to synth_p2.expected.txt synth_p2.trace

"$WMRACE" gen-trace synth_hot.trace --procs 4 --events 200 \
    --seed 33 --hot-fraction 0.6 >/dev/null
check_to synth_hot.expected.txt synth_hot.trace

# A complete recording.
"$WMRACE" gen-trace synth_seg.trace --procs 3 \
    --events 150 --seed 8 >/dev/null
check_to synth_seg.expected.txt synth_seg.trace

# Truncated mid-file: the salvage fixture.  The full file is ~31 KB;
# keeping the first 9000 bytes drops the tail (and the FIN segment),
# so `check --salvage` recovers a prefix and says so in the report
# header.
"$WMRACE" gen-trace synth_seg_damaged.trace --procs 3 \
    --events 300 --seed 8 --truncate 9000 >/dev/null
check_to synth_seg_damaged.expected.txt synth_seg_damaged.trace \
    --salvage

# --- frozen legacy WMRTRC01 inputs: reports only ------------------
# (queue_wo_s5 carries member ops and sync pairing; synth_hot larger
# bitsets).  Their reports match those of their WMRSEG01 twins.
check_to legacy_queue_wo_s5.expected.txt legacy_queue_wo_s5.trace
check_to legacy_synth_hot.expected.txt legacy_synth_hot.trace

# --- detector-family reports: `check --engine all` on every -------
# fixture (per-engine verdict blocks + containment summary), blessed
# as <base>.engines.expected.txt and diffed by golden_engines_*.
for trace in *.trace; do
    base=${trace%.trace}
    extra=
    case $base in
    *damaged*) extra=--salvage ;;
    esac
    check_to "$base.engines.expected.txt" "$trace" \
        --engine all $extra
done

echo "golden corpus regenerated; review: git diff tests/data/golden"
