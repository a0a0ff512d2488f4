#!/usr/bin/env bash
# Regenerate the committed BENCH_*.json perf baselines at the repo
# root: run each baseline bench binary's reproduction pass (the
# google-benchmark timing pass is filtered out) and extract its
# trailing machine-readable JSON block.
#
# Usage:
#   tools/bench_baselines.sh BUILD_DIR [--smoke]
#
# --smoke shrinks the workloads (WMR_BENCH_SMOKE=1) — useful to test
# the extraction, NOT for committing baselines.  Baselines are
# host-dependent snapshots: commit them from the same class of
# machine the previous ones came from, or call out the host change.
set -u

die() { echo "bench_baselines: $*" >&2; exit 2; }

[ $# -ge 1 ] || die "usage: bench_baselines.sh BUILD_DIR [--smoke]"
BUILD=$1; shift
[ -d "$BUILD/bench" ] || die "no bench/ under $BUILD — build first"
ROOT=$(cd "$(dirname "$0")/.." && pwd)

SMOKE=0
[ "${1:-}" = "--smoke" ] && SMOKE=1

BENCHES="bench_model_matrix bench_obs_overhead bench_stream_memory"

status=0
for bench in $BENCHES; do
    bin="$BUILD/bench/$bench"
    [ -x "$bin" ] || { echo "bench_baselines: skip $bench (not built)" >&2; status=1; continue; }
    out="$ROOT/BENCH_${bench#bench_}.json"
    echo "bench_baselines: running $bench ..." >&2
    log=$(mktemp) || die "mktemp failed"
    if [ $SMOKE -eq 1 ]; then
        WMR_BENCH_SMOKE=1 "$bin" --benchmark_filter=^$ > "$log" 2>/dev/null
    else
        "$bin" --benchmark_filter=^$ > "$log" 2>/dev/null
    fi || { echo "bench_baselines: $bench failed" >&2; rm -f "$log"; status=1; continue; }

    # The JSON block is the only flush-left { ... } in the output.
    awk '/^\{$/{f=1} f{print} /^\}$/{f=0}' "$log" > "$out"
    rm -f "$log"
    if [ ! -s "$out" ]; then
        echo "bench_baselines: $bench printed no JSON block" >&2
        rm -f "$out"
        status=1
        continue
    fi
    echo "bench_baselines: wrote ${out#$ROOT/}" >&2
done
exit $status
