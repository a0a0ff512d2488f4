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
# host-dependent snapshots: each file gets a "host" object with the
# fields of perfbench's host stamp (nproc, the build dir's build type
# and compiler, and the git revision), so a reader can tell which
# machine and build a figure came from.
set -u

die() { echo "bench_baselines: $*" >&2; exit 2; }

[ $# -ge 1 ] || die "usage: bench_baselines.sh BUILD_DIR [--smoke]"
BUILD=$1; shift
[ -d "$BUILD/bench" ] || die "no bench/ under $BUILD — build first"
ROOT=$(cd "$(dirname "$0")/.." && pwd)

SMOKE=0
[ "${1:-}" = "--smoke" ] && SMOKE=1

# The host stamp.  An empty CMAKE_BUILD_TYPE means the top-level
# CMakeLists.txt default, RelWithDebInfo.
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' "$BUILD/CMakeCache.txt" 2>/dev/null)
[ -n "$build_type" ] || build_type=RelWithDebInfo
compiler=unknown
for f in "$BUILD"/CMakeFiles/*/CMakeCXXCompiler.cmake; do
    [ -f "$f" ] || continue
    id=$(sed -n 's/^set(CMAKE_CXX_COMPILER_ID "\(.*\)")$/\1/p' "$f")
    ver=$(sed -n 's/^set(CMAKE_CXX_COMPILER_VERSION "\(.*\)")$/\1/p' "$f")
    compiler="$id $ver"
done
git_rev=$(git -C "$ROOT" rev-parse HEAD 2>/dev/null) || git_rev=unknown
HOST=$(printf '{"nproc": %s, "build_type": "%s", "compiler": "%s", "git_rev": "%s"}' \
       "$(nproc)" "$build_type" "$compiler" "$git_rev")

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

    # The JSON block is the only flush-left { ... } in the output;
    # the host object goes first inside it.
    awk -v host="$HOST" '/^\{$/{f=1; print; print "  \"host\": " host ","; next}
        f{print} /^\}$/{f=0}' "$log" > "$out"
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
