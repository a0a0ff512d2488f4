#!/usr/bin/env python3
"""The wmrace benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Builds wmrace from the sources of this checkout into .bench_build/
(perfbench/CMakeLists.txt) and makes the workload's inputs from --seed
through the public generator (`wmrace gen-trace --segmented`, which
calls writeSyntheticSegmentedTraceFile) under .bench_work/.
Workloads are defined in perfbench/workloads.json.  Every workload has
a check set (one large trace, or the first files of its corpus) and a
corpus of small traces, so every metric is measured on every workload.

--trace 0  times the real CLI as child processes: `wmrace check`,
           `check --stream` and `check --engine shb` on the check set
           (wall time measured here, peak RSS from wait4), `wmrace
           batch` on the corpus, and open-loop traffic from this
           process against a child `wmrace serve`: a warm-up rate,
           the reference rate, then a capacity search over rising
           rates.  Prints the end-to-end metrics of BENCHMARK.json.
--trace 1  runs wmbench_probe, which calls the library's public
           functions with a span around each call, then one untraced
           CLI pass for the wall each path's spans must account for,
           then the serve traffic with Status polling.  Prints the
           per-layer metrics and writes every span as Chrome
           trace_event JSON to .bench_work/<workload>/trace.json.

Every run checks its outputs: the `check` and `--stream` reports are
byte-identical, the shb race count equals the hb1 race count, batch
totals equal the sum of the per-trace results, and sampled serve
replies equal a local `check` of the same upload.  The last line of
stdout is the result JSON; a mismatch makes it "correct": false and
the exit code 1.

--smoke runs every workload at a few seconds and small inputs in both
modes, gate included (perfbench/test_smoke.py runs it).
"""

import argparse
import concurrent.futures
import filecmp
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"

CHILD_TIMEOUT_S = 150
SETUP_REPEATS = 5

# Shares of --seconds: check paths, batch, serve warm-up, the serve
# reference rate, and one step of the serve capacity ladder.
CHECK_SHARE, BATCH_SHARE = 0.3, 0.12
WARM_SHARE, REF_SHARE, STEP_SHARE = 0.02, 0.25, 0.0375
# Serve rates in req/s.  The capacity search climbs a ladder from
# LADDER_START by LADDER_RATIO up to LADDER_TOP (about what nproc
# connections can offer at 10 ms a request) until a step fails, then
# bisects LADDER_REFINE times: 1.25 ** (1 / 8), a 2.8% resolution.
WARM_RATE, REF_RATE = 10, 25
LADDER_START, LADDER_RATIO, LADDER_TOP, LADDER_REFINE = 50, 1.25, 400, 3
P99_LIMIT_MS = 250.0
BACKLOG_SLACK_NS = 30_000_000
# The latency a request that got no OK reply counts with.
FAILED_LATENCY_MS = 60_000.0

# Serve wire protocol (src/serve/protocol.hh).
REQ_MAGIC, RESP_MAGIC = b"WMRQSV01", b"WMRPSV01"
CMD_ANALYZE, CMD_STATUS, CMD_SHUTDOWN = 1, 2, 3
RESP_OK, RESP_OVERLOADED = 0, 2
RESP_CACHE_HIT = 1

MASK64 = (1 << 64) - 1


class Failure(Exception):
    """The benchmark cannot run (missing sources, failed build, bad
    input): exit nonzero without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def median(xs):
    return statistics.median(xs)


def percentile(xs, q):
    """Nearest-rank percentile of @p xs, q in (0, 100]."""
    s = sorted(xs)
    return s[max(0, -(-len(s) * q // 100) - 1)]


# ---------------------------------------------------------------- build

def build():
    """Configure and build wmrace and the probe; @return their paths."""
    if not (ROOT / "src").is_dir() or not (ROOT / "tools").is_dir():
        raise Failure(f"wmrace sources (src/, tools/) not found in {ROOT}")
    cache = BUILD / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH}\n" \
            not in cache.read_text(errors="replace"):
        shutil.rmtree(BUILD)
    BUILD.mkdir(exist_ok=True)
    steps = [["cmake", "--build", str(BUILD), "-j", str(nproc())]]
    if not cache.exists():
        steps.insert(0, ["cmake", "-S", str(BENCH), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(BUILD / "build.log", "ab") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
                raise Failure(f"build failed: see {BUILD / 'build.log'}")
    return BUILD / "wmrace", BUILD / "wmbench_probe"


def host_stamp():
    """nproc, build type, compiler and git revision of this run."""
    stamp = {"nproc": nproc(), "build_type": "Release", "compiler": "unknown",
             "git_rev": "unknown"}
    for f in BUILD.glob("CMakeFiles/*/CMakeCXXCompiler.cmake"):
        text = f.read_text()
        ident = text.split('CMAKE_CXX_COMPILER_ID "', 1)[-1].split('"')[0]
        ver = text.split('CMAKE_CXX_COMPILER_VERSION "', 1)[-1].split('"')[0]
        stamp["compiler"] = f"{ident} {ver}"
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            stamp["git_rev"] = rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return stamp


# --------------------------------------------------------------- inputs

def load_workload(name, seconds, smoke):
    """The workload's definition, its corpus grown to hold every upload
    the serve schedule of a @p seconds run needs."""
    table = json.loads((BENCH / "workloads.json").read_text())
    if name not in table:
        raise Failure(f"unknown workload {name!r}; have {sorted(table)}")
    wl = table[name]
    if smoke:
        if "trace" in wl:
            wl["trace"]["events"] //= 16
        wl["corpus"]["batch_count"] = 16
        wl["corpus"]["events"] //= 4
        wl["check_files"] = min(wl.get("check_files", 4), 4)
    wl["corpus"]["count"] = max(wl["corpus"]["batch_count"],
                                uploads_needed(seconds))
    return wl


def derive_seed(seed, index):
    """SplitMix64: the seed of corpus file @p index of workload seed
    @p seed."""
    z = (seed * 0x9e3779b97f4a7c15 + index + 1) & MASK64
    z = ((z ^ (z >> 30)) * 0xbf58476d1ce4e5b9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94d049bb133111eb) & MASK64
    return z ^ (z >> 31)


def shape_args(shape):
    return ["--procs", str(shape["procs"]), "--events", str(shape["events"]),
            "--words", str(shape["words"]),
            "--sync-words", str(shape["sync_words"]),
            "--sync-fraction", str(shape["sync_fraction"]),
            "--hot-fraction", str(shape["hot_fraction"])]


class Inputs:
    """The generated files of one workload and seed."""

    def __init__(self, wl, wdir):
        self.dir = wdir / "inputs"
        self.corpus_dir = self.dir / "corpus"
        n = wl["corpus"]["count"]
        self.corpus = [self.corpus_dir / f"c{i:04d}.trace" for i in range(n)]
        # batch runs on the first batch_count files, listed in a manifest;
        # the serve schedule may need more uploads than that.
        self.batch = self.corpus[:wl["corpus"]["batch_count"]]
        self.manifest = self.dir / "batch.manifest"
        if "trace" in wl:
            self.check_files = [self.dir / "big.trace"]
            shape = wl["trace"]
        else:
            self.check_files = self.corpus[:wl["check_files"]]
            shape = wl["corpus"]
        self.events_per_check_file = shape["procs"] * shape["events"]

    def clear(self):
        if self.dir.exists():
            shutil.rmtree(self.dir)

    def generate(self, wmrace, wl, seed):
        """`wmrace gen-trace --segmented` per file, nproc at a time:
        the large trace (if any) with @p seed, corpus file i with
        derive_seed(seed, i)."""
        self.corpus_dir.mkdir(parents=True)
        files = [(f, wl["corpus"], derive_seed(seed, i))
                 for i, f in enumerate(self.corpus)]
        if "trace" in wl:
            files.insert(0, (self.check_files[0], wl["trace"], seed))

        def gen(job):
            out, shape, file_seed = job
            cmd = [str(wmrace), "gen-trace", str(out), "--segmented",
                   *shape_args(shape), "--seed", str(file_seed)]
            if subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              timeout=CHILD_TIMEOUT_S).returncode != 0:
                raise Failure("input generation failed: " + " ".join(cmd))

        with concurrent.futures.ThreadPoolExecutor(nproc()) as pool:
            list(pool.map(gen, files))
        self.manifest.write_text("".join(f"{f}\n" for f in self.batch))


# --------------------------------------------------------- child process

def run_child(argv, stdout_path, stderr_file):
    """Run @p argv to completion.  @return (wall s, peak RSS MB, exit
    code); the wall is measured around spawn and wait4."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=stderr_file)
        timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, p.returncode


def race_count(report_path, after=None):
    """The N of the first "races: N" line (after line @p after)."""
    with open(report_path, "rb") as f:
        seen = after is None
        for line in f:
            if not seen:
                seen = line.startswith(after)
            elif line.startswith(b"races: "):
                return int(line.split()[1])
    return None


def reports_agree(check_out, stream_out, shb_out):
    """The correctness gate of the check paths."""
    hb1 = race_count(check_out)
    return (hb1 is not None and filecmp.cmp(check_out, stream_out, shallow=False)
            and race_count(shb_out, after=b"--- engine shb ---") == hb1)


class Tally:
    """Operations attempted and failed, plus the correctness verdict."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def op(self, ok, n=1, failed=None):
        self.attempted += n
        self.failed += (0 if ok else n) if failed is None else failed

    def mismatch(self, what):
        self.correct = False
        log("correctness mismatch: " + what)


PATHS = (("check", []), ("stream", ["--stream"]), ("shb", ["--engine", "shb"]))


def check_paths(wmrace, inputs, wdir, budget_s, tally, spans=None):
    """Run check / --stream / --engine shb over the check set in turns,
    each path until it has used a third of @p budget_s (at least once).
    @return per-path lists of per-pass (events/s, max RSS MB, wall s)."""
    per = {name: [] for name, _ in PATHS}
    used = {name: 0.0 for name, _ in PATHS}
    events = inputs.events_per_check_file * len(inputs.check_files)
    share = budget_s / len(PATHS)
    with open(wdir / "stderr.log", "ab") as err:
        while True:
            todo = [(name, flags) for name, flags in PATHS if not per[name]
                    or used[name] + per[name][-1][2] <= share]
            if not todo:
                break
            for name, flags in todo:
                wall_sum, rss = 0.0, 0.0
                for i, f in enumerate(inputs.check_files):
                    t0 = time.monotonic_ns()
                    wall, mb, code = run_child(
                        [str(wmrace), "check", str(f), *flags],
                        wdir / f"out_{name}_{i}.txt", err)
                    if spans is not None:
                        spans.append(("cli." + name, t0, time.monotonic_ns(),
                                      {"file": f.name}))
                    tally.op(code in (0, 1))
                    wall_sum += wall
                    rss = max(rss, mb)
                per[name].append((events / wall_sum, rss, wall_sum))
                used[name] += wall_sum
    for i, f in enumerate(inputs.check_files):
        if not reports_agree(*(wdir / f"out_{name}_{i}.txt" for name, _ in PATHS)):
            tally.mismatch(f"check/stream/shb disagree on {f.name}")
    return per


def batch_runs(wmrace, inputs, wdir, jobs, budget_s, tally):
    """`wmrace batch CORPUS --jobs J` for about @p budget_s seconds (at
    least once).  @return traces/s of each run."""
    rates = []
    start = time.perf_counter()
    last = 0.0
    json_path = wdir / "batch.json"
    with open(wdir / "stderr.log", "ab") as err:
        while last == 0.0 or time.perf_counter() - start + last <= budget_s:
            wall, _, code = run_child(
                [str(wmrace), "batch", str(inputs.manifest), "--jobs",
                 str(jobs), "--json", str(json_path), "--summary"],
                wdir / "out_batch.txt", err)
            last = wall
            n = len(inputs.batch)
            if code not in (0, 1):
                tally.op(False, n)
                continue
            report = json.loads(json_path.read_text())
            summary, traces = report["summary"], report["traces"]
            tally.op(True, n, failed=summary["failed"])
            sums_ok = all(summary[k] == sum(t.get(k, 0) for t in traces)
                          for k in ("events", "ops", "races", "data_races",
                                    "partitions", "first_partitions",
                                    "reported_races"))
            if not sums_ok or summary["analyzed"] != n or len(traces) != n:
                tally.mismatch("batch totals differ from the per-trace sums")
            rates.append(n / wall)
    if not rates:
        raise Failure("every `wmrace batch` run failed")
    return rates


# ---------------------------------------------------------------- serve

def serve_call(addr, cmd, body=b"", timeout=60.0):
    """One request/response round trip.  @return (status, flags,
    report bytes)."""
    with socket.create_connection(addr, timeout=timeout) as s:
        s.sendall(REQ_MAGIC + struct.pack("<IIQ", cmd, 0, len(body)))
        s.sendall(body)
        head = recv_exact(s, 36)
        if head[:8] != RESP_MAGIC:
            raise OSError("bad response magic")
        status, rflags, _, meta_len, report_len = struct.unpack(
            "<IIIQQ", head[8:])
        recv_exact(s, meta_len)
        return status, rflags, recv_exact(s, report_len)


def recv_exact(s, n):
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        k = s.recv_into(view[got:])
        if k == 0:
            raise OSError("connection closed mid-frame")
        got += k
    return bytes(buf)


class Daemon:
    """A child `wmrace serve --tcp 0 --jobs J`; stopped on exit."""

    def __init__(self, wmrace, jobs, wdir):
        self.jobs = jobs
        self.err = open(wdir / "serve.log", "ab")
        self.proc = subprocess.Popen(
            [str(wmrace), "serve", "--tcp", "0", "--jobs", str(jobs)],
            stdout=subprocess.PIPE, stderr=self.err)
        try:
            line = self._first_line().decode().strip()
            if not line.startswith("tcp:"):
                raise Failure(f"serve printed {line!r}, not its address")
            host, port = line[4:].rsplit(":", 1)
            self.addr = (host, int(port))
            deadline = time.monotonic() + 30
            while True:
                try:
                    if serve_call(self.addr, CMD_STATUS)[0] == RESP_OK:
                        break
                except OSError:
                    pass
                if time.monotonic() > deadline:
                    raise Failure("serve did not answer Status")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise

    def _first_line(self):
        timer = threading.Timer(30, self.proc.kill)
        timer.start()
        try:
            return self.proc.stdout.readline()
        finally:
            timer.cancel()

    def status(self):
        return json.loads(serve_call(self.addr, CMD_STATUS)[2])

    def stop(self):
        if self.proc.poll() is None:
            try:
                serve_call(self.addr, CMD_SHUTDOWN, timeout=10)
                self.proc.wait(timeout=30)
            except (OSError, AttributeError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.err.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def ladder_rates():
    rates, rate = [], float(LADDER_START)
    while rate <= LADDER_TOP:
        rates.append(round(rate))
        rate *= LADDER_RATIO
    return rates


def plan_phase(rate, seconds, uploaded, n_corpus, rng):
    """One phase of the open-loop schedule: a corpus index per request,
    sent at evenly spaced due times.  Two requests in three upload a
    trace the daemon has not seen (the next corpus file); the third
    repeats an upload of @p uploaded, the daemon's uploads so far, drawn
    uniformly, so once the reports outgrow the result cache some repeats
    miss it.  Hits stay a minority, which keeps the median inside the
    miss latencies instead of on the gap between hits and misses."""
    picks = []
    for i in range(max(1, round(rate * seconds))):
        if i % 3 != 2 or not uploaded:
            if len(uploaded) == n_corpus:
                raise Failure("corpus too small for the serve schedule")
            uploaded.append(len(uploaded))
            picks.append(uploaded[-1])
        else:
            picks.append(rng.choice(uploaded))
    return picks


def warm_files():
    return 2 * nproc()


def uploads_needed(seconds):
    """Corpus files the serve traffic of a @p seconds run can need: the
    warm-up and reference phases share one daemon, every ladder step
    has a daemon of its own, warmed with files no step uploads."""
    rng = random.Random(0)
    session, step = [], []
    plan_phase(WARM_RATE, WARM_SHARE * seconds, session, sys.maxsize, rng)
    plan_phase(REF_RATE, REF_SHARE * seconds, session, sys.maxsize, rng)
    plan_phase(ladder_rates()[-1], STEP_SHARE * seconds, step, sys.maxsize,
               rng)
    return max(len(session), len(step) + warm_files())


def serve_phase(addr, rate, picks, bodies, lanes, keep=(), poll=None):
    """Send @p picks at @p rate req/s from @p lanes connections, each
    timed from its due time.  @return one dict per request."""
    n = len(picks)
    period = 1e9 / rate
    t0 = time.monotonic_ns() + 20_000_000
    results = [None] * n
    cursor = [0]
    lock = threading.Lock()

    def lane(index):
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= n:
                return
            due = t0 + int(i * period)
            wait = due - time.monotonic_ns()
            if wait > 0:
                time.sleep(wait / 1e9)
            sent = time.monotonic_ns()
            try:
                status, flags, report = serve_call(addr, CMD_ANALYZE,
                                                   bodies[picks[i]])
            except OSError:
                status, flags, report = -1, 0, b""
            results[i] = {"due": due, "sent": sent, "done": time.monotonic_ns(),
                          "status": status, "hit": bool(flags & RESP_CACHE_HIT),
                          "lane": index, "upload": picks[i],
                          "report": report if i in keep else None}

    threads = [threading.Thread(target=lane, args=(k,)) for k in range(lanes)]
    for t in threads:
        t.start()
    while any(t.is_alive() for t in threads):
        if poll is not None:
            poll()
        time.sleep(0.05)
    for t in threads:
        t.join()
    return results


def latency_ms(r):
    """A request's latency from its due time; one without an OK reply
    counts as FAILED_LATENCY_MS, so refusing work cannot lower it."""
    if r["status"] != RESP_OK:
        return FAILED_LATENCY_MS
    return (r["done"] - r["due"]) / 1e6


def phase_summary(rate, results):
    lat = [latency_ms(r) for r in results]
    late = [r["sent"] - r["due"] for r in results]
    q = max(1, len(late) // 4)
    growing = median(late[-q:]) > median(late[:q]) + BACKLOG_SLACK_NS
    p99 = percentile(lat, 99)
    span_s = (max(r["done"] for r in results) - results[0]["due"]) / 1e9
    return {"rate": rate, "p50": median(lat), "p95": percentile(lat, 95),
            "p99": p99, "samples": len(lat),
            "passed": all(r["status"] == RESP_OK for r in results)
            and p99 <= P99_LIMIT_MS and not growing,
            "throughput": len(results) / span_s, "late_ns": late}


class ServeRun:
    """What serve_traffic() measured."""

    def __init__(self):
        self.summaries = []   # one per phase, in the order they ran
        self.reference = []   # the results of the reference phase
        self.everything = []  # the results of every phase
        self.cache_evictions = 0  # summed over daemons


def serve_traffic(wmrace, daemon, inputs, seed, seconds, lanes, tally, wdir,
                  poll=None):
    """Warm-up and reference rate against @p daemon, then the capacity
    search, each step against a fresh daemon so that its new uploads are
    new to it.  @p poll, if given, is called with the daemon under load
    every 50 ms.  @return a ServeRun."""
    out = ServeRun()

    def phase(d, rate, picks, ref=False):
        bodies = {i: inputs.corpus[i].read_bytes() for i in set(picks)}
        keep = {1, 2, 3, len(picks) // 2, len(picks) - 2, len(picks) - 1} \
            if ref else ()
        res = serve_phase(d.addr, rate, picks, bodies, lanes, keep,
                          None if poll is None else lambda: poll(d))
        for r in res:
            tally.op(r["status"] == RESP_OK)
            r["rate"] = rate
        out.summaries.append(phase_summary(rate, res))
        out.everything.extend(res)
        return res

    def count_cache(d):
        out.cache_evictions += d.status()["cache"]["evictions"]

    rng = random.Random(seed * 7919 + 17)
    uploaded = []
    n = len(inputs.corpus)
    phase(daemon, WARM_RATE,
          plan_phase(WARM_RATE, WARM_SHARE * seconds, uploaded, n, rng))
    out.reference = phase(
        daemon, REF_RATE,
        plan_phase(REF_RATE, REF_SHARE * seconds, uploaded, n, rng), ref=True)
    ref_passed = out.summaries[-1]["passed"]
    count_cache(daemon)
    verify_served(wmrace, inputs, out.reference, tally, wdir)

    # A fresh daemon answers its first requests slowly; the last corpus
    # files, which no step uploads, warm it before the step is timed.
    spare = {i: inputs.corpus[i].read_bytes()
             for i in range(n - warm_files(), n)}

    def step(rate):
        rng = random.Random(seed * 7919 + 17 + len(out.summaries))
        picks = plan_phase(rate, STEP_SHARE * seconds, [], n - len(spare), rng)
        with Daemon(wmrace, daemon.jobs, wdir) as d:
            for r in serve_phase(d.addr, 1000, sorted(spare), spare, lanes):
                tally.op(r["status"] == RESP_OK)
            phase(d, rate, picks)
            count_cache(d)
        return out.summaries[-1]["passed"]

    find_capacity(step, REF_RATE if ref_passed else None)
    return out


def find_capacity(try_rate, passing):
    """Call @p try_rate(rate) -> passed on the ladder's rates until one
    fails, then bisect LADDER_REFINE times between the highest passing
    and the lowest failing rate at geometric midpoints.  @p passing is a
    rate known to pass, or None.  @return the highest passing rate."""
    failing = None
    for rate in ladder_rates():
        if not try_rate(rate):
            failing = rate
            break
        passing = rate
    if passing is None or failing is None:
        return passing
    for _ in range(LADDER_REFINE):
        mid = round(math.sqrt(passing * failing), 1)
        if try_rate(mid):
            passing = mid
        else:
            failing = mid
    return passing


def verify_served(wmrace, inputs, results, tally, wdir):
    """Sampled serve replies must equal a local `check` of the upload."""
    with open(wdir / "stderr.log", "ab") as err:
        for r in results:
            if r["report"] is None or r["status"] != RESP_OK:
                continue
            local = wdir / "out_local.txt"
            run_child([str(wmrace), "check", str(inputs.corpus[r["upload"]])],
                      local, err)
            if local.read_bytes() != r["report"]:
                tally.mismatch(f"served report differs from local check of "
                               f"{inputs.corpus[r['upload']].name}")


def max_rps(summaries):
    """Measured throughput at the highest rate that met the p99 limit
    with no growing backlog (the lowest rate when none did)."""
    passed = [s for s in summaries if s["passed"]]
    return (max(passed, key=lambda s: s["rate"]) if passed
            else summaries[0])["throughput"]


# ------------------------------------------------------------------ runs

def setup(wmrace, wl, seed, wdir, jobs, repeats):
    """Generate the inputs and start the daemon @p repeats times;
    @return (median set-up seconds, inputs, the last daemon)."""
    times = []
    daemon = None
    for k in range(repeats):
        if daemon is not None:
            daemon.stop()
        inputs = Inputs(wl, wdir)
        inputs.clear()
        t0 = time.perf_counter()
        inputs.generate(wmrace, wl, seed)
        daemon = Daemon(wmrace, jobs, wdir)
        times.append(time.perf_counter() - t0)
    return median(times), inputs, daemon


def metric(value, unit):
    return {"value": value, "unit": unit}


def log_phases(summaries):
    log("serve phases: " + "; ".join(
        f"{s['rate']}/s p99 {s['p99']:.1f} ms {s['throughput']:.1f} done/s "
        f"{'pass' if s['passed'] else 'fail'}" for s in summaries))


def timed_run(wl, seed, seconds, wmrace, wdir, tally):
    jobs = nproc()
    setup_s, inputs, daemon = setup(wmrace, wl, seed, wdir, jobs,
                                    SETUP_REPEATS)
    with daemon:
        per = check_paths(wmrace, inputs, wdir, CHECK_SHARE * seconds, tally)
        batch = batch_runs(wmrace, inputs, wdir, jobs, BATCH_SHARE * seconds,
                           tally)
        serve = serve_traffic(wmrace, daemon, inputs, seed, seconds, jobs,
                              tally, wdir)
    log_phases(serve.summaries)
    ref = serve.summaries[1]
    return {
        "check_eps": metric(median([x[0] for x in per["check"]]), "events/s"),
        "stream_eps": metric(median([x[0] for x in per["stream"]]), "events/s"),
        "shb_eps": metric(median([x[0] for x in per["shb"]]), "events/s"),
        "check_rss_mb": metric(median([x[1] for x in per["check"]]), "MB"),
        "stream_rss_mb": metric(median([x[1] for x in per["stream"]]), "MB"),
        "batch_traces_s": metric(median(batch), "traces/s"),
        "serve_p50_ms": metric(ref["p50"], "ms"),
        "serve_p95_ms": metric(ref["p95"], "ms"),
        "serve_max_rps": metric(max_rps(serve.summaries), "req/s"),
        "setup_s": metric(setup_s, "s"),
    }


def traced_run(wl, seed, seconds, wmrace, probe, wdir, tally, workload):
    jobs = nproc()
    _, inputs, daemon = setup(wmrace, wl, seed, wdir, jobs, 1)
    spans = []
    with daemon:
        probe_json = wdir / "probe.json"
        t0 = time.monotonic_ns()
        code = subprocess.run(
            [str(probe), "layers", "--out", str(probe_json), "--work",
             str(wdir), "--corpus", str(inputs.manifest), "--jobs",
             str(jobs), "--uploads", "8", *map(str, inputs.check_files)],
            timeout=CHILD_TIMEOUT_S).returncode
        spans.append(("probe", t0, time.monotonic_ns(), {}))
        if code not in (0, 1):
            raise Failure("wmbench_probe layers failed")
        probe_out = json.loads(probe_json.read_text())
        tally.op(True)
        if not probe_out["correct"]:
            tally.mismatch("in-process check/stream/shb or batch disagree")
        pm = probe_out["metrics"]

        per = check_paths(wmrace, inputs, wdir, 0.3 * seconds, tally, spans)
        depth = [0]

        def poll(d):
            try:
                depth[0] = max(depth[0], d.status()["queue_depth"])
            except (OSError, ValueError, KeyError):
                pass

        serve = serve_traffic(wmrace, daemon, inputs, seed, seconds,
                              max(1, jobs - 1), tally, wdir, poll)

    log_phases(serve.summaries)
    served = serve.everything
    ok = [r for r in serve.reference if r["status"] == RESP_OK]
    miss = [latency_ms(r) for r in ok if not r["hit"]]
    hit = [latency_ms(r) for r in ok if r["hit"]]
    ref = serve.summaries[1]
    unattributed = {name: median([x[2] for x in per[name]]) - pm[name + ".spans_s"]
                    for name, _ in PATHS}
    metrics = {
        "trace.read_s": metric(pm["trace.read_s"], "s"),
        "trace.read_mb_s": metric(pm["trace.read_mb"] / pm["trace.read_s"], "MB/s"),
        "hb.graph_s": metric(pm["hb.graph_s"], "s"),
        "hb.reach_s": metric(pm["hb.reach_s"], "s"),
        "detect.race_find_s": metric(pm["detect.race_find_s"], "s"),
        "detect.candidate_pairs": metric(pm["detect.candidate_pairs"], "count"),
        "detect.reach_queries": metric(pm["detect.reach_queries"], "count"),
        "detect.race_yield": metric(
            pm["detect.races"] / pm["detect.candidate_pairs"]
            if pm["detect.candidate_pairs"] else 0.0, "ratio"),
        "detect.augment_s": metric(pm["detect.augment_s"], "s"),
        "detect.partition_s": metric(pm["detect.partition_s"], "s"),
        "detect.scp_s": metric(pm["detect.scp_s"], "s"),
        "detect.report_model_s": metric(pm["detect.report_model_s"], "s"),
        "detect.render_s": metric(pm["detect.render_s"], "s"),
        "detect.report_bytes": metric(pm["detect.report_bytes"], "bytes"),
        "io.write_s": metric(pm["io.write_s"], "s"),
        "stream.poll_s": metric(pm["stream.poll_s"], "s"),
        "stream.add_segment_s": metric(pm["stream.add_segment_s"], "s"),
        "stream.finish_s": metric(pm["stream.finish_s"], "s"),
        "stream.render_s": metric(pm["stream.render_s"], "s"),
        "stream.peak_resident_events": metric(pm["stream.peak_resident_events"],
                                              "events"),
        "stream.windows_retired": metric(pm["stream.windows_retired"], "count"),
        "engines.shb_run_s": metric(pm["engines.shb_run_s"], "s"),
        "engines.render_s": metric(pm["engines.render_s"], "s"),
        "pipeline.scan_s": metric(pm["pipeline.scan_s"], "s"),
        "pipeline.batch_s": metric(pm["pipeline.batch_s"], "s"),
        "pipeline.aggregate_s": metric(pm["pipeline.aggregate_s"], "s"),
        "serve.miss_p50_ms": metric(median(miss) if miss else 0.0, "ms"),
        "serve.hit_p50_ms": metric(median(hit) if hit else 0.0, "ms"),
        "serve.cache_hit_ratio": metric(len(hit) / len(serve.reference),
                                        "ratio"),
        "serve.cache_evictions": metric(serve.cache_evictions, "count"),
        "serve.overloaded": metric(
            sum(r["status"] == RESP_OVERLOADED for r in served), "count"),
        "serve.queue_depth_max": metric(depth[0], "count"),
        "serve.gen_late_ms": metric(percentile(ref["late_ns"], 99) / 1e6, "ms"),
        "serve.analyze_ms": metric(pm["serve.analyze_ms"], "ms"),
        "serve.ref_samples": metric(ref["samples"], "count"),
        "serve_p99_ms": metric(ref["p99"], "ms"),
        "check.unattributed_s": metric(unattributed["check"], "s"),
        "stream.unattributed_s": metric(unattributed["stream"], "s"),
        "shb.unattributed_s": metric(unattributed["shb"], "s"),
        "tracing.overhead_s": metric(pm["tracing.overhead_s"], "s"),
        "failed_frac": metric(tally.failed / max(1, tally.attempted), "fraction"),
    }
    write_chrome_trace(wdir / "trace.json", workload, probe_out["spans"], spans,
                       served)
    return metrics


def write_chrome_trace(path, workload, probe_spans, cli_spans, served):
    """Every span of the traced run as Chrome trace_event JSON."""
    events = []

    def add(name, start_ns, end_ns, tid, args):
        events.append({"name": name, "ph": "X", "pid": 1, "tid": tid,
                       "ts": start_ns / 1e3, "dur": (end_ns - start_ns) / 1e3,
                       "args": dict(args, workload=workload)})

    for i, s in enumerate(probe_spans):
        add(s["name"], s["start_ns"], s["end_ns"], 1,
            {"id": i, "parent": s["parent"], "path": s["path"]})
    for name, start, end, args in cli_spans:
        add(name, start, end, 2, args)
    for r in served:
        add("serve.request", r["due"], r["done"], 10 + r["lane"],
            {"rate": r["rate"], "hit": r["hit"], "status": r["status"],
             "late_ms": (r["sent"] - r["due"]) / 1e6})
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))


def bench(workload, seed, seconds, trace, smoke=False):
    """One benchmark run.  @return the result dict."""
    wl = load_workload(workload, seconds, smoke)
    wmrace, probe = build()
    wdir = WORK / workload
    wdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    if trace:
        metrics = traced_run(wl, seed, seconds, wmrace, probe, wdir, tally,
                             workload)
    else:
        metrics = timed_run(wl, seed, seconds, wmrace, wdir, tally)
    print("host: " + json.dumps(host_stamp()), flush=True)
    return {"correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def smoke():
    """Every workload at small size in both modes; @return exit code."""
    names = sorted(json.loads((BENCH / "workloads.json").read_text()))
    expect = json.loads((ROOT / "BENCHMARK.json").read_text())
    verdict = {}
    for name in names:
        for trace in (0, 1):
            res = bench(name, 1, 2, trace, smoke=True)
            want = expect["per_layer" if trace else "end_to_end"]
            complete = set(res["metrics"]) == {m["name"] for m in want}
            verdict[f"{name}/trace{trace}"] = (res["correct"] and complete
                                               and res["failed"] == 0)
    print(json.dumps({"correct": all(verdict.values()), "runs": verdict}))
    return 0 if all(verdict.values()) else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.smoke:
            return smoke()
        if not args.workload:
            raise Failure("--workload is required")
        res = bench(args.workload, args.seed, args.seconds, args.trace)
    except Failure as e:
        log(f"run.py: {e}")
        return 2
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
