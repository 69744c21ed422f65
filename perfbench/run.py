#!/usr/bin/env python3
"""perfbench: end-to-end and layer-attributed benchmark of the synth CLI.

Run from the repository root:

    python3 perfbench/run.py --workload synth_cold --seed 1 --seconds 30 --trace 0

It builds bin/synth.exe and perfbench/tracer/tracer.exe with dune, drives
the real binary (one process per op, or one `synth serve --workers 2`
fleet per pass), checks every op's output against perfbench/expected.json,
and prints one JSON object as its last stdout line. With --trace 1 it
replays the same ops in process with tracer.exe and reports per-layer
metrics instead. README.md beside this file lists every workload and
metric.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads as W  # noqa: E402

MIN_OPS = 100  # so that at least ten samples lie beyond p90
MIN_PASSES = 3  # so that each kind's median is over three samples
SETUP_REPS = 9
SHORT_OPS = 6  # ops per pass in --short mode (tests)
LINE_TIMEOUT_S = 60.0
# As in a deployed fleet: one job outstanding per worker.
FLEET_WORKERS = 2
# Host-speed reference (see Reference): calib.exe's output, the number of
# its runs that set one op's scale, and, by the number of domains it
# runs, its wall and CPU time on the host whose speed the reported
# figures are expressed at.
CALIB_SUM = b"805225104\n"
REF_WINDOW = 9
REF_MS = {1: (8.0, 7.0), 2: (14.0, 16.0)}
# analysis runs the Domain pool at 2 jobs: its ops wait on both cores
# (every minor collection stops all domains), so its reference does too
REF_DOMAINS = {"analysis": 2}

DONE_RE = re.compile(r"^serve\[w\d+\]: \[([^\]]+)\] (done|degraded) in ([0-9.]+) ms")
FAILED_RE = re.compile(r"\[([^\]]+)\] FAILED permanently")
STARTED_RE = re.compile(r"^serve: worker \d+ started")


def now():
    return time.perf_counter()


def md5(data):
    return hashlib.md5(data).hexdigest()


def children_cpu_s():
    """User+sys CPU of reaped children, to the microsecond (os.times()
    counts in 10 ms clock ticks, too coarse for one op)."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[1], q[2]


def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 400):
        for aa in (m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def betainc(a, b, x):
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def hd_quantile(xs, q):
    """Harrell-Davis estimate of quantile [q]: a Beta-weighted mean of the
    order statistics around rank q n. A pass holds every op kind equally
    often, and on analysis rank 0.9 n falls on the gap between two kinds
    (about 110 ms vs 220 ms), where one delayed op moves a single order
    statistic across the gap; here that moves the estimate by one
    weight's share of the gap, not by all of it."""
    xs = sorted(xs)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def geomean(xs):
    return math.exp(sum(math.log(max(x, 1e-9)) for x in xs) / len(xs))


# --- build and environment ------------------------------------------------


def dune_cmd():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: dune not found on PATH")


def build():
    if not (os.path.isfile("dune-project") and os.path.isfile("bin/synth.ml")):
        sys.exit("perfbench: run from the root of a bistpath checkout "
                 "(dune-project and bin/synth.ml not found)")
    targets = ["./" + t[len("_build/default/"):] for t in (W.SYNTH, W.TRACER, W.CALIB)]
    r = subprocess.run(dune_cmd() + ["build"] + targets,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if r.returncode != 0:
        sys.stderr.write(r.stderr.decode(errors="replace"))
        sys.exit("perfbench: build failed")


def environment(seed):
    def out(argv):
        try:
            return subprocess.run(argv, capture_output=True, text=True).stdout.strip()
        except OSError:
            return ""
    commit = out(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else ""
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "commit": commit or "unknown (not a git checkout)",
        "ocaml": out(["ocamlfind", "ocamlopt", "-version"]) or out(["ocamlc", "-version"]),
    }


def load_expected(path):
    with open(path) as f:
        return json.load(f)


# --- host-speed reference ---------------------------------------------------


class Reference:
    """calib.exe, a fixed stdlib-only OCaml process (perfbench/calib),
    timed between ops, on one domain or on two. A shared host's speed
    drifts by up to 2x over minutes, and it moves every op and calib.exe
    alike; a time measured at [t] is reported at reference speed, scaled
    by REF_MS's wall time over the median wall time of the REF_WINDOW
    calib runs nearest to [t] (CPU times by its CPU time over theirs).
    No change to lib/ or bin/ changes calib.exe's work, so the scale
    never hides one."""

    def __init__(self, domains):
        self.argv = [W.CALIB] + (["2"] if domains == 2 else [])
        self.ref_ms, self.ref_cpu_ms = REF_MS[domains]
        self.t, self.wall, self.cpu = [], [], []

    def sample(self):
        c0, t0 = children_cpu_s(), now()
        r = subprocess.run(self.argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        wall, cpu = now() - t0, children_cpu_s() - c0
        if r.returncode != 0 or r.stdout != CALIB_SUM:
            sys.exit("perfbench: calib.exe printed a wrong checksum")
        self.t.append(t0)
        self.wall.append(wall * 1000.0)
        self.cpu.append(cpu * 1000.0)

    def warm_up(self):
        for _ in range(3):
            self.sample()
        self.t, self.wall, self.cpu = [], [], []

    def scale(self, t0, t1=None):
        """(wall, cpu) factors for a time measured over [t0, t1]: the
        REF_WINDOW runs nearest to it, or every run inside it and the
        one before and after, whichever are more."""
        t1 = t0 if t1 is None else t1
        lo = bisect.bisect_left(self.t, t0)
        hi = bisect.bisect_right(self.t, t1)
        lo, hi = max(0, lo - 1), min(len(self.t), hi + 1)
        while hi - lo < min(REF_WINDOW, len(self.t)):
            if lo > 0 and (hi == len(self.t) or t0 - self.t[lo - 1] < self.t[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return (self.ref_ms / statistics.median(self.wall[lo:hi]),
                self.ref_cpu_ms / statistics.median(self.cpu[lo:hi]))

    def summary(self):
        return {"argv": self.argv, "runs": len(self.wall),
                "wall_ms_median": statistics.median(self.wall),
                "cpu_ms_median": statistics.median(self.cpu),
                "ref_ms": self.ref_ms, "ref_cpu_ms": self.ref_cpu_ms}


# --- CLI workloads ----------------------------------------------------------


def cli_setup(args, workload, ref):
    """The per-run set-up, timed: scratch dir, expected digests, seeded op
    order, and one `synth list` as a readiness probe that also pages the
    binary in. Repeated SETUP_REPS times, each followed by a calib run;
    setup_s is the median at reference speed."""
    spans = []
    expected = None
    for _ in range(SETUP_REPS):
        t0 = now()
        os.makedirs(W.WORK, exist_ok=True)
        scratch = tempfile.mkdtemp(dir=W.WORK)
        expected = load_expected(args.expected)
        W.cli_order(workload, args.seed, 0)
        r = subprocess.run([W.SYNTH, "list"], capture_output=True)
        if r.returncode != 0 or any(t.encode() not in r.stdout for t in W.TAGS):
            sys.exit("perfbench: synth list failed")
        spans.append((t0, now() - t0))
        shutil.rmtree(scratch)
        ref.sample()
    return statistics.median(s * ref.scale(t0)[0] for t0, s in spans), expected


def run_cli_op(kind, expected):
    """One synth process, timed from spawn to reap. Returns (wall ms,
    CPU ms, output ok)."""
    c0, t0 = children_cpu_s(), now()
    r = subprocess.run([W.SYNTH] + W.cli_argv(*kind), stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL)
    dt, cpu = now() - t0, children_cpu_s() - c0
    want = expected["cli"].get(W.kind_key(*kind))
    ok = want is not None and want == {"md5": md5(r.stdout), "exit": r.returncode}
    return dt * 1000.0, cpu * 1000.0, ok


def cli_passes(args, workload, expected, trace, ref):
    """Closed loop, one process at a time, whole passes only: at least
    MIN_PASSES passes and MIN_OPS ops, then passes while one more fits
    in --seconds. A calib run follows every op. Returns the samples
    (kind, ms, ok, ms at reference speed), ops_per_s and cpu_ms_per_op."""
    per_pass = len(W.cli_kinds(workload))
    min_passes = 1 if (args.short or trace) else max(MIN_PASSES, math.ceil(MIN_OPS / per_pass))
    ops, wall, npass = [], 0.0, 0
    while True:
        order = W.cli_order(workload, args.seed, npass)
        if args.short:
            order = order[:SHORT_OPS]
        t0 = now()
        for kind in order:
            t = now()
            ms, cpu, ok = run_cli_op(kind, expected)
            ops.append((W.kind_key(*kind), ms, cpu, ok, t))
            ref.sample()
        wall += now() - t0
        npass += 1
        if npass < min_passes:
            continue
        if trace or args.short or wall + (wall / npass) * 0.5 > args.seconds:
            break
    samples, lat_k, cpu_k = [], {}, {}
    for k, ms, cpu, ok, t in ops:
        sw, sc = ref.scale(t)
        samples.append((k, ms, ok, ms * sw))
        lat_k.setdefault(k, []).append(ms * sw)
        cpu_k.setdefault(k, []).append(cpu * sc)
    # a pass at each kind's median, so one op slowed by a neighbour's
    # burst moves its kind's median, not the whole figure
    n_ok = sum(ok for _, _, ok, _ in samples)
    pass_s = sum(statistics.median(v) for v in lat_k.values()) / 1000.0
    ops_per_s = n_ok / len(samples) * len(lat_k) / pass_s
    cpu_ms_per_op = statistics.fmean(statistics.median(v) for v in cpu_k.values())
    return samples, ops_per_s, cpu_ms_per_op


# --- serve_fleet ------------------------------------------------------------


class LineReader:
    """Line reader over a pipe that gives up after LINE_TIMEOUT_S of silence."""

    def __init__(self, f):
        self.fd = f.fileno()
        self.buf = b""
        self.eof = False

    def readline(self):
        deadline = now() + LINE_TIMEOUT_S
        while b"\n" not in self.buf:
            if self.eof:
                line, self.buf = self.buf, b""
                return line.decode(errors="replace") if line else None
            left = deadline - now()
            if left <= 0:
                raise TimeoutError("synth serve printed nothing for %.0f s" % LINE_TIMEOUT_S)
            ready, _, _ = select.select([self.fd], [], [], left)
            if ready:
                chunk = os.read(self.fd, 65536)
                if chunk:
                    self.buf += chunk
                else:
                    self.eof = True
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode(errors="replace")


def start_fleet(fleet_dir):
    """Start `synth serve - --workers FLEET_WORKERS --cache` on an empty
    cache under [fleet_dir] and wait until every worker reports started.
    Returns (process, its stderr reader, seconds to ready)."""
    shutil.rmtree(fleet_dir, ignore_errors=True)
    t0 = now()
    os.makedirs(fleet_dir)
    argv = [W.SYNTH, "serve", "-", "--workers", str(FLEET_WORKERS), "--cache",
            "--cache-dir", os.path.join(fleet_dir, "cache"),
            "--out", os.path.join(fleet_dir, "out"),
            "--journal", os.path.join(fleet_dir, "journal.ndjson")]
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    err = LineReader(proc.stderr)
    try:
        started = 0
        while started < FLEET_WORKERS:
            line = err.readline()
            if line is None:
                raise RuntimeError("synth serve exited during start-up")
            started += bool(STARTED_RE.match(line))
    except BaseException:
        stop(proc)
        raise
    return proc, err, now() - t0


def stop(proc):
    if proc.poll() is None:
        proc.kill()
        proc.wait()


def serve_setup(args, ref):
    """The per-run set-up, timed: load the expected digests and start an
    empty fleet until its workers report started, so fleet spawn cost
    shows here. Repeated SETUP_REPS times, each fleet stopped through
    end of input and followed by a calib run; setup_s is the median at
    reference speed."""
    spans = []
    expected = None
    for _ in range(SETUP_REPS):
        t0 = now()
        expected = load_expected(args.expected)
        proc, err, _ = start_fleet(os.path.join(W.WORK, "serve-setup"))
        spans.append((t0, now() - t0))
        try:
            proc.stdin.close()
            while err.readline() is not None:
                pass
            proc.stdout.read()
            if proc.wait(timeout=LINE_TIMEOUT_S) != 0:
                sys.exit("perfbench: an empty synth serve did not exit cleanly")
        finally:
            stop(proc)
        ref.sample()
    return statistics.median(s * ref.scale(t0)[0] for t0, s in spans), expected


def serve_pass(stream, expected, pass_dir):
    """One fleet: keep FLEET_WORKERS jobs outstanding until the stream is
    done, stop it, check every artifact. Returns (samples, wall_s, ok,
    worker_ms)."""
    proc, err, _ = start_fleet(pass_dir)
    try:
        jobs = [W.serve_job(n, k) for n, k in enumerate(stream)]
        kind_of = {j["id"]: W.kind_key(j["spec"], j["pipeline"], j["flow"]) for j in jobs}
        sent, latency, worker_ms, failed = {}, {}, {}, set()
        nxt = 0
        t0 = now()
        while nxt < len(jobs) or len(latency) + len(failed) < len(jobs):
            while nxt < len(jobs) and len(sent) - len(latency) - len(failed) < FLEET_WORKERS:
                proc.stdin.write((json.dumps(jobs[nxt]) + "\n").encode())
                proc.stdin.flush()
                sent[jobs[nxt]["id"]] = now()
                nxt += 1
                if nxt == len(jobs):
                    proc.stdin.close()
            line = err.readline()
            if line is None:
                break
            m = DONE_RE.match(line)
            if m and m.group(1) in sent and m.group(1) not in latency:
                latency[m.group(1)] = (now() - sent[m.group(1)]) * 1000.0
                worker_ms[m.group(1)] = float(m.group(3))
                continue
            m = FAILED_RE.search(line)
            if m and m.group(1) in sent:
                failed.add(m.group(1))
        wall = now() - t0
        while err.readline() is not None:
            pass
        summary = proc.stdout.read().decode(errors="replace")
        code = proc.wait(timeout=LINE_TIMEOUT_S)
    finally:
        stop(proc)
    samples = []
    for j in jobs:
        jid = j["id"]
        ok = jid in latency and jid not in failed
        if ok:
            try:
                with open(os.path.join(pass_dir, "out", jid + ".out"), "rb") as f:
                    ok = md5(f.read()) == expected["serve"].get(kind_of[jid])
            except OSError:
                ok = False
        samples.append((kind_of[jid], latency.get(jid, 0.0), ok))
    try:
        fleet_ok = code == 0 and json.loads(summary)["completed"] == len(jobs)
    except (ValueError, KeyError):
        fleet_ok = False
    return samples, wall, fleet_ok, worker_ms


def serve_passes(args, expected, trace, ref):
    """Fleets until --seconds is spent, with REF_WINDOW calib runs after
    each, never while a fleet runs. A job's latency is reported as
    measured: most of it is the fleet's timed polling, which does not
    slow with the host. Each pass's CPU time is scaled by the calib runs
    on both sides of it. Returns the samples (kind, ms, ok, ms), ops_per_s,
    cpu_ms_per_op, whether every fleet ended cleanly, and the
    worker-reported job times."""
    samples, fleet_ok, worker_ms = [], True, []
    wall, cpu_ms, npass = 0.0, 0.0, 0
    while True:
        stream = W.serve_stream(args.seed, npass)
        if args.short:
            stream = stream[:2 * SHORT_OPS]
        c0, t0 = children_cpu_s(), now()
        smp, w, ok, wms = serve_pass(stream, expected, os.path.join(W.WORK, "serve"))
        c1, t1 = children_cpu_s(), now()
        for _ in range(REF_WINDOW):
            ref.sample()
        cpu_ms += (c1 - c0) * 1000.0 * ref.scale(t0, t1)[1]
        samples += [(k, ms, ok, ms) for k, ms, ok in smp]
        wall += w
        fleet_ok = fleet_ok and ok
        worker_ms += list(wms.values())
        npass += 1
        if trace or args.short or wall + (wall / npass) * 0.5 > args.seconds:
            break
    n_ok = sum(ok for _, _, ok, _ in samples)
    return samples, n_ok / wall, cpu_ms / len(samples), fleet_ok, worker_ms


# --- metrics ---------------------------------------------------------------


def end_to_end(setup_s, samples, ops_per_s, cpu_ms_per_op):
    """The six end-to-end metrics; every latency is at reference speed.
    The quantiles are over the op kinds' median latencies: a pass runs
    every kind, so they are the quantiles of a pass at typical speed, and
    an op slowed by a neighbour's burst moves only its kind's median."""
    by_kind = {}
    for k, _, ok, n in samples:
        if ok:
            by_kind.setdefault(k, []).append(n)
    if not by_kind:
        for k, _, _, n in samples:
            by_kind.setdefault(k, []).append(n)
    medians = [statistics.median(v) for v in by_kind.values()]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s, "ops/s"),
        "op_p50_ms": (hd_quantile(medians, 0.5), "ms"),
        "op_p90_ms": (hd_quantile(medians, 0.9), "ms"),
        "op_geomean_ms": (geomean(medians), "ms"),
        "cpu_ms_per_op": (cpu_ms_per_op, "ms"),
    }


def kind_rows(samples):
    """One row per op kind: n, and the quartiles at reference speed and
    the median as measured."""
    by_kind = {}
    for k, ms, _, n in samples:
        by_kind.setdefault(k, []).append((ms, n))
    rows = []
    for k in sorted(by_kind):
        q1, med, q3 = quartiles([n for _, n in by_kind[k]])
        design, cmd, flow = k.split("|")
        rows.append({"design": design, "command": cmd, "flow": flow, "n": len(by_kind[k]),
                     "median_ms": med, "q1_ms": q1, "q3_ms": q3,
                     "measured_median_ms": statistics.median(ms for ms, _ in by_kind[k])})
    return rows


# --- traced run --------------------------------------------------------------


def tracer_ops(workload, args):
    if workload == "serve_fleet":
        stream = W.serve_stream(args.seed, 0)
        if args.short:
            stream = stream[:2 * SHORT_OPS]
        return [{"job": W.serve_job(n, k)} for n, k in enumerate(stream)]
    order = W.cli_order(workload, args.seed, 0)
    if args.short:
        order = order[:SHORT_OPS]
    return [{"cmd": c, "design": d, "flow": f} for d, c, f in order]


def run_tracers(mode, ops, tags, jobs=None):
    """Run tracer.exe [mode] over [ops] once per tag, all at the same time
    (only the counting runs, whose results do not depend on timing, ask
    for more than one). Returns [(lines or None, wall_s)] per tag."""
    env = dict(os.environ)
    if jobs is not None:
        env["BISTPATH_JOBS"] = str(jobs)
    runs = []
    for tag in tags:
        base = os.path.join(W.WORK, "trace-" + tag)
        shutil.rmtree(base, ignore_errors=True)
        os.makedirs(base)
        ops_file = os.path.join(base, "ops.json")
        with open(ops_file, "w") as f:
            json.dump(ops, f)
        out_file = os.path.join(base, "out.ndjson")
        argv = [W.TRACER, mode, ops_file, out_file, os.path.join(base, "work")]
        runs.append((out_file, subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                                                stderr=subprocess.PIPE, env=env), now()))
    results = []
    for out_file, proc, t0 in runs:
        err = proc.communicate()[1]
        wall = now() - t0
        if proc.returncode != 0:
            sys.stderr.write(err.decode(errors="replace"))
            results.append((None, wall))
            continue
        with open(out_file) as f:
            results.append(([json.loads(line) for line in f], wall))
    return results


# tracer layer name -> per-layer metric name
LAYER_METRIC = {
    "dfg.load": "dfg.load_ms", "regalloc": "regalloc.ms", "interconnect": "interconnect.ms",
    "control": "control.ms", "bist.solve": "bist.solve_ms", "sessions": "sessions.ms",
    "pareto": "pareto.ms", "rtl.emit": "rtl.emit_ms", "rtl.equiv": "rtl.equiv_ms",
    "rtl.parse": "rtl.parse_ms", "check.run": "check.run_ms", "check.ctx": "check.ctx_ms",
    "check.alloc": "check.alloc_ms", "check.datapath": "check.datapath_ms",
    "check.rtl": "check.rtl_ms", "check.equiv": "check.equiv_ms",
    "check.absint": "check.absint_ms", "absint.solve": "absint.solve_ms",
    "absint.narrow": "absint.narrow_ms", "gatelevel.coverage": "gatelevel.coverage_ms",
    "lease.claim": "lease.claim_ms", "runner.job": "runner.job_ms",
}
COUNTERS = ["regalloc.sd_evals", "regalloc.steps", "interconnect.orientations",
            "bist.embeddings_explored", "absint.iterations", "bist_sim.faults",
            "bist_sim.patterns"]


def per_layer(workload, traced, counts, counts2, plain, plain_wall, traced_wall,
              cli_samples, worker_ms, expected):
    """Per-layer metrics of one traced replay, plus its checks: output
    digests, layer accounting and count determinism. [traced] gives the
    times; [counts] and [counts2], two replays on the sequential path
    (BISTPATH_JOBS=1), give the work counts and GC words, which must
    agree exactly; [plain], the same replay untraced, is the in-process
    side of process.overhead_ms. Returns (metrics, failed_ops, problems, kind_detail)."""
    recs, top = traced[:-1], counts[-1]
    crecs = counts[:-1]
    n = len(recs)
    problems = []
    failed = 0
    for rec in recs + crecs + plain[:-1]:
        key = rec["kind"]
        if workload == "serve_fleet":
            ok = rec["exit"] == 0 and rec["digest"] == expected["serve"].get(key)
        else:
            ok = {"md5": rec["digest"], "exit": rec["exit"]} == expected["cli"].get(key)
        if not ok:
            failed += 1
            problems.append("in-process output differs from the CLI's: " + key)
    for rec in recs:
        rem = rec["ms"] - sum(rec["layers"].values())
        if rem < 0:
            problems.append("layers exceed op time: " + rec["kind"])
        rec["unattributed"] = rem
    if counts2 is None or len(counts2) != len(counts):
        problems.append("second counting run failed")
    else:
        for a, b in zip(crecs, counts2[:-1]):
            if (a["counters"], a["alloc_w"], a["words"]) != (b["counters"], b["alloc_w"], b["words"]):
                problems.append("work counts differ between two traced runs: " + a["kind"])

    def total(field, name, rs=recs):
        return sum(r[field].get(name, 0.0) for r in rs)

    m = {}
    for layer, metric in LAYER_METRIC.items():
        m[metric] = (total("layers", layer) + total("shares", layer)) / n
    for c in COUNTERS:
        m[c] = total("counters", c, crecs)
    appends = 3 * n if workload == "serve_fleet" else 0
    m["journal.append_ms"] = total("layers", "journal.append") / appends if appends else 0.0
    m["journal.appends_per_job"] = appends / n
    finds = sum(1 for r in recs if "cache.find" in r["shares"])
    puts = sum(1 for r in recs if "cache.put" in r["shares"])
    m["cache.find_ms"] = total("shares", "cache.find") / finds if finds else 0.0
    m["cache.put_ms"] = total("shares", "cache.put") / puts if puts else 0.0
    hits, misses = total("counters", "cache.hit", crecs), total("counters", "cache.miss", crecs)
    m["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    units = total("counters", "bist.units", crecs)
    explored = m["bist.embeddings_explored"]
    m["bist.useful_ratio"] = units / explored if explored else 0.0
    busy, idle = total("timing", "parallel.busy_ns") / 1e6, total("timing", "parallel.idle_ns") / 1e6
    m["parallel.busy_ms"] = busy / n
    m["parallel.idle_ms"] = idle / n
    m["parallel.busy_ratio"] = busy / (busy + idle) if busy + idle else 0.0
    m["regalloc.alloc_mw"] = total("words", "regalloc", crecs) / 1e6
    m["gc.alloc_mw"] = sum(r["alloc_w"] for r in crecs) / 1e6
    m["gc.top_heap_mb"] = top["top_heap_words"] * 8 / 1e6
    inproc = sum(r["ms"] for r in recs) / n
    m["inproc.op_ms"] = inproc
    m["unattributed_ms"] = sum(r["unattributed"] for r in recs) / n
    cli_mean = statistics.fmean(ms for _, ms, _, _ in cli_samples)
    m["process.overhead_ms"] = cli_mean - statistics.fmean(r["ms"] for r in plain[:-1])
    m["trace.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1.0) if plain_wall else 0.0
    if workload == "serve_fleet":
        m["fleet.overhead_ms"] = cli_mean - m["runner.job_ms"]
        # the fleet's own view: latency minus the worker-reported job time
        m["serve.queue_wait_ms"] = cli_mean - statistics.fmean(worker_ms) if worker_ms else 0.0
    else:
        m["fleet.overhead_ms"] = 0.0
        m["serve.queue_wait_ms"] = 0.0

    detail = {}
    for r in recs:
        d = detail.setdefault(r["kind"], {"n": 0, "ms": 0.0, "unattributed_ms": 0.0, "layers": {}})
        d["n"] += 1
        d["ms"] += r["ms"]
        d["unattributed_ms"] += r["unattributed"]
        for k, v in r["layers"].items():
            d["layers"][k] = d["layers"].get(k, 0.0) + v
    for k, d in detail.items():
        flow_ms = sum(d["layers"].get(x, 0.0) for x in ("regalloc", "interconnect",
                                                          "bist.solve", "sessions"))
        d["regalloc_share_of_flow"] = d["layers"].get("regalloc", 0.0) / flow_ms if flow_ms else 0.0
    return m, failed, problems, detail


# per-layer metrics that synth_cold's traced run takes from a serve pass
SERVE_LAYERS = ["cache.find_ms", "cache.put_ms", "cache.hit_ratio", "journal.append_ms",
                "journal.appends_per_job", "lease.claim_ms", "runner.job_ms",
                "serve.queue_wait_ms", "fleet.overhead_ms"]


def traced_layers(workload, ops, samples, worker_ms, expected):
    """Replay [ops] in process four times (traced, counts x2, plain) and
    derive the per-layer metrics. Returns (metrics, failed_ops, problems,
    kind_detail); the metrics are empty if a tracer run failed."""
    [(traced, traced_wall)] = run_tracers("traced", ops, ["timed"])
    [(counts, _), (counts2, _)] = run_tracers("counts", ops, ["counts1", "counts2"], jobs=1)
    [(plain, plain_wall)] = run_tracers("plain", ops, ["plain"])
    if traced is None or counts is None or plain is None:
        return {}, 0, ["tracer failed"], {}
    return per_layer(workload, traced, counts, counts2, plain, plain_wall, traced_wall,
                     samples, worker_ms, expected)


# --- main --------------------------------------------------------------------


def load_spec():
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                           "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="a few ops of one pass (smoke test; figures are meaningless)")
    ap.add_argument("--expected", default=W.EXPECTED,
                    help="expected-digest file (tests point this at a corrupted copy)")
    args = ap.parse_args()

    build()
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workload = args.workload
    trace = args.trace == 1

    ref = Reference(REF_DOMAINS.get(workload, 1))
    ref.warm_up()
    # set-up runs no pool, so a one-domain reference scales it
    setup_ref = Reference(1)
    setup_ref.warm_up()
    if workload == "serve_fleet":
        setup_s, expected = serve_setup(args, setup_ref)
        samples, ops_per_s, cpu_ms_per_op, fleet_ok, worker_ms = serve_passes(
            args, expected, trace, ref)
    else:
        setup_s, expected = cli_setup(args, workload, setup_ref)
        samples, ops_per_s, cpu_ms_per_op = cli_passes(args, workload, expected, trace, ref)
        fleet_ok, worker_ms = True, []
    e2e = end_to_end(setup_s, samples, ops_per_s, cpu_ms_per_op)
    failed = sum(not ok for _, _, ok, _ in samples)
    attempted = len(samples)
    problems = [] if fleet_ok else ["synth serve did not complete every job cleanly"]
    problems += ["output mismatch: %s" % k for k, _, ok, _ in samples if not ok][:10]
    detail = {"workload": workload, "environment": environment(args.seed),
              "reference": ref.summary(), "ops": attempted,
              "summary": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
              "kinds": kind_rows(samples),
              "samples": [[k, ms, n] for k, ms, _, n in samples]}

    if trace:
        ops = tracer_ops(workload, args)
        metrics_out, tfailed, tproblems, tdetail = traced_layers(
            workload, ops, samples, worker_ms, expected)
        failed += tfailed
        attempted += 3 * len(ops)
        problems += tproblems
        if workload == "synth_cold":
            # the service and cache layers, from one serve_fleet pass
            # and its replay (serve_fleet is not timed end to end)
            ssamples, _, _, sfleet_ok, sworker_ms = serve_passes(args, expected, True, ref)
            sops = tracer_ops("serve_fleet", args)
            sm, sfailed, sproblems, sdetail = traced_layers(
                "serve_fleet", sops, ssamples, sworker_ms, expected)
            metrics_out.update((k, sm[k]) for k in SERVE_LAYERS if k in sm)
            tdetail.update(sdetail)
            failed += sfailed + sum(not ok for _, _, ok, _ in ssamples)
            attempted += len(ssamples) + 3 * len(sops)
            problems += sproblems
            if not sfleet_ok:
                problems.append("synth serve did not complete every job cleanly")
        detail["per_layer"] = metrics_out
        detail["traced_kinds"] = tdetail
        result_metrics = {k: {"value": metrics_out.get(k, 0.0), "unit": units[k]}
                          for k in (x["name"] for x in spec["per_layer"])}
    else:
        result_metrics = {k: {"value": e2e[k][0], "unit": units[k]}
                          for k in (x["name"] for x in spec["end_to_end"])}

    detail["directions"] = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    detail["problems"] = problems
    os.makedirs(W.WORK, exist_ok=True)
    with open(os.path.join(W.WORK, "detail-%s-%d-trace%d.json" % (workload, args.seed, args.trace)),
              "w") as f:
        json.dump(detail, f, indent=1)

    print_table(detail, result_metrics)
    for p in problems:
        print("problem: " + p)
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))


def print_table(detail, metrics):
    env = detail["environment"]
    print("perfbench %s  seed=%s nproc=%s commit=%s ocaml=%s" % (
        detail["workload"], env["seed"], env["nproc"], env["commit"], env["ocaml"]))
    for k, v in metrics.items():
        print("  %-26s %14.4f %s" % (k, v["value"], v["unit"]))
    ref = detail["reference"]
    print("  calib.exe: %d runs, median %.3f ms wall, %.3f ms CPU (reference speed: %.1f, %.1f)"
          % (ref["runs"], ref["wall_ms_median"], ref["cpu_ms_median"], ref["ref_ms"],
             ref["ref_cpu_ms"]))
    print("  %-34s %-12s %-11s %4s %9s %9s %9s %9s" % ("design", "command", "flow", "n",
                                                       "q1_ms", "median", "q3_ms", "measured"))
    for r in detail["kinds"]:
        print("  %-34s %-12s %-11s %4d %9.2f %9.2f %9.2f %9.2f" % (
            r["design"], r["command"], r["flow"], r["n"], r["q1_ms"], r["median_ms"], r["q3_ms"],
            r["measured_median_ms"]))
    if "traced_kinds" in detail:
        print("  in-process, per kind: %-20s %9s %9s %9s  top layer" % (
            "", "op_ms", "unattr", "ra/flow"))
        for k, d in sorted(detail["traced_kinds"].items()):
            top = max(d["layers"].items(), key=lambda x: x[1], default=("-", 0.0))
            print("  %-42s %9.2f %9.2f %9.3f  %s %.2f" % (
                k, d["ms"] / d["n"], d["unattributed_ms"] / d["n"],
                d["regalloc_share_of_flow"], top[0], top[1] / d["n"]))


if __name__ == "__main__":
    main()
