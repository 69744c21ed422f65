"""Workload definitions shared by run.py, gen_expected.py and the tests.

An op kind is (design, command or pipeline, flow); its key is the string
"design|command|flow", the same key tracer.exe prints. Every list here is
fixed, so the inputs depend only on the seed, never on directory contents.
"""

import random

SYNTH = "_build/default/bin/synth.exe"
TRACER = "_build/default/perfbench/tracer/tracer.exe"
CALIB = "_build/default/perfbench/calib/calib.exe"
EXPECTED = "perfbench/expected.json"
WORK = "perfbench/_work"

TAGS = ["ex1", "ex2", "Tseng1", "Tseng2", "Paulin", "fir8", "iir", "ewf", "ar", "dct4"]
DATA = ["Paulin", "Tseng1", "ar", "clip8", "cmp4", "dct4", "ewf", "ex1", "ex2",
        "fir32", "fir8", "iir", "minmax4"]
DESIGNS = TAGS + ["data/%s.dfg" % n for n in DATA]
# fir32 would hold one fleet worker for seconds; serve traffic is small jobs
SERVE_DESIGNS = [d for d in DESIGNS if d != "data/fir32.dfg"]
FLOWS = ["testable", "traditional"]
SERVE_PIPELINES = ["run", "rtl", "verify", "check"]

WORKLOADS = ["synth_cold", "analysis", "serve_fleet"]


def kind_key(design, cmd, flow):
    return "%s|%s|%s" % (design, cmd, flow)


def cli_kinds(workload):
    """(design, cmd, flow) triples of one pass of a CLI workload."""
    if workload == "synth_cold":
        return [(d, c, f) for d in DESIGNS for c in ("run", "rtl-verify") for f in FLOWS]
    if workload == "analysis":
        return [(d, c, f) for d in DESIGNS
                for c, f in (("check", "both"), ("analyze", "both"),
                             ("pareto", "testable"), ("coverage", "testable"))]
    raise ValueError(workload)


def serve_kinds():
    return [(d, p, f) for d in SERVE_DESIGNS for p in SERVE_PIPELINES for f in FLOWS]


def cli_argv(design, cmd, flow):
    """The synth arguments of one CLI op kind."""
    return {
        "run": ["run", design, "--flow", flow, "--no-cache"],
        "rtl-verify": ["rtl", design, "--verify", "--flow", flow, "--no-cache"],
        "check": ["check", design, "--flow", "both"],
        "analyze": ["analyze", design],
        "pareto": ["pareto", design, "--no-cache"],
        "coverage": ["coverage", design],
    }[cmd]


def cli_order(workload, seed, npass):
    """Pass [npass] of a CLI workload: every kind once, in seeded order."""
    kinds = cli_kinds(workload)
    random.Random("%s:%d:%d" % (workload, seed, npass)).shuffle(kinds)
    return kinds


def serve_stream(seed, npass):
    """Pass [npass] of serve_fleet: every serve kind once in seeded order,
    plus one repeat per (design, pipeline), so a third of the jobs repeat
    an earlier (spec, pipeline, flow). The repeated flow is seeded and
    alternates between passes, so over two passes every kind is repeated
    once: a kind's median then does not depend on how many of its samples
    were cache hits. A repeat is placed at least two jobs after its first
    occurrence, when that one is usually done, so run/rtl repeats hit."""
    rng = random.Random("serve_fleet:%d:%d" % (seed, npass))
    flip = random.Random("serve_fleet:%d" % seed)
    kinds = serve_kinds()
    rng.shuffle(kinds)
    first = {k: i for i, k in enumerate(kinds)}
    keyed = [(float(i), k) for i, k in enumerate(kinds)]
    for d in SERVE_DESIGNS:
        for p in SERVE_PIPELINES:
            k = (d, p, FLOWS[(flip.randrange(2) + npass) % 2])
            lo = first[k] + 2
            keyed.append((rng.uniform(lo, max(lo, len(kinds))) + 0.5, k))
    keyed.sort(key=lambda x: x[0])
    return [k for _, k in keyed]


def serve_job(n, kind):
    design, pipeline, flow = kind
    return {"id": "j%04d" % n, "spec": design, "pipeline": pipeline, "flow": flow}
