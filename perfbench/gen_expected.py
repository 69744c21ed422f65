#!/usr/bin/env python3
"""Regenerate perfbench/expected.json: one digest per op kind.

Run from the repository root after `dune build`:

    python3 perfbench/gen_expected.py

CLI kinds (synth_cold, analysis) record the MD5 of the command's stdout
and its exit code; serve kinds record the MD5 of the job's result file
from an in-process, uncached `synth serve`. Before writing anything the
script cross-checks the build it digests:

- every design verifies against the committed goldens
  (`synth verify DESIGN --golden golden`, both flows);
- every Table I design's `run` report carries the register, mux and
  BIST-overhead figures `synth tables` prints for it;
- every serve `run` artifact equals the CLI `run` stdout of the kind.

A failed cross-check aborts without touching expected.json.
"""

import sys

sys.dont_write_bytecode = True

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads as W  # noqa: E402


def synth(*argv):
    return subprocess.run([W.SYNTH] + list(argv), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)


def fail(msg):
    sys.exit("gen_expected: " + msg)


def check_goldens():
    for d in W.DESIGNS:
        r = synth("verify", d, "--golden", "golden")
        if r.returncode != 0:
            fail("%s drifts from golden/: %s" % (d, r.stdout.decode()))


def table1():
    """{tag: {flow: (regs, muxes, bist%)}} from `synth tables`."""
    rows = {}
    for line in synth("tables").stdout.decode().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) >= 9 and cells[0] in W.TAGS:
            # the module-assignment cell may itself hold a '|' (OR unit)
            n = cells[-7:]
            rows[cells[0]] = {
                "traditional": (int(n[0]), int(n[1]), n[2]),
                "testable": (int(n[3]), int(n[4]), n[5]),
            }
    if len(rows) < 5:
        fail("could not read Table I from `synth tables`")
    return rows


RUN_RE = re.compile(r"^(testable|traditional) flow: (\d+) registers, (\d+) muxes, "
                    r"BIST overhead ([0-9.]+)%", re.M)


def cli_digests(table):
    out = {}
    kinds = sorted(set(W.cli_kinds("synth_cold") + W.cli_kinds("analysis")))
    for d, c, f in kinds:
        r = synth(*W.cli_argv(d, c, f))
        out[W.kind_key(d, c, f)] = {"md5": hashlib.md5(r.stdout).hexdigest(),
                                    "exit": r.returncode}
        if r.returncode != 0:
            fail("%s exits %d" % (W.kind_key(d, c, f), r.returncode))
        if c == "run" and d in table:
            m = RUN_RE.search(r.stdout.decode())
            got = (int(m.group(2)), int(m.group(3)), m.group(4)) if m else None
            if got != table[d][f]:
                fail("%s reports %s, Table I says %s" % (W.kind_key(d, c, f), got, table[d][f]))
    return out


def serve_digests(cli):
    spool = os.path.join(W.WORK, "gen-serve")
    shutil.rmtree(spool, ignore_errors=True)
    os.makedirs(spool)
    jobs = [W.serve_job(n, k) for n, k in enumerate(W.serve_kinds())]
    with open(os.path.join(spool, "jobs.ndjson"), "w") as f:
        for j in jobs:
            f.write(json.dumps(j) + "\n")
    r = synth("serve", spool, "--quiet")
    if r.returncode != 0:
        fail("in-process serve failed: " + r.stderr.decode())
    out = {}
    for j in jobs:
        with open(os.path.join(spool, "results", j["id"] + ".out"), "rb") as f:
            data = f.read()
        key = W.kind_key(j["spec"], j["pipeline"], j["flow"])
        out[key] = hashlib.md5(data).hexdigest()
        if j["pipeline"] == "run" and out[key] != cli[W.kind_key(j["spec"], "run", j["flow"])]["md5"]:
            fail("serve run artifact differs from CLI run stdout: " + key)
    shutil.rmtree(spool)
    return out


def main():
    if not os.path.isfile(W.SYNTH):
        fail("build first: dune build ./bin/synth.exe")
    check_goldens()
    cli = cli_digests(table1())
    serve = serve_digests(cli)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                            text=True).stdout.strip()
    with open(W.EXPECTED, "w") as f:
        json.dump({"generated_at": commit, "cli": cli, "serve": serve}, f, indent=1,
                  sort_keys=True)
        f.write("\n")
    print("wrote %s: %d CLI kinds, %d serve kinds" % (W.EXPECTED, len(cli), len(serve)))


if __name__ == "__main__":
    main()
