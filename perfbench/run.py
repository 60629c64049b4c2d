#!/usr/bin/env python3
"""Build and run the two-clock benchmark from the root of a checkout.

    python3 perfbench/run.py --workload phoronix --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --check --seconds 0   # same-seed, traced and other-seed reruns

The program is built with dune inside the checkout (`_build/`, no shared
dune cache) and run as a single process.  Its last line of output is one
JSON object; this wrapper checks that the metric names in it are exactly
the ones BENCHMARK.json lists for the mode, and prints it again as the
last line.  Spans of a traced run go to perfbench/_out/.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = "perfbench"
EXE = os.path.join("_build", "default", BENCH_DIR, "main.exe")
OUT_DIR = os.path.join(BENCH_DIR, "_out")
WORKLOADS = ["phoronix", "attach-churn", "registry"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def child_env():
    env = dict(os.environ)
    # keep every write inside the checkout, and GC settings at defaults
    env["DUNE_CACHE"] = "disabled"
    env["OCAMLRUNPARAM"] = "b"
    return env


def build():
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./" + BENCH_DIR + "/main.exe"],
            cwd=ROOT, env=child_env(), stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if r.returncode != 0:
        sys.exit("perfbench: build failed (dune exit %d)" % r.returncode)


def run(workload, seed, seconds, trace):
    """Run the program once; return (stdout lines, parsed last line)."""
    args = [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        args += ["--trace-file",
                 os.path.join(OUT_DIR, "trace-%s-%d.jsonl" % (workload, seed))]
    try:
        r = subprocess.run(args, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        sys.exit("perfbench: %s exited %d" % (workload, r.returncode))
    return lines, json.loads(lines[-1])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def measure(a):
    lines, result = run(a.workload, a.seed, a.seconds, a.trace)
    want = expected_metrics(a.trace)
    got = list(result["metrics"])
    if sorted(got) != sorted(want):
        sys.stderr.write("missing %s, unexpected %s\n"
                         % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
        sys.exit("perfbench: metric names differ from BENCHMARK.json")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


def field(lines, prefix):
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    sys.exit("perfbench: no %r line in the output" % prefix)


def check(a):
    """Seed and determinism check, and tracing invariance, across processes."""
    ok = True
    for w in [a.workload] if a.workload else WORKLOADS:
        base, _ = run(w, a.seed, a.seconds, 0)
        again, _ = run(w, a.seed, a.seconds, 0)
        traced, _ = run(w, a.seed, a.seconds, 1)
        other, _ = run(w, a.seed + 1, a.seconds, 0)
        virt = lambda ls: json.loads(field(ls, "virtual:"))
        digest = lambda ls: field(ls, "virtual digest:")
        gc = lambda ls: field(ls, "gc words (pass 0 timed phase):")
        results = [
            ("same seed: virtual metrics identical", virt(base) == virt(again)),
            ("same seed: registry digest identical", digest(base) == digest(again)),
            ("same seed: timed-phase GC words identical", gc(base) == gc(again)),
            ("traced run: virtual metrics identical", virt(base) == virt(traced)),
            ("traced run: registry digest identical", digest(base) == digest(traced)),
            ("other seed: a virtual metric changes", virt(base) != virt(other)),
        ]
        for name, passed in results:
            print("%-13s %-45s %s" % (w, name, "ok" if passed else "FAILED"))
            ok = ok and passed
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--check", action="store_true",
                   help="rerun each workload: same seed, traced, and another seed")
    a = p.parse_args()
    if not a.check and a.workload is None:
        p.error("--workload is required")
    build()
    if a.check:
        check(a)
    else:
        measure(a)


if __name__ == "__main__":
    main()
