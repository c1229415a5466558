#!/usr/bin/env python3
"""Build and run the repository benchmark (see hrtbench/README.md).

    python3 hrtbench/run.py [--workload W]... [--seed N] [--seconds S]
                            [--trace 0|1] [--quick] [--json OUT]
                            [--trace-out FILE]
    python3 hrtbench/run.py compare --parent A.json... --change B.json...
    python3 hrtbench/run.py smoke

Run from the root of a source tree. The benchmark is built from source
into .bench_build/, and each workload runs in a fresh process of its own.
Every metric is printed as `<workload> <metric> <value> <unit>`; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ["serve-warm", "serve-mixed", "sim-missrate", "sim-bsp"]
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "hrtbench", "hrtbench.exe")
SOURCES = ["dune-project", "lib/serve/server.ml", "hrtbench/hrtbench.ml"]
CHILD_TIMEOUT_S = 170

_live_group = None


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def stop_group(pgid):
    """Kill every process of a workload's process group and wait for them
    to be gone (the daemon is in the same group as its parent)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def on_signal(signum, _frame):
    if _live_group is not None:
        stop_group(_live_group)
    sys.exit(128 + signum)


def build():
    for path in SOURCES:
        if not os.path.isfile(path):
            fail(f"{path} not found: run from the root of the source tree")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "./hrtbench/hrtbench.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def run_workload(workload, args):
    """One workload in a fresh process group; returns its result object."""
    global _live_group
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    if args.trace_out:
        cmd += ["--trace-out", args.trace_out]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    _live_group = proc.pid
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail(f"{workload}: timed out after {CHILD_TIMEOUT_S} s")
    finally:
        stop_group(proc.pid)
        _live_group = None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: no result line")


def run(args):
    build()
    results = {}
    for w in args.workload or WORKLOADS:
        r = run_workload(w, args)
        results[w] = r
        for name, m in r["metrics"].items():
            print(f"{w} {name} {m['value']} {m['unit']}")
        for key, value in r.get("notes", {}).items():
            print(f"# {w} {key} {value}")
        print(f"# {w} correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}")
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "quick": args.quick,
                       "workloads": results}, f, indent=1)
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items()
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))


def load_spec():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """The rules of a gain or regression claim: at least 10 pairs; a gain
    needs wins in at least 9/10 of the pairs and a median difference
    larger than the parent's interquartile range; a regression is a
    median worse by more than the bound (a share of the parent median)."""
    n = min(len(parent), len(change))
    sign = 1 if better == "higher" else -1
    gain = [sign * (c - p) for p, c in zip(parent, change)]
    wins = sum(1 for g in gain if g > 0)
    losses = sum(1 for g in gain if g < 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    iqr = p3 - p1
    delta = sign * (cm - pm)
    share = wins / n if n else 0.0
    if n < 10:
        return "unresolved", share
    if bound is not None and pm != 0 and -delta / abs(pm) > bound:
        return "regressed", share
    if wins >= 0.9 * n and delta > iqr:
        return "improved", share
    if bound is None:
        if losses >= 0.9 * n and -delta > iqr:
            return "regressed", share
        return "unchanged", share
    spread = iqr / abs(pm) if pm else 0.0
    better_all = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not better_all:
        return "unresolved", share
    return "unchanged", share


def compare(args):
    spec = load_spec()

    def collect(paths):
        runs = [json.load(open(p))["workloads"] for p in paths]
        values = {}
        for r in runs:
            for w, res in r.items():
                for name, m in res["metrics"].items():
                    values.setdefault((w, name), []).append(m["value"])
        return values

    parent, change = collect(args.parent), collect(args.change)
    print(f"{'workload':13} {'metric':30} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'won':>5}  verdict")
    for key in sorted(parent):
        if key not in change or key[1] not in spec:
            continue
        m = spec[key[1]]
        p, c = parent[key], change[key]
        v, share = verdict(p, c, m["better"], m.get("bound"))
        fmt = "{:.4g}/{:.4g}/{:.4g}"
        print(f"{key[0]:13} {key[1]:30} {fmt.format(*quartiles(p)):>30} "
              f"{fmt.format(*quartiles(c)):>30} {share:5.0%}  {v}")


def smoke(_args):
    """CI smoke: every workload at --quick, untraced and traced. Each must
    finish, report every metric BENCHMARK.json lists, and fail nothing."""
    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "..", "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    build()
    problems = []
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        ns = argparse.Namespace(seed=42, seconds=1, trace=trace, quick=True,
                                trace_out=None)
        for w in WORKLOADS:
            r = run_workload(w, ns)
            missing = [m["name"] for m in listed if m["name"] not in r["metrics"]]
            if missing:
                problems.append(f"{w} trace={trace}: missing {missing}")
            if not r["correct"] or r["failed"] != 0:
                problems.append(f"{w} trace={trace}: failed {r['failed']} "
                                f"of {r['attempted']}")
            print(f"smoke {w} trace={trace}: {len(r['metrics'])} metrics, "
                  f"failed_ratio {r['failed'] / r['attempted']:g}")
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    sys.exit(1 if problems else 0)


def main():
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        ap = argparse.ArgumentParser(prog="run.py compare")
        ap.add_argument("--parent", nargs="+", required=True)
        ap.add_argument("--change", nargs="+", required=True)
        compare(ap.parse_args(argv[1:]))
    elif argv[:1] == ["smoke"]:
        smoke(None)
    else:
        ap = argparse.ArgumentParser(prog="run.py")
        ap.add_argument("--workload", action="append", choices=WORKLOADS)
        ap.add_argument("--seed", type=int, default=42)
        ap.add_argument("--seconds", type=int, default=20)
        ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
        ap.add_argument("--quick", action="store_true")
        ap.add_argument("--json")
        ap.add_argument("--trace-out")
        run(ap.parse_args(argv))


if __name__ == "__main__":
    main()
