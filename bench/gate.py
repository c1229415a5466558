#!/usr/bin/env python3
"""Per-layer regression gate over hrtbench runs.

    python3 bench/gate.py BASELINE RUN.json...

BASELINE (bench/baseline.json) maps workload -> metric -> baseline value;
each RUN.json is written by `python3 hrtbench/run.py --json`. For every
baseline metric the gate takes the best value over the runs, since
interference only ever slows a run, and fails the metric when that best
is worse than the baseline by more than 20 % as a rate: above
baseline / 0.8 when lower is better, below baseline * 0.8 when higher is
better (directions from BENCHMARK.json). Prints one line per metric and
exits 2 if any metric failed or is missing from every run.
"""

import json
import os
import sys

RATE = 0.8


def load(path):
    with open(path) as f:
        return json.load(f)


def main(baseline_path, *run_paths):
    spec = load(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "..", "BENCHMARK.json"))
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    runs = [load(p)["workloads"] for p in run_paths]
    failed = False
    for workload, metrics in load(baseline_path).items():
        for name, base in metrics.items():
            higher = better[name] == "higher"
            got = (r.get(workload, {}).get("metrics", {}).get(name, {})
                   .get("value") for r in runs)
            values = [v for v in got if v is not None]
            bound = base * RATE if higher else base / RATE
            best = (max if higher else min)(values) if values else None
            ok = best is not None and (best >= bound if higher
                                       else best <= bound)
            failed |= not ok
            shown = "missing" if best is None else f"{best:.4g}"
            print(f"{workload} {name} best={shown} baseline={base:.4g} "
                  f"bound={bound:.4g} {'ok' if ok else 'FAIL'}")
    sys.exit(2 if failed else 0)


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit("usage: gate.py BASELINE RUN.json...")
    main(*sys.argv[1:])
