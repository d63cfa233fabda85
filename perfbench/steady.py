"""Steadiness mode: repeat benchmark runs and report each metric's
median and spread.

    python3 perfbench/steady.py --runs 10                 # gated workloads
    python3 perfbench/steady.py --workloads serve-mixed --runs 5
    python3 perfbench/steady.py --runs 10 --compare .perfbench/steady-A.json

Run k uses the k-th development seed of ``spec.json`` (``--held-out``
uses the held-out seed for every run instead).  For every end-to-end
metric it prints the median, the quartiles and the interquartile range
as a share of the median, next to the metric's bound from
BENCHMARK.json: a spread above the bound means the metric cannot
resolve a change of that size (``setup_s`` is reported but exempt).
``--compare`` checks each median against an earlier steady file and
flags any metric worse by more than its bound.  Writes
``.perfbench/steady-<time>.json``; exits 1 on an incorrect run, a spread
above its bound or a regression beyond its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from common import ROOT, WORK, fingerprint, iqr_share, load_spec


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{out.returncode}: {out.stderr[-2000:]}")
    return json.loads(lines[-1])


def worse_by(metric: dict, old: float, new: float) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    if not old:
        return 0.0
    change = (new - old) / abs(old)
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-out", action="store_true")
    ap.add_argument("--compare", metavar="STEADY_JSON")
    args = ap.parse_args(argv)
    spec = load_spec()
    seeds = ([spec["seeds"]["held_out"]] * args.runs if args.held_out
             else spec["seeds"]["development"][:args.runs])
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    previous = None
    if args.compare:
        with open(args.compare) as f:
            previous = json.load(f)["workloads"]

    report = {"schema": "perfbench-steady/v1", "seconds": args.seconds,
              "trace": args.trace, "seeds": seeds,
              "fingerprint": fingerprint(seeds[0], os.getloadavg()),
              "workloads": {}}
    problems = []
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            t0 = time.monotonic()
            line = one_run(workload, seed, args.seconds, args.trace)
            print(f"{workload} seed {seed}: {line['attempted']} ops, "
                  f"{line['failed']} failed, "
                  f"{time.monotonic() - t0:.0f}s", file=sys.stderr)
            if not line["correct"]:
                problems.append(f"{workload} seed {seed}: incorrect")
            runs.append(line)
        summary = {}
        print(f"\n{workload}  ({len(runs)} runs)")
        print(f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'bound':>6}")
        for m in declared:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (values[0],) * 3)
            med = statistics.median(values)
            spread = iqr_share(values)
            bound = m.get("bound")
            summary[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                  "iqr_share": spread, "values": values}
            flag = ""
            if bound is not None and m["name"] != "setup_s":
                if spread > bound:
                    flag = "  SPREAD > bound"
                    problems.append(f"{workload} {m['name']}: spread "
                                    f"{spread:.3f} > bound {bound}")
                elif spread > bound / 3:
                    flag = "  spread > bound/3"
            if previous and bound is not None:
                old = previous.get(workload, {}).get(m["name"])
                if old is not None:
                    worse = worse_by(m, old["median"], med)
                    flag += f"  vs before {worse:+.3f}"
                    if worse > bound:
                        flag += " REGRESSION"
                        problems.append(f"{workload} {m['name']}: worse "
                                        f"by {worse:.3f} > bound {bound}")
            print(f"  {m['name']:<28} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{spread:>8.3f} {bound if bound is not None else '':>6}"
                  f"{flag}")
        report["workloads"][workload] = summary

    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"steady-{time.strftime('%Y%m%dT%H%M%S')}"
                              f"-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    print(f"\nwrote {os.path.relpath(path, ROOT)}")
    for p in problems:
        print(f"PROBLEM {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
