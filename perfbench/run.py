"""The pipeline benchmark: one command, every workload, every metric.

    python3 perfbench/run.py --workload cold-pipeline --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with
tracing off; ``--trace 1`` is the separate traced run that gives the
per-layer metrics.  Every answer is checked against a reference
(``inputs.py``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
result, stamped with a host fingerprint, the code's sha and the seed,
goes to ``.perfbench/results/`` (spans to ``.perfbench/traces/``).

``perfbench/steady.py`` repeats runs over seeds and reports the median
and spread of each metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time

from calib import Speed, sample
from common import (
    ROOT,
    SRC,
    Tracer,
    clock,
    fingerprint,
    load_spec,
    p50,
    p99,
    vm_hwm_mb,
    write_result,
)

WORKLOADS = ("cold-pipeline", "warm-discharged", "warm-monitored",
             "serve-mixed")


def _workload_class(name: str):
    from inproc import ColdPipeline, WarmDischarged, WarmMonitored

    return {"cold-pipeline": ColdPipeline,
            "warm-discharged": WarmDischarged,
            "warm-monitored": WarmMonitored}[name]


def setup_sample(args, speed: Speed) -> float:
    """Seconds from starting a fresh process to its first op being ready
    (imports, environment, native libraries, and the working set of the
    warm workloads), rescaled by the kernel time the process reports
    right after."""
    t0 = clock()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", "0",
         "--trace", "0", "--setup-probe"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    took = clock() - t0
    kernel_s = float(proc.stdout.readline())
    proc.stdout.close()
    if proc.wait(timeout=120) != 0 or line.strip() != "ready":
        raise RuntimeError("set-up probe failed")
    return took * speed.factor(kernel_s)


def measure(w, stream, seconds: float, traced: bool, speed: Speed):
    """The timed phase.  Untraced: every op timed, the calibration kernel
    sampled between ops.  Traced: every other op is traced and
    attributed after its clock stops."""
    latencies, ends, failures = [], [], []
    gc.collect()
    start = clock()
    deadline = start + seconds
    speed.maybe_sample(start)
    for i, item in enumerate(stream):
        t0 = clock()
        try:
            res = w.op(item)
            error = None
        except Exception as exc:  # an op that raises is a failed op
            res, error = None, f"{item.name}: {type(exc).__name__}: {exc}"
        t1 = clock()
        latencies.append(t1 - t0)
        ends.append(t1)
        if error is None:
            error = w.check(item, res)
        if error is not None:
            failures.append(error)
        elif traced:
            if i % 2:
                w.layers.add_op("traced", item, t1 - t0)
                w.attribute(item, res, i, t1 - t0)
            else:
                w.layers.add_op("untraced", item, t1 - t0)
        now = clock()
        speed.maybe_sample(now)
        if now >= deadline:
            break
    return latencies, [start] + ends, failures


def run_in_process(args, spec, tracer, layers, speed):
    cls = _workload_class(args.workload)
    setups = [] if tracer else [setup_sample(args, speed) for _ in
                                range(spec["setup_repeats"]["in_process"])]
    w = cls(spec, args.seed, args.seconds, layers, tracer)
    w.setup()
    try:
        if tracer is not None and hasattr(w, "attribute_setup"):
            w.attribute_setup()
        stream = w.inputs()
        latencies, times, failures = measure(w, stream, args.seconds,
                                             tracer is not None, speed)
        if tracer is not None:
            from serve_load import probe
            probe(spec, stream, args.seed, layers)
    finally:
        w.close()
    if len(latencies) >= len(stream):
        print("warning: the request stream ran out before the clock",
              file=sys.stderr)
    return latencies, times, failures, setups, vm_hwm_mb(), []


def run_serve(args, spec, tracer, layers, speed):
    from serve_load import run_serve as serve

    records, pauses, setups, rss, failures = serve(
        spec, args.seed, args.seconds, layers, tracer, speed)
    latencies = [t1 - t0 for _, _, _, t0, t1 in records]
    times = [min((r[3] for r in records), default=0.0)]
    times += [r[4] for r in records]
    return latencies, times, failures, setups, rss, pauses


def end_to_end(latencies, times, pauses, setups, failed, rss,
               speed) -> dict:
    """The end-to-end metrics, rescaled to the reference host speed
    (``calib.py``); the unscaled figures come back too, under ``raw_``.
    ``times`` is the phase start followed by each op's end time;
    ``pauses`` are stretches spent sampling the host, not serving."""
    attempted = len(latencies)
    start, ends = times[0], times[1:]
    factors = speed.factors(ends)
    scaled = [lat * f for lat, f in zip(latencies, factors)]
    # the phase's wall time, each stretch between completions rescaled
    order = sorted(range(attempted), key=ends.__getitem__)
    scaled_wall, prev = 0.0, start
    for i in order:
        scaled_wall += (ends[i] - prev) * factors[i]
        prev = ends[i]
    paused = sum(b - a for a, b in pauses)
    scaled_wall -= sum((b - a) * speed.factor_over(a, b) for a, b in pauses)
    wall = prev - start - paused
    return {
        "setup_s": p50(setups),
        "ops_per_s": attempted / scaled_wall if scaled_wall else 0.0,
        "latency_p50_ms": 1e3 * p50(scaled),
        "latency_p99_ms": 1e3 * p99(scaled),
        "ok_ratio": (attempted - failed) / attempted if attempted else 0.0,
        "peak_rss_mb": rss,
        "raw_ops_per_s": attempted / wall if wall else 0.0,
        "raw_latency_p50_ms": 1e3 * p50(latencies),
        "raw_latency_p99_ms": 1e3 * p99(latencies),
        "kernel_us": speed.kernel_us(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no system under test at {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    loadavg = os.getloadavg()
    sys.path.insert(0, SRC)
    spec = load_spec()

    if args.setup_probe:
        cls = _workload_class(args.workload)
        cls(spec, args.seed, 0).setup()
        print("ready", flush=True)
        print(statistics.median(sample()[1] for _ in range(5)), flush=True)
        return 0

    tracer = Tracer() if args.trace else None
    layers = None
    if tracer is not None:
        from inproc import Layers
        layers = Layers()
    runner = run_serve if args.workload == "serve-mixed" else run_in_process
    speed = Speed(spec["calibration"])
    started = time.time()
    latencies, times, failures, setups, rss, pauses = runner(
        args, spec, tracer, layers, speed)
    attempted = len(latencies)
    failed = len(failures)

    if tracer is None:
        values = end_to_end(latencies, times, pauses, setups, failed, rss,
                            speed)
        declared = bench["end_to_end"]
    else:
        values = layers.metrics()
        declared = bench["per_layer"]
        bound = spec["trace"]["coverage_bound"]
        if abs(values["trace.coverage"] - 1) > bound:
            print(f"warning: traced stage spans cover "
                  f"{values['trace.coverage']:.3f} of the untraced op "
                  f"latency, outside 1 +/- {bound}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    line = {"correct": failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}

    payload = {
        "schema": "perfbench-result/v1",
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "started_unix": started,
        "fingerprint": fingerprint(args.seed, loadavg),
        "setup_samples_s": setups,
        "values": values,
        "fail_ratio": failed / attempted if attempted else 0.0,
        "failures": failures[:50],
        "result": line,
    }
    path = write_result(args.workload, payload, tracer)
    width = max(len(n) for n in metrics)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops, {failed} failed  ({os.path.relpath(path, ROOT)})")
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    for failure in failures[:5]:
        print(f"  FAIL {failure}")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
