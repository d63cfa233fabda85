"""Stack-offset sweep over a warm perfbench working set.

On CPython 3.11 the time of a run can move with nothing changed but how
deep on the Python stack it starts: deep Python-to-Python recursion
through large generated frames crosses the interpreter's data-stack
chunk boundaries at places that depend on the starting depth, and each
crossing allocates and frees a chunk.  Before a perfbench gain on
``warm-discharged`` is claimed, this script shows how large that
alignment effect is on the host; ``--workload warm-monitored`` does the
same for the residual-monitored working set.

It builds the chosen workload's working set (``warm-discharged`` by
default) from ``perfbench/spec.json`` (read, never written): the same
programs, the same ``bench-iter`` harness and iteration counts, each
parsed, discharged and run once in set-up, on the native machine under
mode ``full`` with its residual policy and a shared library environment.
Set-up checks every program's first answer is a value on tier native,
and, as perfbench's own check, that it steps no monitored call
(``warm-discharged``) or at least one (``warm-monitored``).
Then, for each offset, it calls ``run_program`` for every program from
under that many padding frames, ``--passes`` times, and prints

* per offset, the weighted cycle time: one op of every program at its
  spec weight, each op timed at its minimum over the passes (after one
  untimed pass);
* per program, its minimum over all offsets and the offset it came at,
  and its largest per-offset minimum.

A difference between two commits smaller than the spread across offsets
is alignment, not code.

Usage::

    python benchmarks/stack_offset_sweep.py                 # 8 offsets
    python benchmarks/stack_offset_sweep.py --workload warm-monitored
    python benchmarks/stack_offset_sweep.py --offsets 2 --passes 1
"""

import argparse
import gc
import json
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, os.path.join(REPO, "perfbench"))

from inputs import corpus_program, harness  # noqa: E402
from repro.analysis.discharge import (VerificationCache,  # noqa: E402
                                      discharge_for_run)
from repro.eval.machine import make_env, run_program  # noqa: E402
from repro.eval.native import ensure_native_libraries  # noqa: E402
from repro.lang.parser import parse_program  # noqa: E402
from repro.sct.monitor import SCMonitor  # noqa: E402

WORKLOADS = ("warm-discharged", "warm-monitored")
# Padding frames between two offsets.  A padding frame takes roughly
# 130 bytes of CPython 3.11's data stack, which grows in 16 KiB chunks,
# so the default eight offsets walk about one chunk.
STRIDE = 16


def load_spec():
    with open(os.path.join(REPO, "perfbench", "spec.json")) as f:
        return json.load(f)


def working_set(spec, workload):
    """``[(name, weight, run)]``: each ``run()`` is one op of the
    workload and returns its answer and monitor; every program is set up
    (parsed, discharged, compiled) and checked once."""
    cfg = spec["workloads"][workload]
    monitored = workload == "warm-monitored"
    env = make_env(machine=spec["machine"])
    ensure_native_libraries()
    cache = VerificationCache()
    out = []
    for name, iterations in cfg["iterations"].items():
        prog = corpus_program(name)
        text = harness(prog.source, iterations)
        program = parse_program(text)
        policy = discharge_for_run(program, text=text,
                                   result_kinds=prog.result_kinds,
                                   cache=cache).policy

        def run(program=program, policy=policy, measures=prog.measures):
            monitor = SCMonitor(measures=measures)
            return run_program(program, mode=spec["mode"], monitor=monitor,
                               env=env, machine=spec["machine"],
                               discharge=policy, fuel=spec["fuel"]), monitor

        answer, monitor = run()
        if answer.tier != "native" or answer.kind != "value":
            raise SystemExit(f"{name}: {answer.kind} on tier {answer.tier}")
        if bool(monitor.calls_seen) != monitored:
            raise SystemExit(f"{name}: {monitor.calls_seen} monitored calls "
                             f"under {workload}")
        weight = cfg.get("weights", {}).get(name,
                                            cfg.get("default_weight", 1))
        out.append((name, weight, run))
    return out


def at_depth(frames, fn):
    """Call ``fn()`` from under ``frames`` extra Python frames."""
    if frames:
        return at_depth(frames - 1, fn)
    return fn()


def timed(run):
    t0 = time.perf_counter()
    run()
    return time.perf_counter() - t0


def sweep(work, offsets, passes):
    """``{offset: {name: best seconds}}``, after one untimed pass; passes
    interleave offsets so a drift in host speed spreads over all of
    them."""
    for _, _, run in work:
        run()
    gc.collect()
    best = {k: {} for k in offsets}
    for _ in range(passes):
        for k in offsets:
            row = best[k]
            for name, _, run in work:
                t = at_depth(k * STRIDE, lambda run=run: timed(run))
                row[name] = min(row.get(name, t), t)
    return best


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    default="warm-discharged",
                    help="which warm working set to sweep")
    ap.add_argument("--offsets", type=int, default=8,
                    help="how many starting offsets, STRIDE frames apart")
    ap.add_argument("--passes", type=int, default=5,
                    help="timed passes per offset (each op's minimum)")
    args = ap.parse_args(argv)
    if args.offsets < 1 or args.passes < 1:
        ap.error("--offsets and --passes must be at least 1")
    work = working_set(load_spec(), args.workload)
    offsets = list(range(args.offsets))
    best = sweep(work, offsets, args.passes)

    print(f"{args.workload}: {len(work)} programs, {args.passes} pass(es), "
          f"offsets {STRIDE} frames apart")
    print(f"{'offset':>6}  {'frames':>6}  {'cycle ms':>9}")
    cycles = []
    for k in offsets:
        cycle = sum(w * best[k][name] for name, w, _ in work)
        cycles.append(cycle)
        print(f"{k:>6}  {k * STRIDE:>6}  {1e3 * cycle:>9.3f}")
    lo, hi = min(cycles), max(cycles)
    print(f"cycle spread: {1e3 * lo:.3f}-{1e3 * hi:.3f} ms "
          f"(max/min {hi / lo:.3f})")
    print(f"{'program':<15} {'min ms':>8} {'at':>3} {'worst ms':>9}")
    for name, _, _ in work:
        per = [best[k][name] for k in offsets]
        m = min(per)
        print(f"{name:<15} {1e3 * m:>8.3f} {per.index(m):>3} "
              f"{1e3 * max(per):>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
