"""Fold-point sweep for the cm strategy's hybrid size-change table.

:func:`repro.sct.monitor.table_step` keeps a flat, identity-scanned part
in front of a HAMT base and folds the flat part into the base once it
holds ``(_TABLE_PROMOTE - 1) // 2`` keys.  This script measures, over the
Table 1 corpus, the extras, the diverging programs and generated fuzz
programs (both modes), every one run monitored on the compiled machine
with nothing skipped:

* the census — the most distinct keys any one table of a program holds
  (flat part and base together);
* for each candidate fold point, the table traffic it causes: folds,
  HAMT sets (keys moved by folds), HAMT lookups after a flat miss, and
  the hits among them (a folded key coming back, which re-adopts it into
  the flat part).

``--time`` also times the warm ``scheme`` run (one ``run_program`` of a
parse already discharged and compiled, native machine, residual policy —
one ``warm-monitored`` op) at each fold point, interleaved best-of.

Usage::

    python benchmarks/cm_table_sweep.py                  # 100 fuzz seeds
    python benchmarks/cm_table_sweep.py --fuzz 400 --time
"""

import argparse
import os
import sys
from collections import Counter

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.corpus import (all_programs, diverging_programs,  # noqa: E402
                          extra_programs, get_program)
from repro.eval import machine as machine_mod  # noqa: E402
from repro.eval.machine import run_program  # noqa: E402
from repro.fuzz.gen import generate_program  # noqa: E402
from repro.lang.parser import parse_program  # noqa: E402
from repro.sct import monitor as monitor_mod  # noqa: E402
from repro.sct.monitor import SCMonitor  # noqa: E402

FOLD_POINTS = (17, 33, 49, 65, 97)
DIVERGING_FUEL = 20_000
TIME_REPEATS = 15
_ABSENT = object()


class Traffic:
    """Counts one run's table traffic under the current fold point."""

    def __init__(self):
        self.counts = Counter()
        self.max_keys = 0

    def wrap(self, real):
        counts = self.counts

        def step(monitor, table, key, *rest):
            n = len(table)
            flat = table[1::2]
            if not any(k is key for k in flat):
                base = table[0]
                if base is not None:
                    counts["lookups"] += 1
                    counts["hits"] += base.get(key) is not None
                if n >= monitor_mod._TABLE_PROMOTE:
                    counts["folds"] += 1
                    counts["sets"] += (n - 1) // 2
            counts["calls"] += 1
            out = real(monitor, table, key, *rest)
            base = out[0]
            keys = 0 if base is None else len(base)
            keys += sum(1 for k in out[1::2]
                        if base is None or base.get(k, _ABSENT) is _ABSENT)
            self.max_keys = max(self.max_keys, keys)
            return out
        return step


def programs(fuzz: int):
    """``(name, source, measures, fuel)`` for every program swept."""
    for p in all_programs() + extra_programs():
        yield p.name, p.source, p.measures, None
    for p in diverging_programs():
        yield p.name, p.source, p.measures, DIVERGING_FUEL
    for mode in ("terminating", "diverging"):
        for seed in range(fuzz):
            g = generate_program(seed, mode)
            yield f"fuzz-{mode[:4]}-{seed}", g.source, None, g.fuel


def run_traced(source, measures, fuel, fold_point):
    traffic = Traffic()
    real = monitor_mod.table_step
    machine_mod.table_step = traffic.wrap(real)
    monitor_mod._TABLE_PROMOTE = fold_point
    try:
        run_program(parse_program(source), mode="full", strategy="cm",
                    monitor=SCMonitor(measures=measures), fuel=fuel,
                    machine="compiled")
    finally:
        machine_mod.table_step = real
    return traffic


def sweep(fuzz: int):
    census = []
    totals = {p: Counter() for p in FOLD_POINTS}
    for name, source, measures, fuel in programs(fuzz):
        first = run_traced(source, measures, fuel, FOLD_POINTS[0])
        census.append((first.max_keys, name))
        totals[FOLD_POINTS[0]].update(first.counts)
        for p in FOLD_POINTS[1:]:
            # A program whose tables never outgrow a flat part of p's
            # size has the same traffic at every larger fold point.
            if first.max_keys >= (p - 1) // 2:
                totals[p].update(run_traced(source, measures, fuel,
                                            p).counts)
            else:
                totals[p]["calls"] += first.counts["calls"]
    return census, totals


def time_scheme():
    from repro.analysis.discharge import discharge_for_run
    from repro.bench.timing import interleaved_best_of

    prog = get_program("scheme")
    parsed = parse_program(prog.source)
    policy = discharge_for_run(parsed, text=prog.source,
                               result_kinds=prog.result_kinds).policy

    def runner(p):
        def run():
            monitor_mod._TABLE_PROMOTE = p
            run_program(parsed, mode="full", monitor=SCMonitor(),
                        machine="native", discharge=policy)
        return run
    runs = {p: runner(p) for p in FOLD_POINTS}
    for run in runs.values():
        run()
        run()
    return interleaved_best_of(runs, TIME_REPEATS)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--fuzz", type=int, default=100,
                    help="fuzz seeds per mode (default 100)")
    ap.add_argument("--time", action="store_true",
                    help="also time warm scheme at each fold point")
    args = ap.parse_args(argv)
    default = monitor_mod._TABLE_PROMOTE
    census, totals = sweep(args.fuzz)
    census.sort(reverse=True)
    histogram = Counter(k for k, _ in census)
    print(f"census: {len(census)} programs, most distinct keys in one "
          f"table: {census[0][0]} ({census[0][1]})")
    print("  largest:", ", ".join(f"{n} {k}" for k, n in census[:6]))
    print("  keys -> programs:", ", ".join(
        f"{k}: {histogram[k]}" for k in sorted(histogram)))
    print(f"{'fold point':>10} {'flat keys':>9} {'calls':>9} {'folds':>7} "
          f"{'HAMT sets':>9} {'lookups':>8} {'hits':>7}")
    for p in FOLD_POINTS:
        t = totals[p]
        print(f"{p:>10} {(p - 1) // 2:>9} {t['calls']:>9} {t['folds']:>7} "
              f"{t['sets']:>9} {t['lookups']:>8} {t['hits']:>7}")
    if args.time:
        best = time_scheme()
        print("warm scheme (native, residual policy), best of "
              f"{TIME_REPEATS}:")
        for p in FOLD_POINTS:
            print(f"{p:>10} {best[p] * 1e3:8.2f} ms")
    monitor_mod._TABLE_PROMOTE = default


if __name__ == "__main__":
    main()
