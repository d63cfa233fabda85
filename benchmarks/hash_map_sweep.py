"""Fold-point sweep for the object language's hash maps.

:class:`repro.values.values.HashValue` groups its entries by key code in
a flat ``dict`` that every ``set`` copies, and moves them to a HAMT
keyed by the code once the map holds ``_HASH_FOLD`` keys.  This script
prints:

* the census — the largest map any Table 1, extra or diverging program
  builds (every ``set`` counted, run on the compiled machine unmonitored;
  the diverging ones under fuel);
* for maps of 1 to 512 symbol keys (an interpreter's environment), the
  ns per ``get`` of a key the map holds, per ``set`` of a new key and
  per ``set`` overwriting a held key, and the bytes each overwritten
  version keeps alive, with the buckets in the flat part and in the HAMT.

A flat ``set`` copies the dict (O(n), but in C), so it stays faster than
the HAMT's path copy well past any map a program here builds; what it
costs is memory: every version a program keeps holds its own copy, where
HAMT versions share all but one path.  The fold point bounds that copy
just above the largest map the census finds.

Usage::

    python benchmarks/hash_map_sweep.py                  # 1 ... 512 keys
    python benchmarks/hash_map_sweep.py --sizes 4 64 --repeats 1
"""

import argparse
import os
import sys
import time
import tracemalloc

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.corpus import (all_programs, diverging_programs,  # noqa: E402
                          extra_programs)
from repro.eval.machine import run_program  # noqa: E402
from repro.lang.parser import parse_program  # noqa: E402
from repro.sexp.datum import intern  # noqa: E402
from repro.values import values as values_mod  # noqa: E402
from repro.values.values import HashValue  # noqa: E402

SIZES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
DIVERGING_FUEL = 20_000
OPS = 4096          # timed operations per repeat, whatever the map size
KEPT = 256          # versions kept alive to measure bytes per version
#: fold point -> layout: a flat part that never folds, or the HAMT from
#: the first key.
LAYOUTS = {"flat": 1 << 30, "HAMT": 0}


def census():
    """``(keys, program)`` for the largest map each program builds."""
    largest = {}
    real = HashValue.set
    name = None

    def counting_set(self, key, value):
        out = real(self, key, value)
        largest[name] = max(largest.get(name, 0), out.count())
        return out

    HashValue.set = counting_set
    try:
        runs = [(p, None) for p in all_programs() + extra_programs()]
        runs += [(p, DIVERGING_FUEL) for p in diverging_programs()]
        for prog, fuel in runs:
            name = prog.name
            run_program(parse_program(prog.source), machine="compiled",
                        fuel=fuel)
    finally:
        HashValue.set = real
    return sorted(((k, n) for n, k in largest.items()), reverse=True)


def _best_ns(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best / OPS * 1e9


def _kept_bytes(h, keys):
    """Bytes per version of ``KEPT`` overwrites of ``h``, all kept."""
    probes = (keys * (KEPT // len(keys) + 1))[:KEPT]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [h.set(k, -1) for k in probes]
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del kept
    return (after - before) / KEPT


def measure_layout(n, fold, repeats):
    """ns per get, per new-key set and per overwrite, and bytes per kept
    version, on an ``n``-key map built with the fold point at ``fold``."""
    keys = [intern(f"v{i}") for i in range(n)]
    fresh = intern("fresh")
    default = values_mod._HASH_FOLD
    values_mod._HASH_FOLD = fold
    try:
        h = HashValue.empty()
        for i, k in enumerate(keys):
            h = h.set(k, i)
        assert (type(h.buckets) is dict) == (n < fold)
        probes = (keys * (OPS // n + 1))[:OPS]

        def get():
            for k in probes:
                h.get(k, None)

        def insert():
            for _ in probes:
                h.set(fresh, 0)

        def overwrite():
            for k in probes:
                h.set(k, -1)

        return tuple(_best_ns(fn, repeats)
                     for fn in (get, insert, overwrite)) + (
                         _kept_bytes(h, keys),)
    finally:
        values_mod._HASH_FOLD = default


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=SIZES,
                    help="map sizes in keys (default 1 2 4 ... 512)")
    ap.add_argument("--repeats", type=int, default=7,
                    help="timed repeats per cell, best kept (default 7)")
    args = ap.parse_args(argv)
    found = census()
    print(f"census: {len(found)} programs build a map; largest: "
          + ", ".join(f"{n} {k}" for k, n in found[:6]))
    print(f"fold point: _HASH_FOLD = {values_mod._HASH_FOLD} keys")
    print(f"ns per op (best of {args.repeats}) and bytes per kept version")
    print(f"{'keys':>5} {'get flat':>9} {'get HAMT':>9} {'new flat':>9} "
          f"{'new HAMT':>9} {'over flat':>9} {'over HAMT':>9} "
          f"{'B flat':>9} {'B HAMT':>9}")
    for n in args.sizes:
        flat = measure_layout(n, LAYOUTS["flat"], args.repeats)
        hamt = measure_layout(n, LAYOUTS["HAMT"], args.repeats)
        cells = [x for pair in zip(flat, hamt) for x in pair]
        print(f"{n:>5} " + " ".join(f"{c:9.0f}" for c in cells))


if __name__ == "__main__":
    main()
