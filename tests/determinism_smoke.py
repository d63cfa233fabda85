"""Determinism smoke: a program's answer does not depend on the process.

Runs itself in two fresh interpreters, under ``PYTHONHASHSEED=1`` and
``=2``.  Each prints, one JSON line per run, the ``Answer.record()`` and
discharge summary of every corpus, extra and diverging program (and two
programs that print hash maps, one of them past the fold point, and one
that rebinds a primitive the libraries call) on the tree, compiled and
native machines, through ``run_request(..., discharge="try")`` with a fuel
bound over an on-disk certificate store, and then the program's stored
certificate entry as written (its stable ids, ``acyclic`` among them).
Exits 1, printing the first differing lines, unless the two outputs are
byte-identical.

    PYTHONPATH=src python tests/determinism_smoke.py
"""

import json
import os
import subprocess
import sys
import tempfile

FUEL = 2_000_000
MACHINES = ("tree", "compiled", "native")
MAP_PROGRAM = """
(define (tally words)
  (if (null? words) (hash)
      (let ([t (tally (cdr words))])
        (hash-set t (car words) (+ 1 (hash-ref t (car words) 0))))))
(display (tally '(a b c d a "x" c a (1 2))))
(newline)
(hash 'k1 1 'k2 2 'k3 3 "s1" 's "s2" #\\c)
"""
# A map with more keys than ``values._HASH_FOLD`` (32), so its buckets
# live in the HAMT: symbol, string and pair keys, then an overwrite of
# every third key through an ``equal?`` copy.
_FOLD_KEYS = " ".join([f"k{i}" for i in range(16)]
                      + [f'"s{i}"' for i in range(12)]
                      + [f"({i} . p)" for i in range(12)])
FOLD_PROGRAM = f"""
(define (index keys i t)
  (if (null? keys) t (index (cdr keys) (+ i 1) (hash-set t (car keys) i))))
(define (every-third keys t)
  (if (or (null? keys) (null? (cdr keys)) (null? (cddr keys))) t
      (every-third (cdddr keys) (hash-set t (car keys) 'again))))
(define m (index '({_FOLD_KEYS}) 0 (hash)))
(display (hash-count m))
(newline)
(every-third '({_FOLD_KEYS}) m)
"""

# Rebinds cdr, which the prelude's map and foldl call: the run takes the
# library closures built from the resolution that binds no primitive,
# and they see the stock cdr before the define and the program's after.
REBIND_PROGRAM = """
(define (squares l) (map (lambda (x) (* x x)) l))
(define before (squares '(1 2 3 4 5)))
(define (cdr p) (if (pair? (rest p)) (rest (rest p)) '()))
(list before (squares '(1 2 3 4 5)) (foldl + 0 '(1 2 3 4 5)))
"""


def records():
    from repro.analysis.discharge import VerificationCache
    from repro.corpus import all_programs, diverging_programs, extra_programs
    from repro.eval.machine import run_request
    from repro.lang.parser import parse_program

    programs = [(p.name, p.source, p.result_kinds)
                for p in all_programs() + extra_programs()]
    programs += [(p.name, p.source, None) for p in diverging_programs()]
    programs.append(("hash-maps", MAP_PROGRAM, None))
    programs.append(("hash-map-past-fold", FOLD_PROGRAM, None))
    programs.append(("library-sees-rebinding", REBIND_PROGRAM, None))
    with tempfile.TemporaryDirectory() as store:
        cache = VerificationCache(store)
        for name, text, result_kinds in programs:
            for machine in MACHINES:
                answer, result = run_request(
                    parse_program(text), text, mode="full",
                    machine=machine, discharge="try", fuel=FUEL,
                    cache=cache, result_kinds=result_kinds)
                yield json.dumps({"program": name, "machine": machine,
                                  "answer": answer.record(),
                                  "discharge": result.summary()},
                                 sort_keys=True)
            key = VerificationCache.key(text, None, (), result_kinds, "sc")
            with open(os.path.join(store, key[:2], f"{key}.json")) as f:
                yield json.dumps({"program": name, "stored": f.read()})


def main() -> int:
    if "--emit" in sys.argv:
        for line in records():
            print(line)
        return 0
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, __file__, "--emit"],
                              capture_output=True, env=env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode())
            return 1
        outputs.append(proc.stdout)
    first, second = (out.decode().splitlines() for out in outputs)
    if outputs[0] == outputs[1]:
        print(f"determinism-smoke: {len(first)} records identical under "
              f"PYTHONHASHSEED=1 and 2")
        return 0
    differing = [(a, b) for a, b in zip(first, second) if a != b]
    print(f"determinism-smoke: {len(differing)} of {len(first)} records "
          f"differ between PYTHONHASHSEED=1 and 2"
          + ("" if len(first) == len(second) else
             f" ({len(first)} vs {len(second)} records)"))
    for a, b in differing[:3]:
        print(f"  seed 1: {a}\n  seed 2: {b}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
