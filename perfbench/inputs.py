"""Seeded inputs and their reference answers.

Every op's answer is checked against a reference that is never the tier
under test:

* corpus programs against their hand-written ``expected`` value;
* §5.1.2 diverging corpus programs and diverging fuzz programs must end
  in ``sc-error``;
* terminating fuzz programs against the value and output of the tree
  machine (the spec reference) run unmonitored.

References are computed before the clock starts and outside ``setup_s``.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional

from repro.corpus import all_programs, diverging_programs, extra_programs
from repro.eval.machine import Answer, make_env, run_program
from repro.fuzz.gen import generate_program
from repro.lang.parser import parse_program
from repro.values.values import write_value

SC_ERROR = Answer.SC_ERROR
VALUE = Answer.VALUE


class Item:
    """One request: program text plus what its answer must be."""

    __slots__ = ("name", "text", "result_kinds", "measures", "expect_kind",
                 "expect_value", "expect_output", "fuzz")

    def __init__(self, name: str, text: str, expect_kind: str,
                 expect_value: Optional[str] = None,
                 expect_output: Optional[str] = None, result_kinds=None,
                 measures=None, fuzz: bool = False):
        self.name = name
        self.text = text
        self.expect_kind = expect_kind
        self.expect_value = expect_value
        self.expect_output = expect_output
        self.result_kinds = result_kinds
        self.measures = measures
        self.fuzz = fuzz

    def check(self, kind: str, value: Optional[str],
              output: Optional[str]) -> Optional[str]:
        """None when the answer matches the reference, else why not."""
        if kind != self.expect_kind:
            return f"{self.name}: expected {self.expect_kind}, got {kind}"
        if self.expect_value is not None and value != self.expect_value:
            return f"{self.name}: expected {self.expect_value}, got {value}"
        if self.expect_output is not None and output != self.expect_output:
            return f"{self.name}: output differs from the reference"
        return None


def corpus_items(with_measures: bool = True) -> List[Item]:
    """Table 1, the extras and the §5.1.2 diverging set.  Serve requests
    cannot carry custom monitor measures, so serve leaves those out."""
    items = [Item(p.name, p.source, VALUE, p.expected,
                  result_kinds=p.result_kinds, measures=p.measures)
             for p in all_programs() + extra_programs()]
    items += [Item(p.name, p.source, SC_ERROR, measures=p.measures)
              for p in diverging_programs()]
    if not with_measures:
        items = [i for i in items if i.measures is None]
    return items


def as_request(item: Item) -> Item:
    """``item`` as a serve ``run`` request carries it: without custom
    measures or result kinds (the request has no field for either)."""
    return Item(item.name, item.text, item.expect_kind, item.expect_value,
                item.expect_output, fuzz=item.fuzz)


def corpus_program(name: str):
    for p in all_programs() + extra_programs():
        if p.name == name:
            return p
    raise KeyError(name)


def harness(source: str, iterations: int) -> str:
    """``source`` with its final form run ``iterations`` times by the
    in-language ``bench-iter`` loop, which returns the last result (so the
    hand-written expected value still applies)."""
    text = source.rstrip()
    depth = 0
    i = len(text) - 1
    while i >= 0:
        if text[i] in ")]":
            depth += 1
        elif text[i] in "([":
            depth -= 1
            if depth == 0:
                break
        i -= 1
    if i < 0:
        raise ValueError("no final call form to wrap")
    head, final = text[:i], text[i:]
    return (f"{head}\n(define (bench-iter i)\n"
            f"  (if (zero? i) {final} (begin {final} (bench-iter (- i 1)))))\n"
            f"(bench-iter {iterations - 1})\n")


def fuzz_items(seed: int, seen_texts) -> Iterator[Item]:
    """First-sight generated programs, alternating terminating and
    diverging; a text seen before (in the corpus or earlier in the run)
    is skipped, so every fuzz op misses the certificate cache."""
    tree_env = make_env(machine="tree")
    seen = set(seen_texts)
    i = 0
    while True:
        mode = "terminating" if i % 2 == 0 else "diverging"
        gen = generate_program((seed << 20) + i, mode)
        i += 1
        if gen.source in seen:
            continue
        seen.add(gen.source)
        name = f"fuzz-{mode[:4]}-{gen.seed}"
        if mode == "diverging":
            yield Item(name, gen.source, SC_ERROR, fuzz=True)
            continue
        ref = run_program(parse_program(gen.source), mode="off",
                          env=tree_env, machine="tree", fuel=gen.fuel)
        if ref.kind != VALUE:
            continue  # no reference answer: never used as an input
        yield Item(name, gen.source, VALUE, write_value(ref.value),
                   ref.output, fuzz=True)


def mixed_stream(corpus: List[Item], seed: int, count: int,
                 fuzz_every: int) -> List[Item]:
    """``count`` requests: every ``fuzz_every``-th is a first-sight fuzz
    program, the rest walk the corpus in seeded shuffled passes — the
    repeat/first-sight ratio is fixed, only the order depends on the
    seed."""
    rng = random.Random(f"perfbench/mix/{seed}")
    fuzz = fuzz_items(seed, (c.text for c in corpus))
    out: List[Item] = []
    order: List[Item] = []
    for i in range(count):
        if i % fuzz_every == fuzz_every - 1:
            out.append(next(fuzz))
            continue
        if not order:
            order = corpus[:]
            rng.shuffle(order)
        out.append(order.pop())
    return out


def weighted_cycle(items: List[Item], weights: dict, default: int,
                   seed: int, count: int) -> List[Item]:
    """``count`` requests cycling through ``items``, each ``weight``
    times per cycle, in a seeded shuffled order per cycle."""
    rng = random.Random(f"perfbench/cycle/{seed}")
    cycle = [it for it in items for _ in range(weights.get(it.name, default))]
    out: List[Item] = []
    while len(out) < count:
        rng.shuffle(cycle)
        out.extend(cycle)
    return out[:count]
