"""Greedy S-expression shrinking and the regression archive.

The shrinker works on plain data (the reader's stripped data: Python
lists, :class:`~repro.sexp.datum.Symbol`, ints, bools, strings, chars),
so a candidate edit is a structural transformation followed by
re-rendering and re-running the differential matrix.  An edit is kept
when the divergence *class* persists — plus a behavioural sanity check
per class (a shrunk "diverging-verified" repro must still observably
diverge under ``off``, a shrunk "terminating-flagged" repro must still
observably terminate), so shrinking cannot wander into a program whose
construction-time oracle no longer applies.

Edit repertoire, tried smallest-promise-first at every position:

1. drop a whole top-level form,
2. replace a compound subexpression by one of its own subexpressions
   (hoisting — the work-horse),
3. replace any subexpression by the literal ``0``,
4. shrink an integer toward zero (0, 1, n/2),
5. drop an element of a (quoted or call) list.

Minimized repros are archived under ``tests/regressions/`` as ``.scm``
files whose leading comments carry the seed and oracle metadata, so
``tests/test_regressions.py`` (and ``sized fuzz --replay``) can re-run
them with the original expectations forever.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

from repro.eval.machine import Answer
from repro.fuzz.gen import GenProgram
from repro.sexp.datum import Char, Dotted, Symbol
from repro.sexp.reader import read_many

# -- datum rendering -----------------------------------------------------------


def render_datum(d) -> str:
    """Render a stripped reader datum back to program text.  Quote sugar
    is not reconstructed — ``(quote x)`` renders literally, which parses
    back to the same AST."""
    if d is True:
        return "#t"
    if d is False:
        return "#f"
    if isinstance(d, list):
        return "(" + " ".join(render_datum(x) for x in d) + ")"
    if isinstance(d, Dotted):
        return ("(" + " ".join(render_datum(x) for x in d.items)
                + " . " + render_datum(d.tail) + ")")
    if isinstance(d, Symbol):
        return d.name
    if isinstance(d, str):
        escaped = d.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(d, Char):
        return f"#\\{d.external_name()}"
    return repr(d)


def render_forms(forms: Sequence) -> str:
    return "\n".join(render_datum(f) for f in forms) + "\n"


def parse_forms(source: str) -> List:
    return [stx.strip() for stx in read_many(source, "<shrink>")]


# -- candidate edits -----------------------------------------------------------


def _candidates_at(d) -> List:
    """Smaller replacements for one subtree, most aggressive first."""
    out: List = []
    if isinstance(d, list) and d:
        head = d[0]
        # Hoist children (skip the head symbol of a form/application).
        for child in d[1:] if isinstance(head, Symbol) else d:
            out.append(child)
        # Drop one element (shortens argument lists and quoted data).
        if len(d) > 1:
            for i in range(len(d) - 1, 0, -1):
                out.append(d[:i] + d[i + 1:])
    if isinstance(d, int) and not isinstance(d, bool):
        for smaller in (0, 1, d // 2):
            if smaller != d:
                out.append(smaller)
    if not (isinstance(d, int) and d == 0):
        out.append(0)
    return out


def _edits(forms: List) -> List[List]:
    """Every candidate whole-program edit, one structural change each."""
    out: List[List] = []
    # Drop whole top-level forms first: the cheapest big win.
    if len(forms) > 1:
        for i in range(len(forms)):
            out.append(forms[:i] + forms[i + 1:])

    def walk(d, replace):
        for cand in _candidates_at(d):
            out.append(replace(cand))
        if isinstance(d, list):
            for i, child in enumerate(d):
                def sub(c, i=i, d=d, replace=replace):
                    return replace(d[:i] + [c] + d[i + 1:])
                walk(child, sub)

    for fi, form in enumerate(forms):
        def top(c, fi=fi):
            return forms[:fi] + [c] + forms[fi + 1:]
        walk(form, top)
    return out


# -- the persistence predicate --------------------------------------------------


def _defines_entry(source: str, entry: Optional[str]) -> bool:
    """A verdict-class repro is vacuous once the entry λ is gone — the
    verifier reports ``unknown`` for a missing entry, so the class would
    'persist' all the way down to an empty program."""
    if not entry:
        return True
    try:
        forms = parse_forms(source)
    except Exception:  # noqa: BLE001 - unreadable candidate: reject
        return False
    for form in forms:
        if (isinstance(form, list) and len(form) >= 2
                and isinstance(form[0], Symbol) and form[0].name == "define"
                and isinstance(form[1], list) and form[1]
                and isinstance(form[1][0], Symbol)
                and form[1][0].name == entry):
            return True
    return False


_VERDICT_CLASSES = frozenset({
    "terminating-unverified", "terminating-undischarged",
    "diverging-verified", "diverging-discharged",
})


def _divergence_persists(klass: str, program: GenProgram, source: str,
                         cells, fuel: Optional[int]) -> bool:
    from repro.fuzz.differential import run_matrix

    candidate = GenProgram(
        seed=program.seed, mode=program.mode, source=source,
        entry=program.entry, entry_kinds=program.entry_kinds,
        features=program.features, must_verify=program.must_verify,
        must_discharge=program.must_discharge, fuel=program.fuel)
    try:
        matrix = run_matrix(candidate, cells=cells, fuel=fuel)
    except Exception:  # noqa: BLE001 - a crashy candidate is not "same bug"
        return False
    if not any(d.klass == klass for d in matrix.divergences):
        return False
    if klass in _VERDICT_CLASSES and not _defines_entry(source, program.entry):
        return False
    off = [r for r in matrix.cells if r.cell[2] == "off"]
    if program.mode == "terminating" and klass in (
            "terminating-unverified", "terminating-undischarged"):
        # Still observably terminating — otherwise the must-verify
        # promise no longer describes the candidate.
        return bool(off) and all(r.kind == Answer.VALUE for r in off)
    if program.mode == "diverging" and klass in (
            "diverging-verified", "diverging-discharged",
            "diverging-unflagged"):
        # Still observably diverging, or the class is vacuous.
        return bool(off) and all(r.kind == Answer.TIMEOUT for r in off)
    if program.mode == "terminating" and klass in (
            "terminating-flagged", "policy-mismatch", "cell-mismatch"):
        # Still observably terminating.
        return bool(off) and all(r.kind == Answer.VALUE for r in off)
    return True


def shrink_divergence(div, cells=None, fuel: Optional[int] = None,
                      max_attempts: int = 200) -> str:
    """Greedily minimize ``div.program.source`` while the divergence
    class persists; stores and returns the minimized text."""
    program = div.program
    try:
        forms = parse_forms(program.source)
    except Exception:  # noqa: BLE001 - unreadable source: keep as-is
        div.shrunk = program.source
        return div.shrunk
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for candidate in _edits(forms):
            if attempts >= max_attempts:
                break
            text = render_forms(candidate)
            if len(text) >= len(render_forms(forms)):
                continue
            attempts += 1
            if _divergence_persists(div.klass, program, text, cells, fuel):
                forms = candidate
                improved = True
                break
    div.shrunk = render_forms(forms)
    div.shrink_steps = attempts
    return div.shrunk


# -- the regression archive -----------------------------------------------------

REGRESSION_DIR = os.path.join("tests", "regressions")


def archive_divergence(div, directory: Optional[str] = None) -> str:
    """Write a minimized repro as a seed-replayable ``.scm`` file and
    return its path."""
    directory = directory or REGRESSION_DIR
    os.makedirs(directory, exist_ok=True)
    program = div.program
    name = f"{div.klass}_{program.mode}_{program.seed}.scm"
    path = os.path.join(directory, name)
    body = div.shrunk if div.shrunk is not None else program.source
    lines = [
        ";; sized-fuzz regression (replay: sized fuzz --replay <this file>)",
        f";; class: {div.klass}",
        f";; seed: {program.seed}",
        f";; mode: {program.mode}",
        f";; entry: {program.entry}",
        f";; entry-kinds: {' '.join(program.entry_kinds)}",
        f";; must-verify: {'#t' if program.must_verify else '#f'}",
        f";; must-discharge: {'#t' if program.must_discharge else '#f'}",
        f";; fuel: {program.fuel}",
        f";; detail: {div.detail.replace(chr(10), ' ')}",
        "",
        body.rstrip("\n"),
        "",
    ]
    with open(path, "w") as f:
        f.write("\n".join(lines))
    return path


def load_regression(path: str) -> GenProgram:
    """Rebuild the archived program + oracle from a ``.scm`` repro."""
    meta = {}
    source_lines: List[str] = []
    with open(path) as f:
        for line in f:
            if line.startswith(";; ") and ":" in line:
                key, _, value = line[3:].partition(":")
                meta[key.strip()] = value.strip()
            elif not line.startswith(";;"):
                source_lines.append(line)
    kinds: Tuple[str, ...] = tuple(
        k for k in meta.get("entry-kinds", "").split() if k)
    return GenProgram(
        seed=int(meta.get("seed", "0")),
        mode=meta.get("mode", "terminating"),
        source="".join(source_lines).strip() + "\n",
        entry=meta.get("entry", "main"),
        entry_kinds=kinds,
        features=(),
        must_verify=meta.get("must-verify", "#f") == "#t",
        must_discharge=meta.get("must-discharge", "#f") == "#t",
        fuel=int(meta.get("fuel", "2000000")),
    )
