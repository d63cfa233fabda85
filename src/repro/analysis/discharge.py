"""Static discharge of dynamic size-change checks (the §4 + §5 combination).

The paper's headline is that the static verifier and the run-time monitor
are two enforcement layers of *one* contract: wherever §4 proves
termination, the §5 monitor is redundant.  This module turns an engine
run into that bridge:

* :class:`DischargeCertificate` — the engine's per-λ-label verdict: the
  set of labels whose *reachable* call edges all pass the phase-2 check
  (SCP for :class:`~repro.symbolic.engine.Engine`, MC termination for
  :class:`~repro.mc.static.MCEngine`).  A havocked or LOST-applied
  analysis taints, and any taint empties the discharged set: an unknown
  can call anything, so nothing is discharged past it.
* :class:`ResidualPolicy` — the skip set for one run: the program
  certificate's discharged labels, plus its ``acyclic`` labels (the
  program λs on no 0-CFA call cycle, :mod:`repro.analysis.callgraph`)
  when it is not complete.  The evaluator consumes it
  at run time only: :func:`repro.eval.machine.run_program` hands its
  labels to the machines as the run's skip set, which they test at each
  apply (discharged λs take the monitor-free path).
* :class:`VerificationCache` — content-addressed certificates
  (program text hash + entry + kinds + result kinds + evidence family),
  in-memory per process with an optional on-disk JSON store, so repeated
  runs amortize verification.  λ labels come from a process-global
  counter, so on disk a certificate stores *stable ids* — each λ's index
  in its program's deterministic pre-order walk, namespaced by
  program/prelude/contracts — and is re-labeled on load.
* :func:`certify` — the only code that reads and stores a cached
  certificate; :func:`discharge_for_run` and ``@terminating(discharge=
  ...)`` both go through it.  On a miss it computes the acyclic set of
  an incomplete program-as-entry certificate, so every parse that hits
  the cache skips those λs from its first run.  ``Verdict.certificate``
  computes its own, uncached, with no acyclic set.

Soundness (what skipping a discharged λ relies on):
:func:`discharge_for_run` analyses the program itself, so every run-time
application is made either by a top-level form, which the engine
evaluated with its literals and λs concrete (the applied closures are
the ``roots``), or from the body of a closure the engine summarised,
whose calls are recorded edges.  An acyclic λ is never re-entered
inside its own dynamic extent, so its table entry is never compared.
``result_kinds`` remain trusted contract ranges (§4.2).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import acyclic_labels
from repro.lang import ast
from repro.lang.program import Program, TopDefine
from repro.values.values import NIL, Pair


class DischargeCertificate:
    """One engine run's per-λ-label discharge verdict.

    ``roots`` are the λs applied with no caller frame: the entry, or the
    closures the program's top-level forms apply (``entry`` None).
    ``labels`` is every label the analysis saw on a call edge, plus the
    roots; ``discharged`` ⊆ ``labels`` is the set whose reachable
    sub-multigraph passed the phase-2 check.  ``taint_reasons`` are the
    human-readable causes of incompleteness.  Every taint source is
    global (a lost application or a blown budget can call anything), so
    a taint leaves ``discharged`` empty; the one other reason, a phase-2
    closure stopped at ``MAX_GRAPHS``, leaves monitored only the λs whose
    reachable set that closure was.  ``acyclic`` is the set of
    program λs on no call-graph cycle, which a residual run skips as
    well; :func:`certify` fills it for an incomplete program-as-entry
    certificate, and it is None everywhere else.
    """

    __slots__ = ("entry", "entry_kinds", "roots", "evidence", "labels",
                 "discharged", "taint_reasons", "label_names", "acyclic")

    def __init__(self, entry: Optional[str], entry_kinds: Tuple[str, ...],
                 roots: FrozenSet[int], evidence: str,
                 labels: FrozenSet[int], discharged: FrozenSet[int],
                 taint_reasons: Tuple[str, ...],
                 label_names: Dict[int, str],
                 acyclic: Optional[FrozenSet[int]] = None):
        self.entry = entry
        self.entry_kinds = tuple(entry_kinds)
        self.roots = frozenset(roots)
        self.evidence = evidence
        self.labels = frozenset(labels)
        self.discharged = frozenset(discharged)
        self.taint_reasons = tuple(taint_reasons)
        self.label_names = dict(label_names)
        self.acyclic = None if acyclic is None else frozenset(acyclic)

    @property
    def complete(self) -> bool:
        """True when every root is discharged with no taint — and
        therefore (the check is monotone in the edge set) everything the
        roots can reach."""
        return not self.taint_reasons and self.roots <= self.discharged

    def discharged_names(self) -> List[str]:
        return sorted(self.label_names.get(l, f"λ{l}")
                      for l in self.discharged)

    def summary(self) -> dict:
        """A JSON-friendly rendering (names, not process-local labels)."""
        return {
            "entry": self.entry,
            "kinds": list(self.entry_kinds),
            "evidence": self.evidence,
            "complete": self.complete,
            "discharged": self.discharged_names(),
            "monitored": sorted(self.label_names.get(l, f"λ{l}")
                                for l in self.labels - self.discharged),
            "taint_reasons": list(self.taint_reasons),
        }

    # -- stable-id (de)serialization for the on-disk cache ---------------------

    def to_stable(self, to_stable: Dict[int, str]) -> dict:
        def ids(labels):
            return sorted(to_stable[l] for l in labels if l in to_stable)

        return {
            "schema": VerificationCache.SCHEMA,
            "entry": self.entry,
            "entry_kinds": list(self.entry_kinds),
            "roots": ids(self.roots),
            "evidence": self.evidence,
            "labels": ids(self.labels),
            "discharged": ids(self.discharged),
            "taint_reasons": list(self.taint_reasons),
            # Sorted: the engine's naming order depends on the hash seed.
            "label_names": dict(sorted(
                (to_stable[l], n) for l, n in self.label_names.items()
                if l in to_stable)),
            "acyclic": None if self.acyclic is None else ids(self.acyclic),
        }

    @classmethod
    def from_stable(cls, data: dict,
                    from_stable: Dict[str, int]) -> "DischargeCertificate":
        """Re-label ``data`` against the consumer's parse.  Raises
        ``KeyError`` when a stable id does not resolve (the certificate
        was computed for some other program) or when ``acyclic`` names a
        library λ, which no run skips."""
        def labels(ids):
            return frozenset(from_stable[i] for i in ids)

        acyclic = data["acyclic"]
        if acyclic is not None:
            if not all(i.startswith("program:") for i in acyclic):
                raise KeyError("acyclic")
            acyclic = labels(acyclic)
        roots = labels(data["roots"])
        return cls(
            entry=data["entry"],
            entry_kinds=tuple(data["entry_kinds"]),
            roots=roots,
            evidence=data["evidence"],
            labels=labels(data["labels"]) | roots,
            discharged=labels(data["discharged"]),
            taint_reasons=tuple(data["taint_reasons"]),
            label_names={from_stable[i]: n
                         for i, n in data["label_names"].items()},
            acyclic=acyclic,
        )

    def __repr__(self) -> str:
        return (f"DischargeCertificate({self.entry or 'program'}: "
                f"{len(self.discharged)}/{len(self.labels)} discharged)")


def _forward_reach(succ: Dict[int, Set[int]], start: int) -> Set[int]:
    seen = {start}
    stack = [start]
    while stack:
        for nxt in succ.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


# Bound on the graphs one phase-2 check composes per reachable set.
MAX_GRAPHS = 20000


def certificate_from_engine(engine) -> DischargeCertificate:
    """Compute the certificate for a finished engine run (the engine has
    ``edges``, ``roots``, ``incomplete``/``discharge_unsafe`` taint, its
    ``evidence_kind`` and the phase-2 ``check`` of that kind)."""
    roots = engine.roots
    if roots is None:
        raise ValueError("engine has not analyzed an entry (call run first)")
    check = engine.check

    edges = engine.edges
    labels: Set[int] = set(roots)
    succ: Dict[int, Set[int]] = {}
    for (f, g) in edges:
        labels.add(f)
        labels.add(g)
        succ.setdefault(f, set()).add(g)

    # Every taint source is global (a lost application or a blown budget
    # can call anything), so any taint leaves nothing discharged.
    taint_reasons = tuple(engine.incomplete) + tuple(engine.discharge_unsafe)
    discharged: Set[int] = set()
    if not taint_reasons:
        check_memo: Dict[FrozenSet[int], bool] = {}
        capped = False
        for label in labels:
            key = frozenset(_forward_reach(succ, label))
            ok = check_memo.get(key)
            if ok is None:
                sub = {e: gs for e, gs in edges.items() if e[0] in key}
                verdict = check(sub, max_graphs=MAX_GRAPHS).ok
                # A closure stopped at the cap (None) proves nothing: its
                # λs stay monitored, and the reasons say why.
                capped = capped or verdict is None
                ok = check_memo[key] = verdict is True
            if ok:
                discharged.add(label)
        if capped:
            taint_reasons = (f"a phase-2 closure stopped at the cap of "
                             f"{MAX_GRAPHS} graphs without a verdict",)

    return DischargeCertificate(
        entry=engine.label_names.get(engine.entry_label),
        entry_kinds=engine.entry_kinds,
        roots=frozenset(roots),
        evidence=engine.evidence_kind,
        labels=frozenset(labels),
        discharged=frozenset(discharged),
        taint_reasons=taint_reasons,
        label_names=dict(engine.label_names),
    )


class ResidualPolicy:
    """The skip set for one run: the program certificate's discharged
    and acyclic labels (``complete``: nothing is monitored)."""

    __slots__ = ("skip_labels", "complete")

    def __init__(self, skip_labels: FrozenSet[int] = frozenset(),
                 complete: bool = False):
        self.skip_labels = frozenset(skip_labels)
        self.complete = complete

    def __bool__(self) -> bool:
        return bool(self.skip_labels)

    def __repr__(self) -> str:
        return f"ResidualPolicy({len(self.skip_labels)} skipped)"


# -- the verification cache -----------------------------------------------------


def _add_space(space: str, program: Program, to_stable: Dict[int, str],
               from_stable: Dict[str, int]) -> None:
    """Name each λ of ``program`` ``space:index`` in pre-order walk."""
    index = 0
    for node in program.iter_nodes():
        if node.kind == ast.K_LAM:
            sid = f"{space}:{index}"
            to_stable[node.label] = sid
            from_stable[sid] = node.label
            index += 1


_LIBRARY_SPACES: Optional[Tuple[Dict[int, str], Dict[str, int]]] = None


def _library_spaces() -> Tuple[Dict[int, str], Dict[str, int]]:
    """The prelude and contract-library part of the stable-id maps,
    computed on first use: both parses are per-process singletons
    (:mod:`repro.lang.libraries`) whose labels never change."""
    global _LIBRARY_SPACES
    if _LIBRARY_SPACES is None:
        from repro.lang.libraries import contracts_program, prelude_program

        to_stable: Dict[int, str] = {}
        from_stable: Dict[str, int] = {}
        _add_space("prelude", prelude_program(), to_stable, from_stable)
        _add_space("contracts", contracts_program(), to_stable, from_stable)
        _LIBRARY_SPACES = (to_stable, from_stable)
    return _LIBRARY_SPACES


def _label_spaces(program: Program) -> Tuple[Dict[int, str], Dict[str, int]]:
    """Bidirectional label ↔ stable-id maps for ``program`` plus the
    process-shared library parses.  Only ``program`` is walked; the
    library part is copied, so callers own the returned maps."""
    library_to, library_from = _library_spaces()
    to_stable = dict(library_to)
    from_stable = dict(library_from)
    _add_space("program", program, to_stable, from_stable)
    return to_stable, from_stable


_LIBRARIES_DIGEST: Optional[str] = None


def _libraries_digest() -> str:
    """One digest over the prelude + contract-library sources (cached:
    they are import-time constants)."""
    global _LIBRARIES_DIGEST
    if _LIBRARIES_DIGEST is None:
        from repro.lang.contracts_lib import CONTRACTS_SOURCE
        from repro.lang.prims import PRELUDE_SOURCE

        _LIBRARIES_DIGEST = hashlib.sha256(
            (PRELUDE_SOURCE + "\0" + CONTRACTS_SOURCE).encode()
        ).hexdigest()
    return _LIBRARIES_DIGEST


def content_key(text: str, **fields) -> str:
    """The address of an answer about program ``text``: a sha256 over the
    text, the library sources and ``fields``, the rest it depends on."""
    payload = json.dumps({
        "program_sha256": hashlib.sha256(text.encode()).hexdigest(),
        # Certificates name library λs by positional stable id, and the
        # verdict itself depends on library definitions — a certificate
        # cached on disk must die with the library text it was computed
        # against, or a package upgrade could discharge the wrong
        # (never-verified) λ.
        "libraries_sha256": _libraries_digest(),
        **fields,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


class VerificationCache:
    """Content-addressed certificate store.

    In memory, certificates live in their *stable* form and are re-labeled
    against the consumer's parse on every :meth:`get` — the same program
    text parsed twice carries different λ labels, so a raw certificate
    would silently stop matching.  With ``path`` set, every certificate is
    additionally written to ``<path>/<key[:2]>/<key>.json`` and picked up
    by future processes.  That is the one on-disk layout: ``sized run
    --discharge-cache``, the ``sized serve`` workers and ``@terminating``
    read each other's entries.

    Every entry records the key it was filed under.  An entry is
    **quarantined** on read (an on-disk file renamed to
    ``<file>.rejected``) and counted in ``rejected`` rather than
    ``misses`` when it is corrupt, carries another schema, names another
    key, holds a stable id the consumer's parse cannot resolve, or lists
    a library λ as acyclic —
    leaving it in place would make every future ``get`` re-open and
    re-reject it, and a concurrent writer's schema bump would never
    self-heal.  After quarantine the next ``put`` simply rewrites the
    entry.  The binding stops a certificate moved onto another program's
    key; a forged payload filed under its own key is still trusted.

    Instances are independent: nothing here touches process-global state,
    so concurrent requests (serve workers, tests) each get their own
    counters by constructing their own cache — see :func:`default_cache`
    for the one deliberately shared instance.
    """

    SCHEMA = "discharge-certificate/v5"

    def __init__(self, path: Optional[str] = None):
        self._mem: Dict[str, dict] = {}
        self.path = path
        self.hits = 0
        self.misses = 0
        self.rejected = 0

    def reset(self) -> None:
        """Drop the in-memory store and zero the counters (the on-disk
        store, if any, is untouched)."""
        self._mem.clear()
        self.hits = 0
        self.misses = 0
        self.rejected = 0

    def snapshot(self) -> dict:
        """A point-in-time stats view (counters + store shape)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "rejected": self.rejected,
            "entries": len(self._mem),
            "path": self.path,
        }

    def _file(self, key: str) -> str:
        return os.path.join(self.path, key[:2], f"{key}.json")

    def _quarantine(self, key: str, file: Optional[str]) -> None:
        self.rejected += 1
        self._mem.pop(key, None)
        if file is None:
            return
        try:
            os.replace(file, f"{file}.rejected")
        except OSError:
            try:
                os.unlink(file)
            except OSError:
                pass

    @staticmethod
    def key(text: str, entry: str, kinds: Sequence[str],
            result_kinds: Optional[Dict[str, str]], evidence: str) -> str:
        return content_key(text, entry=entry, kinds=list(kinds),
                           result_kinds=sorted((result_kinds or {}).items()),
                           evidence=evidence)

    def get(self, key: str,
            program: Program) -> Optional[DischargeCertificate]:
        stable = self._mem.get(key)
        file = None
        if stable is None and self.path is not None:
            file = self._file(key)
            raw = None
            try:
                with open(file) as f:
                    raw = f.read()
            except OSError:
                raw = None  # absent (or unreadable): a true miss
            if raw is not None:
                try:
                    stable = json.loads(raw)
                except ValueError:
                    stable = None
                if not (isinstance(stable, dict)
                        and stable.get("schema") == self.SCHEMA):
                    # Corrupt / wrong-schema: quarantine and report a
                    # *rejection*, not a miss — `rejected` was already
                    # bumped, and the file is gone so the next get is a
                    # clean miss and the next put self-heals.
                    self._quarantine(key, file)
                    return None
        if stable is None:
            self.misses += 1
            return None
        _, from_stable = _label_spaces(program)
        try:
            if stable.get("key") != key:
                raise KeyError(key)
            certificate = DischargeCertificate.from_stable(stable,
                                                           from_stable)
        except (KeyError, TypeError, AttributeError):
            # Filed under another key, naming a λ this parse does not
            # have, or skipping a library λ: the certificate proves some
            # other program.
            self._quarantine(key, file)
            return None
        self._mem[key] = stable
        self.hits += 1
        return certificate

    def put(self, key: str, certificate: DischargeCertificate,
            program: Program) -> None:
        to_stable, _ = _label_spaces(program)
        stable = certificate.to_stable(to_stable)
        stable["key"] = key
        self._mem[key] = stable
        if self.path is not None:
            file = self._file(key)
            os.makedirs(os.path.dirname(file), exist_ok=True)
            tmp = f"{file}.tmp.{os.getpid()}"
            with open(tmp, "w") as f:
                json.dump(stable, f, indent=2)
            os.replace(tmp, file)


_DEFAULT_CACHE = VerificationCache()


def default_cache() -> VerificationCache:
    """The process-wide in-memory cache — the *fallback* when no cache is
    injected (``@terminating`` without ``cache=``, ``discharge_for_run``
    with ``cache=None``).  Every other consumer (the CLI, the serve
    workers, the benches, tests) injects its own
    :class:`VerificationCache`, so this instance's ``hits``/``misses``
    never bleed across independent requests; call ``default_cache().
    reset()`` to isolate a test that must exercise the fallback itself."""
    return _DEFAULT_CACHE


# -- workload inference ---------------------------------------------------------


class WorkloadEntry:
    """One inferred top-level call: the entry name and the kinds its
    actual literal arguments inhabit (so the verified precondition holds
    by construction)."""

    __slots__ = ("name", "kinds")

    def __init__(self, name: str, kinds: Tuple[str, ...]):
        self.name = name
        self.kinds = kinds

    def __repr__(self) -> str:
        return f"WorkloadEntry({self.name} {list(self.kinds)})"


def _literal_kind(value) -> str:
    t = type(value)
    if t is bool:
        return "any"
    if t is int:
        return "nat" if value >= 0 else "int"
    if value is NIL:
        return "nil"
    if t is Pair:
        return "pair"
    return "any"


def infer_workload(program: Program
                   ) -> Tuple[Optional[List[WorkloadEntry]], List[str]]:
    """Infer (entry, kinds) for every top-level expression, or explain
    why the workload is not coverable (all-or-nothing: one uncovered
    expression means no discharge at all).  Not on the run path, which
    analyses the program itself (:func:`discharge_for_run`): its only
    caller is perfbench's traced ``verify_phases``, which replays the
    per-entry analysis."""
    defined: Dict = {}
    for form in program.forms:
        if isinstance(form, TopDefine):
            defined[form.name] = form.expr
    entries: List[WorkloadEntry] = []
    seen: Set[Tuple[str, Tuple[str, ...]]] = set()
    for form in program.forms:
        if isinstance(form, TopDefine):
            continue
        e = form.expr
        if not (e.kind == ast.K_APP and e.fn.kind == ast.K_VAR
                and e.fn.name in defined
                and defined[e.fn.name].kind == ast.K_LAM):
            return None, [
                "top-level expression is not a direct call to a "
                f"defined function: {e!r}"
            ]
        lam = defined[e.fn.name]
        if len(e.args) != len(lam.params):
            return None, [f"top-level call to {e.fn.name.name} has the "
                          "wrong arity"]
        kinds: List[str] = []
        for a in e.args:
            if a.kind == ast.K_LIT:
                kinds.append(_literal_kind(a.value))
            elif a.kind == ast.K_LAM:
                kinds.append("fun")
            else:
                return None, [
                    f"argument {a!r} of the top-level call to "
                    f"{e.fn.name.name} is not a literal or a λ"
                ]
        entry = WorkloadEntry(e.fn.name.name, tuple(kinds))
        if (entry.name, entry.kinds) not in seen:
            seen.add((entry.name, entry.kinds))
            entries.append(entry)
    return entries, []


# -- the pipeline entry point ---------------------------------------------------


def certify(program: Program, text: Optional[str], entry: Optional[str],
            kinds: Sequence[str], evidence: str = "sc",
            result_kinds: Optional[Dict[str, str]] = None,
            cache: Optional[VerificationCache] = None, budget=None
            ) -> Tuple[Optional[DischargeCertificate], Optional[str]]:
    """The certificate of ``entry`` under ``kinds`` and ``evidence``
    (``'sc'`` or ``'mc'``) — of the program itself when ``entry`` is None
    — read from ``cache`` when ``text`` is given and there is one, else
    computed and stored.  This is the only code that reads and stores
    cached certificates; :func:`discharge_for_run` and
    ``@terminating(discharge=...)`` both come here.  Returns the
    certificate and ``None``, or ``None`` and the reason the entry could
    not be analyzed.  A computed certificate of the program itself that
    is not complete also carries the program's acyclic λs, stored with
    it."""
    from repro.symbolic.verify import analyze_entry

    if cache is None:
        cache = default_cache()
    key = None
    if text is not None:
        key = cache.key(text, entry, kinds, result_kinds, evidence)
        cert = cache.get(key, program)
        if cert is not None:
            return cert, None
    engine, problem = analyze_entry(program, entry, kinds, evidence, budget,
                                    result_kinds)
    if problem is not None:
        return None, problem
    cert = certificate_from_engine(engine)
    if entry is None and not cert.complete:
        cert.acyclic = acyclic_labels(program)
    if key is not None:
        cache.put(key, cert, program)
    return cert, None


class DischargeResult:
    """What :func:`discharge_for_run` hands the evaluator and the CLI: the
    program's certificate and the residual policy it implies."""

    __slots__ = ("certificate", "policy", "reasons")

    def __init__(self, certificate: DischargeCertificate):
        cert = self.certificate = certificate
        self.policy = ResidualPolicy(
            cert.discharged | (cert.acyclic or frozenset()), cert.complete)
        why = "; ".join(cert.taint_reasons) or \
            "the collected graphs do not pass the static check"
        names = ", ".join(sorted(cert.label_names.get(l, f"λ{l}")
                                 for l in cert.roots - cert.discharged))
        self.reasons = [] if cert.complete else \
            [f"{names or 'the program'} not discharged: {why}"]

    @property
    def certificates(self) -> Tuple[DischargeCertificate, ...]:
        """The one certificate, as the tuple perfbench's tracer reads."""
        return (self.certificate,)

    @property
    def complete(self) -> bool:
        """True when every closure the top-level forms apply is fully
        discharged — the whole program runs monitor-free."""
        return self.policy.complete

    def summary(self) -> dict:
        """The plain fields a `sized serve` response carries."""
        return {"complete": self.complete,
                "skipped": len(self.certificate.discharged),
                "reasons": self.reasons[:4]}

    def record(self) -> dict:
        """The answer a serve ``verify`` without an entry carries."""
        return {"kind": "discharge", "discharge": self.summary(),
                "verified": self.complete, "exit": 0 if self.complete else 3}

    def render(self) -> str:
        cert = self.certificate
        state = "discharged" if cert.complete else "residual"
        lines = [f"program: {state} ({len(cert.discharged)}/"
                 f"{len(cert.labels)} λs, evidence={cert.evidence})"]
        lines.extend(f"  - {reason}" for reason in self.reasons)
        return "\n".join(lines)


def discharge_for_run(
    program: Program,
    text: Optional[str] = None,
    evidence: str = "sc",
    result_kinds: Optional[Dict[str, str]] = None,
    cache: Optional[VerificationCache] = None,
    budget=None,
) -> DischargeResult:
    """Analyse the program itself as its one entry under ``evidence``
    (``'sc'`` or ``'mc'``) and compute the residual policy: the
    certificate's discharged and acyclic sets are the skip set.
    ``text`` (the program source text) enables the verification cache;
    without it every call re-verifies."""
    cert, _ = certify(program, text, None, (), evidence, result_kinds,
                      cache, budget=budget)
    return DischargeResult(cert)
