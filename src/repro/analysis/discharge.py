"""Static discharge of dynamic size-change checks (the §4 + §5 combination).

The paper's headline is that the static verifier and the run-time monitor
are two enforcement layers of *one* contract: wherever §4 proves
termination, the §5 monitor is redundant.  This module turns an engine
run into that bridge:

* :class:`DischargeCertificate` — the engine's per-λ-label verdict: the
  set of labels whose *reachable* call edges all pass the phase-2 check
  (SCP for :class:`~repro.symbolic.engine.Engine`, MC termination for
  :class:`~repro.mc.static.MCEngine`), minus incompleteness taint.  A
  havocked or LOST-applied analysis taints, and taint closes forward over
  call edges, so nothing downstream of an unknown is ever discharged.
* :class:`ResidualPolicy` — label → ``MONITOR`` | ``SKIP``, the
  intersection of one certificate per workload entry.  The evaluator
  consumes it at run time only: :func:`repro.eval.machine.run_program`
  installs its labels as the monitor's skip set, which every machine
  tests at each apply (discharged λs take the monitor-free path).
* :class:`VerificationCache` — content-addressed certificates
  (program text hash + entry + kinds + result kinds + evidence family),
  in-memory per process with an optional on-disk JSON store, so repeated
  runs amortize verification.  λ labels come from a process-global
  counter, so on disk a certificate stores *stable ids* — each λ's index
  in its program's deterministic pre-order walk, namespaced by
  program/prelude/contracts — and is re-labeled on load.

Soundness inventory (what a ``SKIP`` relies on):

1. The engine's over-approximation: with no taint, every run-time call
   sequence rooted at the verified entry is covered by recorded edges.
2. Entry preconditions: :func:`infer_workload` derives each entry's kinds
   from the *actual* top-level literal arguments, so the precondition
   holds by construction; ``result_kinds`` remain trusted contract ranges
   (§4.2), exactly as for the verdict itself.
3. Whole-run coverage: the policy is only non-empty when **every**
   top-level expression is an inferable call to a verified entry and no
   ``define`` right-hand side can invoke a user closure at definition
   time — otherwise an unanalyzed call could reach a discharged λ with
   arguments outside its verified abstraction.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.ljb import scp_check
from repro.lang import ast
from repro.lang.program import Program, TopDefine
from repro.lang.prims import PRIMITIVES
from repro.values.values import NIL, Pair

MONITOR = "monitor"
SKIP = "skip"


class DischargeCertificate:
    """One engine run's per-λ-label discharge verdict.

    ``labels`` is every label the analysis saw on a call edge (plus the
    entry); ``discharged`` ⊆ ``labels`` is the set whose reachable
    sub-multigraph passed the phase-2 check with no taint in reach;
    ``tainted`` carries the forward-closed per-label taint and
    ``taint_reasons`` the human-readable causes (any reason taints the
    whole certificate under today's engines — every taint source is
    global — but the per-label field is part of the format so a finer
    engine can populate it without changing consumers).
    """

    __slots__ = ("entry", "entry_kinds", "entry_label", "evidence", "labels",
                 "discharged", "tainted", "taint_reasons", "label_names")

    def __init__(self, entry: str, entry_kinds: Tuple[str, ...],
                 entry_label: int, evidence: str,
                 labels: FrozenSet[int], discharged: FrozenSet[int],
                 tainted: FrozenSet[int], taint_reasons: Tuple[str, ...],
                 label_names: Dict[int, str]):
        self.entry = entry
        self.entry_kinds = tuple(entry_kinds)
        self.entry_label = entry_label
        self.evidence = evidence
        self.labels = frozenset(labels)
        self.discharged = frozenset(discharged)
        self.tainted = frozenset(tainted)
        self.taint_reasons = tuple(taint_reasons)
        self.label_names = dict(label_names)

    def decision(self, label: int) -> str:
        return SKIP if label in self.discharged else MONITOR

    @property
    def complete(self) -> bool:
        """True when the entry itself is discharged — and therefore (the
        check is monotone in the edge set) everything it can reach."""
        return self.entry_label in self.discharged

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
            "entry_label": to_stable.get(self.entry_label),
            "evidence": self.evidence,
            "labels": ids(self.labels),
            "discharged": ids(self.discharged),
            "tainted": ids(self.tainted),
            "taint_reasons": list(self.taint_reasons),
            "label_names": {to_stable[l]: n
                            for l, n in self.label_names.items()
                            if l in to_stable},
        }

    @classmethod
    def from_stable(cls, data: dict,
                    from_stable: Dict[str, int]) -> "DischargeCertificate":
        """Re-label ``data`` against the consumer's parse.  Raises
        ``KeyError`` when a stable id does not resolve: the certificate
        was computed for some other program."""
        def labels(ids):
            return frozenset(from_stable[i] for i in ids)

        entry_label = from_stable[data["entry_label"]]
        return cls(
            entry=data["entry"],
            entry_kinds=tuple(data["entry_kinds"]),
            entry_label=entry_label,
            evidence=data["evidence"],
            labels=labels(data["labels"]) | {entry_label},
            discharged=labels(data["discharged"]),
            tainted=labels(data["tainted"]),
            taint_reasons=tuple(data["taint_reasons"]),
            label_names={from_stable[i]: n
                         for i, n in data["label_names"].items()},
        )

    def __repr__(self) -> str:
        return (f"DischargeCertificate({self.entry}: "
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


def certificate_from_engine(engine, max_graphs: int = 20000
                            ) -> DischargeCertificate:
    """Compute the certificate for a finished engine run (the engine has
    ``edges``, ``entry_label``, ``incomplete``/``discharge_unsafe``
    taint, and an ``evidence_kind`` selecting the phase-2 check)."""
    entry_label = engine.entry_label
    if entry_label is None:
        raise ValueError("engine has not analyzed an entry (call run first)")
    evidence = getattr(engine, "evidence_kind", "sc")
    if evidence == "mc":
        from repro.mc.analyze import mc_check as check
    else:
        check = scp_check

    edges = engine.edges
    labels: Set[int] = {entry_label}
    succ: Dict[int, Set[int]] = {}
    for (f, g) in edges:
        labels.add(f)
        labels.add(g)
        succ.setdefault(f, set()).add(g)

    taint_reasons = tuple(engine.incomplete) + tuple(engine.discharge_unsafe)
    # Per-label taint closes forward: an unknown inside L hides calls, so
    # everything L can reach may have unseen edges too.
    tainted: Set[int] = set()
    for seed in engine.tainted_labels:
        tainted |= _forward_reach(succ, seed)
    if taint_reasons:
        # Every taint source today is global (a lost application or a blown
        # budget can call anything): the whole label set is tainted.
        tainted = set(labels)

    discharged: Set[int] = set()
    if not taint_reasons:
        check_memo: Dict[FrozenSet[int], bool] = {}
        for label in labels:
            reach = _forward_reach(succ, label)
            if reach & tainted:
                continue
            key = frozenset(reach)
            ok = check_memo.get(key)
            if ok is None:
                sub = {e: gs for e, gs in edges.items() if e[0] in reach}
                ok = check_memo[key] = \
                    check(sub, max_graphs=max_graphs).ok is True
            if ok:
                discharged.add(label)

    return DischargeCertificate(
        entry=engine.label_names.get(entry_label, f"λ{entry_label}"),
        entry_kinds=getattr(engine, "entry_kinds", ()),
        entry_label=entry_label,
        evidence=evidence,
        labels=frozenset(labels),
        discharged=frozenset(discharged),
        tainted=frozenset(tainted),
        taint_reasons=taint_reasons,
        label_names=dict(engine.label_names),
    )


class ResidualPolicy:
    """label → ``MONITOR`` | ``SKIP`` for one run, from certificates."""

    __slots__ = ("skip_labels", "certificates")

    def __init__(self, skip_labels: FrozenSet[int] = frozenset(),
                 certificates: Sequence[DischargeCertificate] = ()):
        self.skip_labels = frozenset(skip_labels)
        self.certificates = tuple(certificates)

    def decision(self, label: int) -> str:
        return SKIP if label in self.skip_labels else MONITOR

    def __bool__(self) -> bool:
        return bool(self.skip_labels)

    def __repr__(self) -> str:
        return f"ResidualPolicy({len(self.skip_labels)} skipped)"


def residual_policy(certificates: Sequence[DischargeCertificate]
                    ) -> ResidualPolicy:
    """Intersect certificates into one policy.

    A label is skipped iff some certificate discharges it and every other
    certificate either discharges it too or provably never reaches it
    (the label is outside that certificate's analyzed set).  A tainted
    certificate's reach is *not* trustworthy — its missing edges could
    hide calls into any label — so any taint empties the policy.
    """
    certs = [c for c in certificates if c is not None]
    if not certs or any(c.taint_reasons for c in certs):
        return ResidualPolicy(frozenset(), certs)
    candidates: Set[int] = set()
    for c in certs:
        candidates |= c.discharged
    skip = frozenset(
        label for label in candidates
        if all(label in c.discharged or label not in c.labels for c in certs)
    )
    return ResidualPolicy(skip, certs)


# -- the verification cache -----------------------------------------------------


def _label_spaces(program: Program) -> Tuple[Dict[int, str], Dict[str, int]]:
    """Bidirectional label ↔ stable-id maps for ``program`` plus the
    process-shared library parses (``space:index`` in pre-order walk)."""
    from repro.lang.libraries import contracts_program, prelude_program

    spaces = (("program", program),
              ("prelude", prelude_program()),
              ("contracts", contracts_program()))
    to_stable: Dict[int, str] = {}
    from_stable: Dict[str, int] = {}
    for space, prog in spaces:
        index = 0
        for node in prog.iter_nodes():
            if node.kind == ast.K_LAM:
                sid = f"{space}:{index}"
                to_stable[node.label] = sid
                from_stable[sid] = node.label
                index += 1
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


class VerificationCache:
    """Content-addressed certificate store.

    In memory, certificates live in their *stable* form and are re-labeled
    against the consumer's parse on every :meth:`get` — the same program
    text parsed twice carries different λ labels, so a raw certificate
    would silently stop matching.  With ``path`` set, every certificate is
    additionally written to ``<path>/<key>.json`` and picked up by future
    processes.

    ``shard_depth=N`` spreads the on-disk store over ``<path>/<key[:N]>/``
    prefix directories — the layout ``sized serve`` workers use so each
    worker owns the shard(s) its routed keys land in and concurrent
    writers never contend on one directory.  A depth-0 cache reads a
    depth-N store as a miss (and vice versa) — pick one layout per
    directory.

    Every entry records the key it was filed under.  An entry is
    **quarantined** on read (an on-disk file renamed to
    ``<file>.rejected``) and counted in ``rejected`` rather than
    ``misses`` when it is corrupt, carries another schema, names another
    key, or holds a stable id the consumer's parse cannot resolve —
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

    SCHEMA = "discharge-certificate/v2"

    def __init__(self, path: Optional[str] = None, *, shard_depth: int = 0):
        self._mem: Dict[str, dict] = {}
        self.path = path
        self.shard_depth = shard_depth
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
            "shard_depth": self.shard_depth,
        }

    def _file(self, key: str) -> str:
        if self.shard_depth:
            return os.path.join(self.path, key[:self.shard_depth],
                                f"{key}.json")
        return os.path.join(self.path, f"{key}.json")

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
        payload = json.dumps({
            "program_sha256": hashlib.sha256(text.encode()).hexdigest(),
            # Certificates name library λs by positional stable id, and
            # the verdict itself depends on library definitions — a
            # certificate cached on disk must die with the library text
            # it was computed against, or a package upgrade could
            # discharge the wrong (never-verified) λ.
            "libraries_sha256": _libraries_digest(),
            "entry": entry,
            "kinds": list(kinds),
            "result_kinds": sorted((result_kinds or {}).items()),
            "evidence": evidence,
        }, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

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
            # Filed under another key, or naming a λ this parse does not
            # have: the certificate proves some other program.
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
    expression means no discharge at all)."""
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


def _define_rhs_safe(node: ast.Node, defined_names: Set) -> bool:
    """True when evaluating ``node`` at definition time cannot call a
    user closure: λs, literals, variable reads, and applications of
    unshadowed primitives to safe arguments (no primitive invokes a
    closure, so a closure *value* flowing through one is inert)."""
    k = node.kind
    if k in (ast.K_LIT, ast.K_VAR, ast.K_LAM):
        return True
    if k == ast.K_APP:
        fn = node.fn
        if not (fn.kind == ast.K_VAR and fn.name in PRIMITIVES
                and fn.name not in defined_names):
            return False
        return all(_define_rhs_safe(a, defined_names) for a in node.args)
    return False


def defines_are_safe(program: Program) -> Tuple[bool, Optional[str]]:
    defined_names = {form.name for form in program.forms
                     if isinstance(form, TopDefine)}
    for form in program.forms:
        if isinstance(form, TopDefine) and \
                not _define_rhs_safe(form.expr, defined_names):
            return False, (f"(define {form.name} ...) may call a closure "
                           "at definition time, outside any verified entry")
    return True, None


# -- the pipeline entry point ---------------------------------------------------


class DischargeResult:
    """What :func:`discharge_for_run` hands the evaluator and the CLI."""

    __slots__ = ("policy", "certificates", "entries", "reasons")

    def __init__(self, policy: ResidualPolicy,
                 certificates: Sequence[DischargeCertificate] = (),
                 entries: Sequence[WorkloadEntry] = (),
                 reasons: Sequence[str] = ()):
        self.policy = policy
        self.certificates = tuple(certificates)
        self.entries = tuple(entries)
        self.reasons = list(reasons)

    @property
    def complete(self) -> bool:
        """True when every top-level call's entry is fully discharged —
        the whole workload runs monitor-free."""
        return not self.reasons and \
            all(c.complete for c in self.certificates)

    def render(self) -> str:
        lines = []
        for cert in self.certificates:
            state = "discharged" if cert.complete else "residual"
            lines.append(f"{cert.entry}: {state} "
                         f"({len(cert.discharged)}/{len(cert.labels)} λs, "
                         f"evidence={cert.evidence})")
        for reason in self.reasons:
            lines.append(f"  - {reason}")
        return "\n".join(lines)


def discharge_for_run(
    program: Program,
    text: Optional[str] = None,
    mc: bool = False,
    result_kinds: Optional[Dict[str, str]] = None,
    cache: Optional[VerificationCache] = None,
    budget=None,
    max_graphs: int = 20000,
) -> DischargeResult:
    """Verify the program's inferred workload entries and compute the
    residual policy.  ``text`` (the program source text) enables the
    verification cache; without it every call re-verifies."""
    from repro.sexp.datum import intern
    from repro.values.values import Closure

    entries, reasons = infer_workload(program)
    if entries is None:
        return DischargeResult(ResidualPolicy(), reasons=reasons)
    safe, safe_reason = defines_are_safe(program)
    if not safe:
        return DischargeResult(ResidualPolicy(), entries=entries,
                               reasons=[safe_reason])
    if cache is None:
        cache = default_cache()
    evidence = "mc" if mc else "sc"
    certificates: List[DischargeCertificate] = []
    problems: List[str] = []
    for entry in entries:
        key = None
        cert = None
        if text is not None:
            key = cache.key(text, entry.name, entry.kinds, result_kinds,
                            evidence)
            cert = cache.get(key, program)
        if cert is None:
            if mc:
                from repro.mc.static import MCEngine as engine_cls
            else:
                from repro.symbolic.engine import Engine as engine_cls
            engine = engine_cls(program, budget=budget,
                                result_kinds=result_kinds)
            entry_value = engine.globals.bindings.get(intern(entry.name))
            if not isinstance(entry_value, Closure):
                return DischargeResult(
                    ResidualPolicy(), certificates, entries,
                    [f"entry {entry.name!r} is not a statically known "
                     "closure"])
            engine.run(entry_value, list(entry.kinds))
            cert = certificate_from_engine(engine, max_graphs=max_graphs)
            if key is not None:
                cache.put(key, cert, program)
        certificates.append(cert)
        if not cert.complete:
            why = "; ".join(cert.taint_reasons) or \
                "the collected graphs do not pass the static check"
            problems.append(f"entry {cert.entry!r} not discharged: {why}")
    policy = residual_policy(certificates)
    return DischargeResult(policy, certificates, entries, problems)
