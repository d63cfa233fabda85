"""Positive termination certificates: *why* a verified program terminates.

The LJB theorem says a program has the size-change property iff every
idempotent graph in the composition closure carries a strict self-arc.
Those self-arcs are the *anchors*: the parameters whose descent breaks
every potentially-infinite call pattern.  This module reads them off a
completed closure (:func:`repro.analysis.ljb.close`) and reports them,
giving verified verdicts an explanation a user can check against their
own understanding of the code:

    ack: every repeatable call pattern strictly descends on m or n
    loop: every repeatable call pattern strictly descends on l
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.ljb import Edge, SCPResult, scp_check
from repro.sct.graph import SCGraph, STRICT


class FunctionAnchors:
    """Anchor report for one function (one λ label)."""

    __slots__ = ("label", "idempotents", "anchor_sets")

    def __init__(self, label: int, idempotents: List[SCGraph]):
        self.label = label
        self.idempotents = idempotents
        self.anchor_sets: List[Set[int]] = [
            {i for (i, r, j) in g.arcs if r is STRICT and i == j}
            for g in idempotents
        ]

    def all_anchored(self) -> bool:
        return all(self.anchor_sets)

    def anchor_union(self) -> Set[int]:
        out: Set[int] = set()
        for anchors in self.anchor_sets:
            out |= anchors
        return out

    def common_anchor(self) -> Optional[int]:
        """A single parameter descending in *every* repeatable pattern, if
        one exists (the simplest possible termination argument)."""
        if not self.anchor_sets:
            return None
        common = set(self.anchor_sets[0])
        for anchors in self.anchor_sets[1:]:
            common &= anchors
        return min(common) if common else None


def anchors_of(result: SCPResult) -> Optional[Dict[int, FunctionAnchors]]:
    """Group the idempotent self-compositions of a finished closure by
    function.  ``None`` unless the SCP holds (no certificate when it
    fails or is undetermined)."""
    if result.ok is not True:
        return None
    report: Dict[int, FunctionAnchors] = {}
    for f, bucket in result.self_loops().items():
        idempotents = [G for G in bucket if G.is_idempotent()]
        if idempotents:
            report[f] = FunctionAnchors(f, idempotents)
    return report


def collect_anchors(edges: Dict[Edge, Set[SCGraph]],
                    max_graphs: int = 20000) -> Optional[Dict[int, FunctionAnchors]]:
    """Close ``edges`` and group the idempotent self-compositions by
    function.  Returns ``None`` when the closure blows the cap or some
    idempotent graph lacks a strict self-arc (no certificate: the SCP
    fails or is undetermined)."""
    return anchors_of(scp_check(edges, max_graphs))


def explain_termination(
    edges: Dict[Edge, Set[SCGraph]],
    label_names: Optional[Dict[int, str]] = None,
    label_params: Optional[Dict[int, List[str]]] = None,
) -> List[str]:
    """Human-readable anchor lines for a verified program (empty when no
    certificate is available)."""
    return render_anchors(collect_anchors(edges), label_names, label_params)


def render_anchors(
    report: Optional[Dict[int, FunctionAnchors]],
    label_names: Optional[Dict[int, str]] = None,
    label_params: Optional[Dict[int, List[str]]] = None,
) -> List[str]:
    """The anchor lines of :func:`explain_termination` for a report of
    :func:`anchors_of`."""
    if report is None:
        return []

    def nm(label: int) -> str:
        if label_names and label in label_names:
            return label_names[label]
        return f"λ{label}"

    def pnames(label: int, params: Set[int]) -> List[str]:
        names = label_params.get(label) if label_params else None
        out = []
        for i in sorted(params):
            if names and i < len(names):
                out.append(names[i])
            else:
                out.append(f"x{i}")
        return out

    lines = []
    for label in sorted(report):
        anchors = report[label]
        if not anchors.all_anchored():
            continue
        common = anchors.common_anchor()
        if common is not None:
            [name] = pnames(label, {common})
            lines.append(f"{nm(label)}: every repeatable call pattern "
                         f"strictly descends on {name}")
        else:
            names = pnames(label, anchors.anchor_union())
            lines.append(f"{nm(label)}: every repeatable call pattern "
                         f"strictly descends on one of "
                         f"{{{', '.join(names)}}}")
    return lines
