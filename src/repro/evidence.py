"""The two kinds of termination evidence, chosen in one place.

The §4 verifier and the §5 monitor enforce one contract over one of two
kinds of evidence: size-change graphs (``"sc"``, the paper's) or
monotonicity constraints (``"mc"``, the §6.2 extension).
:func:`evidence` maps the kind to the symbolic engine class, which
carries its phase-2 check, and to the run-time monitor class.  The
verifier, the discharge pipeline, the CLI, ``sized serve`` and
``@terminating`` all take their classes from here.
"""

from __future__ import annotations

from typing import NamedTuple


class Evidence(NamedTuple):
    #: The symbolic engine (:class:`~repro.symbolic.engine.Engine` or
    #: :class:`~repro.mc.static.MCEngine`); its ``check`` closes the
    #: edges it records.
    engine: type
    #: The run-time monitor (:class:`~repro.sct.monitor.SCMonitor` or
    #: :class:`~repro.mc.monitor.MCMonitor`).
    monitor: type


def evidence(kind: str) -> Evidence:
    """The engine and monitor classes of evidence ``kind``."""
    # Imported on use: the symbolic, mc and analysis packages import one
    # another, so a module-level import here would make this module's
    # importers depend on import order.
    if kind == "sc":
        from repro.sct.monitor import SCMonitor
        from repro.symbolic.engine import Engine

        return Evidence(Engine, SCMonitor)
    if kind == "mc":
        from repro.mc.monitor import MCMonitor
        from repro.mc.static import MCEngine

        return Evidence(MCEngine, MCMonitor)
    raise ValueError(f"evidence must be 'sc' or 'mc', got {kind!r}")
