"""Benchmark harness: regenerates every table and figure of §5.

* :mod:`repro.bench.table1` — Table 1 (dynamic + static verdicts vs the
  recorded LH/Isabelle/ACL2 columns),
* :mod:`repro.bench.fig10` — Figure 10 (monitoring slowdown of factorial,
  sum, merge-sort, direct and interpreted; unchecked vs continuation-mark
  vs imperative),
* :mod:`repro.bench.divergence` — §5.1.2 (time/calls to catch divergence),
* :mod:`repro.bench.ablation` — the §5 implementation-choice knobs
  (keying, backoff, loop entries, order, strategy),
* :mod:`repro.bench.mc_ablation` — the §6.2 monotonicity-constraint
  extension (static precision vs SC, dynamic overhead),
* :mod:`repro.bench.compose_bench` — the bitmask graph engine vs the
  frozenset reference on compose-heavy workloads (the perf trajectory
  of this reproduction's own graph-algebra hot path),
* :mod:`repro.bench.machines` — one program under every machine and
  enforcement set-up: the corpus on the tree and compiled machines
  unmonitored and monitored (cm, imperative), plus the fully discharged
  subset on all three machines under its residual policy, amplified by a
  discharged in-language driver loop (emits ``BENCH_machines.json``).
"""

from repro.bench.compose_bench import run_compose, render_compose
from repro.bench.machines import (
    render_machines,
    run_machines,
    write_machines_json,
)
from repro.bench.table1 import run_table1, render_table1
from repro.bench.fig10 import run_fig10, render_fig10
from repro.bench.divergence import run_divergence, render_divergence
from repro.bench.ablation import run_ablation, render_ablation
from repro.bench.mc_ablation import (
    render_mc,
    run_mc_dynamic,
    run_mc_static,
)

__all__ = [
    "run_table1", "render_table1",
    "run_fig10", "render_fig10",
    "run_divergence", "render_divergence",
    "run_ablation", "render_ablation",
    "run_mc_static", "run_mc_dynamic", "render_mc",
    "run_compose", "render_compose",
    "run_machines", "render_machines", "write_machines_json",
]
