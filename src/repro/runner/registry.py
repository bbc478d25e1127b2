"""Declarative experiment registry: specs in, runnable jobs out.

Each experiment is one job: its module's ``report()``, which takes no
arguments, so each experiment has one configuration.  The registry
pairs each experiment key with its title and module path, and
:func:`build_jobs` turns specs into jobs without importing any
experiment module; a job's module is imported only when it actually
runs, so a fully warm run imports none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a key, a display title, and where its code lives."""

    key: str
    title: str
    module: str


@dataclass(frozen=True)
class JobSpec:
    """One unit of runnable work: a function, its kwargs, and its place.

    Experiment jobs call ``report()`` with no arguments and are alone in
    their experiment; ``repro verify`` builds one job per fuzz seed,
    with that shard's kwargs and its position among the shards.
    """

    experiment: str
    title: str
    module: str
    func: str
    kwargs: dict[str, Any] = field(default_factory=dict)
    #: position of this job within its experiment, and how many jobs
    #: the experiment has (for report re-assembly)
    index: int = 0
    count: int = 1


#: key -> spec, in the canonical reporting order of ``python -m repro all``
REGISTRY: dict[str, ExperimentSpec] = {
    spec.key: spec
    for spec in [
        ExperimentSpec("fig3", "E1  — Figure 3 timing diagram", "repro.experiments.fig3_timing"),
        ExperimentSpec("fig11", "E2  — Figure 11 asymptotic comparison", "repro.experiments.fig11_table"),
        ExperimentSpec("fig12", "E3  — Figure 12 layout density", "repro.experiments.fig12_layout"),
        ExperimentSpec("crossover", "E4  — dominance crossovers", "repro.experiments.crossover"),
        ExperimentSpec("cluster", "E5  — optimal cluster size", "repro.experiments.cluster_sweep"),
        ExperimentSpec("membw", "E6  — X(n) by memory regime", "repro.experiments.memory_bw"),
        ExperimentSpec("3d", "E7  — three-dimensional bounds", "repro.experiments.three_d"),
        ExperimentSpec("selftimed", "E8  — self-timed locality", "repro.experiments.selftimed"),
        ExperimentSpec("gates", "E9  — measured gate delays", "repro.experiments.gate_depth"),
        ExperimentSpec("ipc", "E10 — ILP equivalence & quadratic wall", "repro.experiments.ipc_equivalence"),
        ExperimentSpec("window", "E12 — window size vs issue width (Memo 2)", "repro.experiments.window_vs_issue"),
        ExperimentSpec("map", "E13 — dominance map over (n, L)", "repro.experiments.dominance_map"),
        ExperimentSpec("perf", "E14 — end-to-end performance projection", "repro.experiments.performance_projection"),
        ExperimentSpec("ilp", "E15 — ILP limits at large windows", "repro.experiments.ilp_limits"),
        ExperimentSpec("1cm", "E16 — the closing 1 cm chip claim", "repro.experiments.one_cm_chip"),
    ]
}


def build_jobs(specs: list[ExperimentSpec]) -> list[JobSpec]:
    """One job per spec, in order: each experiment's ``report()``."""
    return [
        JobSpec(experiment=spec.key, title=spec.title, module=spec.module, func="report")
        for spec in specs
    ]
