"""Declarative experiment registry: specs in, runnable jobs out.

Each experiment module under :mod:`repro.experiments` declares its sweep
points as a module-level ``SWEEP_POINTS`` list — keyword-argument dicts
for its ``report`` function, JSON-serializable so the cache can key on
them.  The registry pairs each experiment key with its title and module
path without importing the experiment up front; :func:`build_jobs`
expands specs into one :class:`JobSpec` per sweep point.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a key, a display title, and where its code lives."""

    key: str
    title: str
    module: str
    func: str = "report"

    def load(self) -> Callable[..., str]:
        """Import the experiment module and return its report function."""
        return getattr(importlib.import_module(self.module), self.func)

    def sweep_points(self) -> list[dict[str, Any]]:
        """The declared sweep points (kwargs for ``report``), copied.

        Every point is validated against the ``report`` signature at
        declaration-read time, so a typo in ``SWEEP_POINTS`` fails fast
        with the offending module's name instead of surfacing later as
        a ``TypeError`` inside a worker process.
        """
        module = importlib.import_module(self.module)
        points = [dict(point) for point in getattr(module, "SWEEP_POINTS", [{}])]
        _validate_sweep_points(self.module, getattr(module, self.func), points)
        return points


class SweepPointError(ValueError):
    """A SWEEP_POINTS entry does not match its report() signature."""


def _validate_sweep_points(
    module: str, report: Callable[..., str], points: list[dict[str, Any]]
) -> None:
    """Reject sweep points whose keys the report function cannot bind.

    Raises :class:`SweepPointError` naming the module and the bad key —
    the runner surfaces this before any job runs.  A ``**kwargs``
    catch-all in the signature accepts everything (none of the bundled
    experiments use one, but custom ones may).
    """
    signature = inspect.signature(report)
    if any(
        p.kind is inspect.Parameter.VAR_KEYWORD
        for p in signature.parameters.values()
    ):
        return
    accepted = {
        name
        for name, p in signature.parameters.items()
        if p.kind
        in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    }
    for index, point in enumerate(points):
        unknown = sorted(set(point) - accepted)
        if unknown:
            raise SweepPointError(
                f"{module}: SWEEP_POINTS[{index}] has keyword(s) "
                f"{', '.join(map(repr, unknown))} not accepted by "
                f"{report.__name__}({', '.join(sorted(accepted))})"
            )


@dataclass(frozen=True)
class JobSpec:
    """One unit of runnable work: a single sweep point of one experiment."""

    experiment: str
    title: str
    module: str
    func: str
    kwargs: dict[str, Any] = field(default_factory=dict)
    #: position of this sweep point within the experiment, and how many
    #: sweep points the experiment declared (for report re-assembly)
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


def build_jobs(specs: list[ExperimentSpec], cache=None) -> list[JobSpec]:
    """Expand specs into one job per declared sweep point, in order.

    With a :class:`~repro.runner.cache.ResultCache`, sweep points come
    from the cache's sidecar index when the same package source already
    stored them — a fully warm run then never imports the experiment
    modules.  Fresh declarations are written back to the index.
    """
    jobs: list[JobSpec] = []
    for spec in specs:
        points = cache.get_sweep_points(spec.key) if cache is not None else None
        if points is None:
            points = spec.sweep_points()
            if cache is not None:
                cache.put_sweep_points(spec.key, points)
        for index, kwargs in enumerate(points):
            jobs.append(
                JobSpec(
                    experiment=spec.key,
                    title=spec.title,
                    module=spec.module,
                    func=spec.func,
                    kwargs=kwargs,
                    index=index,
                    count=len(points),
                )
            )
    return jobs
