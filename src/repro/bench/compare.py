"""Baseline comparison: performance-version-control for bench artifacts.

Given a baseline ``repro-bench/1`` artifact (e.g. the committed
``BENCH_0.json``) and a fresh run, :func:`compare_artifacts` matches
results by benchmark name and classifies each delta.  The comparison
metric is the **minimum** repeat (``best_s``) — the least-noise estimate
of the true cost — and deltas are expressed as signed percentages
(positive = the new run is slower).

Classification, for a significance threshold of *T* percent:

* ``regressed`` — new time more than *T*% above the baseline;
* ``improved`` — new time more than *T*% below the baseline;
* ``unchanged`` — within the noise band;
* ``added`` — present only in the new run (no gate: new benchmarks
  cannot regress);
* ``removed`` — present only in the baseline (renames show up as one
  ``removed`` plus one ``added``);
* ``incomparable`` — a zero or negative time on either side, where a
  ratio is meaningless (the zero-time guard).

The CLI's ``--fail-on-regress PCT`` turns ``regressed`` entries into a
non-zero exit; a bare ``--compare`` is informational and always exits
zero, because cross-host timings (CI vs. laptop) routinely differ by
more than any sane threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: delta classifications, in display order
REGRESSED = "regressed"
IMPROVED = "improved"
UNCHANGED = "unchanged"
ADDED = "added"
REMOVED = "removed"
INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class Delta:
    """One benchmark's baseline-to-current comparison."""

    name: str
    status: str
    base_s: float | None = None
    new_s: float | None = None
    #: signed percent change ((new - base) / base * 100); None when a
    #: side is missing or the zero-time guard fired
    pct: float | None = None


def _metric(entry: dict[str, Any]) -> float | None:
    value = entry.get("best_s")
    return float(value) if isinstance(value, (int, float)) else None


def compare_artifacts(
    base: dict[str, Any],
    new: dict[str, Any],
    *,
    threshold_pct: float = 5.0,
) -> list[Delta]:
    """Classify every benchmark present in either artifact.

    Ordering follows the new artifact, with baseline-only entries
    appended (so a run's table reads in registration order).
    """
    if threshold_pct < 0:
        raise ValueError("threshold_pct must be >= 0")
    base_entries = {e["name"]: e for e in base.get("results", []) if "name" in e}
    new_entries = {e["name"]: e for e in new.get("results", []) if "name" in e}
    deltas: list[Delta] = []
    for name, entry in new_entries.items():
        new_s = _metric(entry)
        if name not in base_entries:
            deltas.append(Delta(name=name, status=ADDED, new_s=new_s))
            continue
        base_s = _metric(base_entries[name])
        if base_s is None or new_s is None or base_s <= 0.0 or new_s <= 0.0:
            # zero-time guard: sub-resolution timings make ratios garbage
            deltas.append(
                Delta(name=name, status=INCOMPARABLE, base_s=base_s, new_s=new_s)
            )
            continue
        # rounded so the threshold boundary is exact, not FP-noise-driven
        pct = round((new_s - base_s) / base_s * 100.0, 6)
        if pct > threshold_pct:
            status = REGRESSED
        elif pct < -threshold_pct:
            status = IMPROVED
        else:
            status = UNCHANGED
        deltas.append(
            Delta(name=name, status=status, base_s=base_s, new_s=new_s, pct=pct)
        )
    for name, entry in base_entries.items():
        if name not in new_entries:
            deltas.append(
                Delta(name=name, status=REMOVED, base_s=_metric(entry))
            )
    return deltas


def regressions(deltas: list[Delta]) -> list[Delta]:
    """The deltas the ``--fail-on-regress`` gate trips on."""
    return [d for d in deltas if d.status == REGRESSED]


def hosts_differ(base: dict[str, Any], new: dict[str, Any]) -> bool:
    """True when the two artifacts came from visibly different hosts."""
    keys = ("python", "implementation", "platform", "machine", "cpu_count")
    base_host = base.get("host") or {}
    new_host = new.get("host") or {}
    return any(base_host.get(k) != new_host.get(k) for k in keys)


def _fmt_time(value: float | None) -> str:
    if value is None:
        return "-"
    if value < 1e-3:
        return f"{value * 1e6:.1f}us"
    if value < 1.0:
        return f"{value * 1e3:.2f}ms"
    return f"{value:.3f}s"


def format_compare_table(deltas: list[Delta], *, threshold_pct: float) -> str:
    """A plain-text delta table (the ``--compare`` output)."""
    header = f"{'benchmark':<28} {'base':>10} {'new':>10} {'delta':>9}  status"
    lines = [header, "-" * len(header)]
    for d in deltas:
        pct = "-" if d.pct is None else f"{d.pct:+.1f}%"
        lines.append(
            f"{d.name:<28} {_fmt_time(d.base_s):>10} {_fmt_time(d.new_s):>10} "
            f"{pct:>9}  {d.status}"
        )
    counts: dict[str, int] = {}
    for d in deltas:
        counts[d.status] = counts.get(d.status, 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    lines.append(f"({summary}; threshold +/-{threshold_pct:g}%)")
    return "\n".join(lines)
