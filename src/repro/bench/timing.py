"""The stable timing protocol behind every benchmark number.

Host-side timing is noisy; the protocol keeps the noise bounded and the
numbers comparable across commits:

* **monotonic clock** — ``time.perf_counter`` (the highest-resolution
  monotonic clock Python exposes);
* **GC disabled** — the collector is paused around every timed region
  and restored afterwards, so a collection pause never lands inside a
  repeat; rows whose cost includes the collections their allocations
  set off (``circuits``, whose netlists hold many objects) time with it
  on instead.  Each record's metadata says which (``"gc": true`` or
  ``false``); the artifact's ``protocol`` block says nothing about the
  collector, since no single value holds for every row;
* **warmup** — untimed calls first, so import caches and allocator
  pools are hot before the first measurement;
* **repeats** — each benchmark is timed several times and the artifact
  keeps every repeat; comparisons use the *minimum* (least-noise
  estimate of the true cost) and the *median* (robust central value),
  never the mean of a cold first call.

:func:`host_fingerprint` captures where the numbers came from — two
artifacts are only comparable when their fingerprints broadly agree,
and the comparator warns when they do not.
"""

from __future__ import annotations

import gc
import os
import platform
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable


def host_fingerprint() -> dict[str, Any]:
    """Describe the machine and interpreter that produced a timing.

    Stored in every ``repro-bench/1`` artifact; the comparator prints a
    warning when the baseline's fingerprint differs (cross-host deltas
    measure the hosts, not the code).
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


#: the protocol constants, recorded verbatim in the artifact
def protocol_description(repeats: int, warmup: int) -> dict[str, Any]:
    """The ``protocol`` artifact block for one run's settings."""
    return {
        "clock": "perf_counter",
        "warmup": warmup,
        "repeats": repeats,
    }


@dataclass(frozen=True)
class Timing:
    """Per-repeat wall-clock samples for one benchmark, in seconds."""

    repeats: tuple[float, ...]
    warmup: int

    @property
    def best_s(self) -> float:
        """The minimum repeat — the least-noise estimate."""
        return min(self.repeats)

    @property
    def median_s(self) -> float:
        """The median repeat — the robust central value."""
        ordered = sorted(self.repeats)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    @property
    def mean_s(self) -> float:
        """The arithmetic mean — recorded but never gated on."""
        return sum(self.repeats) / len(self.repeats)


def measure(
    fn: Callable[[], Any],
    *,
    repeats: int = 5,
    warmup: int = 1,
    collect: bool = False,
) -> Timing:
    """Time ``fn()`` under the protocol; returns every repeat.

    The GC is disabled around the timed region, or enabled there when
    *collect* is set (warmup runs with the collector in whatever state
    the caller left it), and its enabled/disabled state is restored even
    when *fn* raises.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    for _ in range(warmup):
        fn()
    samples: list[float] = []
    was_enabled = gc.isenabled()
    if collect:
        gc.enable()
    else:
        gc.disable()
    try:
        for _ in range(repeats):
            start = perf_counter()
            fn()
            samples.append(perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()
    return Timing(repeats=tuple(samples), warmup=warmup)


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark's full measurement: timing, counters, rates."""

    name: str
    group: str
    title: str
    metadata: dict[str, Any]
    timing: Timing
    #: aggregated telemetry counters from the untimed stats pass (empty
    #: for benchmarks that build no engines)
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def rates(self) -> dict[str, float]:
        """Derived work rates joining simulated work with host time.

        ``sim_cycles_per_s`` and ``sim_instructions_per_s`` appear when
        the stats pass observed the matching counters; both divide by
        the median repeat (the robust wall-clock estimate).
        """
        rates: dict[str, float] = {}
        median = self.timing.median_s
        if median <= 0.0:
            return rates
        cycles = self.stats.get("cycles", 0)
        if cycles:
            rates["sim_cycles_per_s"] = cycles / median
        committed = self.stats.get("commit.instructions", 0)
        if committed:
            rates["sim_instructions_per_s"] = committed / median
        return rates
