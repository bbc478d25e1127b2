"""The stable top-level facade: build a processor, run a program.

Everything a script needs for the common case lives here, so user code
(and the bundled ``examples/``) never has to know which module inside
:mod:`repro.ultrascalar` implements which datapath::

    from repro.api import ProcessorConfig, build_processor

    processor = build_processor("us1", ProcessorConfig(window_size=8))
    result = processor.run(program)
    print(result.ipc)

Kinds map onto the paper's three designs: ``"us1"`` (Ultrascalar I,
wrap-around ring, per-station refill), ``"us2"`` (Ultrascalar II,
whole-batch refill), and ``"hybrid"`` (US-II clusters on a US-I ring;
set ``cluster_size``).  ``run(program, tracer=...)`` attaches a
telemetry tracer (see :mod:`repro.telemetry`); by default tracing is
off and runs are byte-identical to the pre-telemetry engines.

:class:`Processor` is the one place that builds the ring engine
(:class:`repro.ultrascalar.ring.RingProcessor`); the deep modules stay
importable for tests of their internals.  Re-exported here so one import
serves most scripts: :class:`ProcessorConfig`,
:class:`ProcessorResult`, :class:`TimingRecord`, the memory systems,
the tracers, and the :func:`collecting` session helper (every engine
built inside a ``with collecting() as tracer:`` block reports to
*tracer* — how the runner and the bench harness gather counters from
code that never passes ``tracer=`` explicitly).
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field

from repro.telemetry import CountingTracer, EventTracer, NullTracer, Tracer, collecting
from repro.ultrascalar import (
    CachedMemory,
    IdealMemory,
    MemorySystem,
    ProcessorConfig,
    ProcessorResult,
    TimingRecord,
)
from repro.ultrascalar.processor import _default_predictor
from repro.ultrascalar.ring import RingProcessor

__all__ = [
    "CachedMemory",
    "CountingTracer",
    "EventTracer",
    "IdealMemory",
    "MemorySystem",
    "NullTracer",
    "PROCESSOR_KINDS",
    "Processor",
    "ProcessorConfig",
    "ProcessorResult",
    "TimingRecord",
    "Tracer",
    "build_processor",
    "cluster_for_window",
    "collecting",
]

#: the kind names :func:`build_processor` accepts: paper Section 4 / 5 /
#: 6 designs respectively
PROCESSOR_KINDS = ("us1", "us2", "hybrid")


def cluster_for_window(window: int) -> int:
    """The hybrid cluster size the experiments and ``repro verify`` use
    at *window*: the largest power of two at most ``max(1, window // 4)``
    that divides the window."""
    cluster = 1
    while cluster * 2 <= max(1, window // 4) and window % (cluster * 2) == 0:
        cluster *= 2
    return cluster


@dataclass(frozen=True)
class Processor:
    """A configured processor design, ready to run programs.

    Immutable and reusable: each :meth:`run` builds a fresh engine
    around the program, so one handle can execute many programs (or the
    same program repeatedly) without state leaking between runs.
    """

    kind: str
    config: ProcessorConfig = field(default_factory=ProcessorConfig)
    #: stations per cluster; only meaningful for ``kind="hybrid"``
    cluster_size: int = 4

    def __post_init__(self) -> None:
        if self.kind not in PROCESSOR_KINDS:
            close = difflib.get_close_matches(self.kind, PROCESSOR_KINDS, n=2)
            hint = f" (did you mean {' or '.join(map(repr, close))}?)" if close else ""
            raise ValueError(
                f"unknown processor kind {self.kind!r}{hint}; "
                f"expected one of {', '.join(map(repr, PROCESSOR_KINDS))}"
            )
        if self.kind == "hybrid" and (
            self.cluster_size < 1 or self.config.window_size % self.cluster_size
        ):
            raise ValueError("cluster_size must divide the window size")

    @property
    def refill_size(self) -> int:
        """Stations freed at a time, the one way the designs differ:
        1 (us1), the cluster (hybrid) or the whole window (us2)."""
        return {"us1": 1, "us2": self.config.window_size}.get(self.kind, self.cluster_size)

    def run(
        self,
        program,
        *,
        tracer: Tracer | None = None,
        memory: MemorySystem | None = None,
        predictor=None,
        initial_registers: list[int] | None = None,
        cycle_hook=None,
    ) -> ProcessorResult:
        """Execute *program* to completion and return the result.

        ``tracer`` attaches a telemetry sink for this run (counters land
        in ``ProcessorResult.stats``); ``cycle_hook`` attaches a
        per-cycle observer — typically an invariant checker from
        :mod:`repro.verify.invariants`; the remaining keywords override
        the defaults (ideal memory, perfect prediction, zeroed
        registers).
        """
        return RingProcessor(
            program,
            self.config,
            predictor if predictor is not None else _default_predictor(program, self.config),
            memory if memory is not None else IdealMemory(),
            self.refill_size,
            initial_registers,
            tracer=tracer,
            cycle_hook=cycle_hook,
        ).run()


def build_processor(
    kind: str,
    config: ProcessorConfig | None = None,
    *,
    cluster_size: int = 4,
) -> Processor:
    """Build a reusable :class:`Processor` of the named design.

    *kind* is one of :data:`PROCESSOR_KINDS`; an unknown name raises
    :class:`ValueError` with a did-you-mean hint, and so does a hybrid
    cluster that does not divide the window.
    """
    return Processor(kind, config or ProcessorConfig(), cluster_size)
